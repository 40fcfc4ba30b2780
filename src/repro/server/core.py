"""The asyncio temporal query server.

:class:`QueryServer` multiplexes many client connections over **one**
shared catalog and :class:`~repro.rewriter.pipeline.QueryPipeline`: every
request is rewritten through the same structural-hash plan cache (so one
client's cold query is every other client's warm hit), executes in a
worker-thread pool so the event loop stays responsive, and is governed by a
per-request deadline + row budget (the client's
:class:`~repro.execution.ExecutionPolicy` limits, capped by
``max_query_seconds``).

Consistency: snapshot reads, serialised writers, by construction in the
catalog (:mod:`repro.engine.catalog`) rather than by anything the pool does.
A query takes one :meth:`Database.snapshot` when its execution starts and
reads every table from it, however long it runs and whatever lands
meanwhile; it takes no lock.  Writers -- DML, ``load``, ``analyze``,
``materialize`` / ``drop_view`` and ``view_apply``, from any number of
clients -- run one at a time under the catalog's writer lock, and a write
and the view updates it causes are published together: no query sees a base
table after a write and a view over it before.  Every state a request
observes is therefore the state after some prefix of the committed writes.
A request also observes :attr:`Database.schema_version` once, at rewrite
time -- the plan cache keys on it, so a request rewritten under version *v*
never executes a plan cached under a different catalog shape; the observed
version is reported back as ``server.schema_version`` in the statistics.

Cancellation reuses the fault-tolerance substrate: the event loop holds the
request's :class:`~repro.execution.Deadline` and a ``cancel`` frame expires
it (:meth:`~repro.execution.Deadline.cancel`), so the in-memory engine's
cooperative polls and SQLite's progress handler double as the cancellation
path; a cancelled request answers with an error frame marked
``cancelled``.

The server runs its event loop on a dedicated daemon thread so synchronous
callers (tests, benchmarks, examples) can drive it with plain
``start()`` / ``stop()`` or a ``with`` block::

    with QueryServer(connect(domain=(0, 24))) as server:
        session = connect(server.url)      # a Session, over the wire
        ...

What a client can say is not written here: every frame other than the
handshake, the streaming ``query`` and ``cancel`` is looked up in the verb
table of :mod:`repro.server.verbs` and answered by :meth:`Verb.serve`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ProtocolError, QueryTimeoutError
from ..execution import Deadline, QueryLimits, backend_name
from ..rewriter.pipeline import QueryPipeline
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_to_frame,
    read_frame_length,
)
from .verbs import QUERY, VERBS

__all__ = ["QueryServer", "DEFAULT_PORT"]

#: Default TCP port of ``repro://host`` DSNs without an explicit port.
DEFAULT_PORT = 7464


class QueryServer:
    """A TCP query server over one shared session pipeline.

    Built over an in-process :class:`~repro.api.Session` (``connect(domain=...)``
    and friends), whose catalog, plan cache and views it shares with
    in-process callers of that session.  ``port=0`` (the default) binds an
    ephemeral port, published as :attr:`port` / :attr:`url` once started.
    """

    def __init__(
        self,
        session: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: Optional[int] = None,
        chunk_rows: int = 1024,
        max_query_seconds: float = 300.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._session = session
        self._pipeline: QueryPipeline = session.pipeline
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self.chunk_rows = max(1, chunk_rows)
        self.max_query_seconds = max_query_seconds
        self.max_frame_bytes = max_frame_bytes
        workers = max_workers if max_workers is not None else min(8, os.cpu_count() or 4)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._startup_error: Optional[BaseException] = None
        #: The event loop's handle on each in-flight query: its deadline.
        self._active: Dict[Tuple[int, int], Deadline] = {}
        self._connection_ids = itertools.count(1)

    # -- introspection ----------------------------------------------------------------

    @property
    def session(self) -> Any:
        """The in-process session the server multiplexes (shared pipeline)."""
        return self._session

    @property
    def url(self) -> str:
        """The ``repro://host:port`` DSN clients connect to."""
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"repro://{self.host}:{self.port}"

    def __repr__(self) -> str:
        state = self.url if self.port is not None else "stopped"
        return f"QueryServer({state}, tables={list(self._pipeline.database.names())})"

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "QueryServer":
        """Bind and serve on a dedicated event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._serve_thread, args=(started,), name="repro-server", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            self._startup_error = None
            raise error
        if self.port is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self) -> None:
        """Stop serving: cancel in-flight queries, close the loop.  Idempotent."""
        thread, loop = self._thread, self._loop
        if thread is None or loop is None:
            return
        self._thread = None
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        self._executor.shutdown(wait=False)
        self.port = None

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _serve_thread(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_client, self.host, self._requested_port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown())
            loop.close()

    async def _shutdown(self) -> None:
        for deadline in list(self._active.values()):
            deadline.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling ----------------------------------------------------------

    async def _read_payload(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        try:
            header = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return await reader.readexactly(read_frame_length(header, self.max_frame_bytes))

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        message: Dict[str, Any],
    ) -> None:
        frame = encode_frame(message, self.max_frame_bytes)
        async with lock:
            writer.write(frame)
            await writer.drain()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection_id = next(self._connection_ids)
        # One writer lock per connection: streamed queries interleave frames.
        send = functools.partial(self._send, writer, asyncio.Lock())
        tasks: set = set()
        try:
            payload = await self._read_payload(reader)
            hello = None if payload is None else decode_frame(payload)
            if hello is None:
                return
            if hello.get("type") != "hello":
                error = ProtocolError(f"expected a hello frame, got {hello.get('type')!r}")
                await send(error_to_frame(error))
                return
            await send(self._welcome())
            while True:
                try:
                    payload = await self._read_payload(reader)
                except ProtocolError as error:
                    # Framing is broken beyond this point: report and hang up.
                    await send(error_to_frame(error))
                    return
                if payload is None:
                    return
                try:
                    frame = decode_frame(payload)
                except ProtocolError as error:
                    # A whole frame, but no typed message: answer it, stay in step.
                    await send(error_to_frame(error))
                    continue
                kind = frame.get("type")
                if kind == "query":
                    task = asyncio.ensure_future(self._handle_query(connection_id, frame, send))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind == "cancel":
                    self._cancel(connection_id, frame.get("id"))
                else:
                    await self._handle_verb(frame, send)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A vanished client must not pin worker threads: expire every
            # deadline its in-flight queries still hold.
            for (conn, _request_id), deadline in list(self._active.items()):
                if conn == connection_id:
                    deadline.cancel()
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _welcome(self) -> Dict[str, Any]:
        from .. import __version__ as _version

        pipeline = self._pipeline
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server": f"repro-server/{_version}",
            "domain": [pipeline.domain.min_point, pipeline.domain.max_point],
            "tables": list(pipeline.database.names()),
            "backend": backend_name(pipeline.backend),
            "planner": pipeline.optimize,
            "coalesce": pipeline.coalesce,
            "views": list(pipeline.view_names()),
            "max_frame_bytes": self.max_frame_bytes,
        }

    # -- query execution --------------------------------------------------------------

    def _cancel(self, connection_id: int, request_id: Any) -> None:
        if isinstance(request_id, (list, dict)):
            return  # an unhashable id names no request
        deadline = self._active.get((connection_id, request_id))
        if deadline is not None:
            deadline.cancel()

    async def _handle_query(
        self, connection_id: int, frame: Dict[str, Any], send: Callable[[Dict[str, Any]], Any]
    ) -> None:
        request_id = frame.get("id")
        deadline: Optional[Deadline] = None
        try:
            args = QUERY.arguments(frame)
            # The client policy's remaining deadline, capped by the server's.
            cap = self.max_query_seconds
            seconds = min(args.get("timeout_seconds", cap), cap)
            deadline = Deadline(max(0.0, seconds))
            limits = QueryLimits(deadline=deadline, row_budget=args.get("max_result_rows"))
            chunk_rows = args.get("chunk_rows", self.chunk_rows)
            if chunk_rows < 1:
                raise ProtocolError(f"query chunk_rows must be positive, got {chunk_rows}")
            statistics: Dict[str, int] = {}
            schema_version = self._pipeline.database.schema_version
            key = (connection_id, request_id)
            self._active[key] = deadline
            try:
                table = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    functools.partial(
                        QUERY.run,
                        self._pipeline,
                        args["plan"],
                        statistics,
                        args.get("backend"),
                        args.get("final_coalesce", False),
                        limits,
                    ),
                )
            finally:
                self._active.pop(key, None)
            statistics["server.schema_version"] = schema_version
            await send(
                {
                    "type": "result_header",
                    "id": request_id,
                    "name": table.name,
                    "schema": list(table.schema),
                }
            )
            rows = table.rows
            for start in range(0, len(rows), chunk_rows):
                if deadline.cancelled:
                    raise QueryTimeoutError("result streaming cancelled")
                chunk = [list(row) for row in rows[start:start + chunk_rows]]
                await send({"type": "row_chunk", "id": request_id, "rows": chunk})
            await send(
                {
                    "type": "result_end",
                    "id": request_id,
                    "rows": len(rows),
                    "statistics": statistics,
                }
            )
        except Exception as error:  # noqa: BLE001 - a request always gets an answer
            # Whatever failed -- decoding the frame, the engine (any class:
            # a ZeroDivisionError in a user expression is not a ReproError),
            # encoding a row chunk mid-stream -- this request ends with an
            # error frame and the connection stays usable; a silent task
            # death would leave the client blocked on its next read.
            cancelled = deadline.cancelled if deadline is not None else False
            await send(error_to_frame(error, request_id, cancelled=cancelled))

    # -- request/response verbs -------------------------------------------------------------------

    async def _handle_verb(
        self, frame: Dict[str, Any], send: Callable[[Dict[str, Any]], Any]
    ) -> None:
        request_id = frame.get("id")
        try:
            verb = VERBS.get(frame.get("type"))
            if verb is None:
                raise ProtocolError(f"unknown message type {frame.get('type')!r}")
            serve = functools.partial(verb.serve, self._pipeline, frame)
            if verb.pooled:
                # Executes plans or propagates deltas: keep the event loop
                # responsive.
                payload = await asyncio.get_running_loop().run_in_executor(
                    self._executor, serve
                )
            else:
                payload = serve()
            await send({"type": "ok", "id": request_id, **payload})
        except Exception as error:  # noqa: BLE001 - as in _handle_query
            await send(error_to_frame(error, request_id))
