"""The asyncio temporal query server.

:class:`QueryServer` multiplexes many client connections over **one**
shared catalog and :class:`~repro.rewriter.pipeline.QueryPipeline`: every
request is rewritten through the same structural-hash plan cache (so one
client's cold query is every other client's warm hit), executes in a
worker-thread pool so the event loop stays responsive, and is governed by a
per-request deadline + row budget (the client's
:class:`~repro.execution.ExecutionPolicy` limits, capped by
``max_query_seconds``).

Consistency: a request observes :attr:`Database.schema_version` once, at
rewrite time -- the plan cache keys on it, so a request rewritten under
version *v* never executes a plan cached under a different catalog shape;
the observed version is reported back as ``server.schema_version`` in the
statistics.

Cancellation reuses the fault-tolerance substrate: the event loop holds the
request's :class:`~repro.execution.Deadline` and a ``cancel`` frame expires
it (:meth:`~repro.execution.Deadline.cancel`), so the in-memory engine's
cooperative polls and SQLite's progress handler double as the cancellation
path; a cancelled request answers with an error frame marked
``cancelled``.

The server runs its event loop on a dedicated daemon thread so synchronous
callers (tests, benchmarks, examples) can drive it with plain
``start()`` / ``stop()`` or a ``with`` block::

    with QueryServer(domain=(0, 24)) as server:
        session = connect(server.url)      # a RemoteSession
        ...
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ProtocolError, QueryTimeoutError, ReproError
from ..execution import Deadline, QueryLimits
from ..rewriter.pipeline import QueryPipeline
from .plans import plan_from_json, plan_to_json
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_to_frame,
    read_frame_length,
)

__all__ = ["QueryServer", "DEFAULT_PORT"]

#: Default TCP port of ``repro://host`` DSNs without an explicit port.
DEFAULT_PORT = 7464

#: Keyword arguments a remote ``check`` request may pass through to
#: :func:`repro.conformance.check_conformance` (the JSON-able subset).
_CHECK_OPTIONS = (
    "backends",
    "optimize_modes",
    "points",
    "max_points",
    "minimize",
    "shrink_budget",
)


def _deltas_from_json(payload: Any) -> list:
    """Decode the wire form of view deltas: ``[{relation, entries}, ...]``.

    Each entry is a ``[row, weight]`` pair; rows come back as JSON arrays
    and are restored to tuples (matching the plan codec's row fidelity).
    """
    from ..incremental import Delta

    if not isinstance(payload, list):
        raise ProtocolError("view_apply deltas must be a list")
    deltas = []
    for item in payload:
        if not isinstance(item, dict) or "relation" not in item:
            raise ProtocolError(f"malformed delta payload: {item!r}")
        entries = [
            (tuple(row), int(weight)) for row, weight in item.get("entries", ())
        ]
        deltas.append(Delta(item["relation"], entries))
    return deltas


@dataclass
class _ActiveQuery:
    """Event-loop-side handle on one in-flight request."""

    deadline: Deadline


class QueryServer:
    """A TCP query server over one shared session pipeline.

    Build it over an existing :class:`~repro.api.Session` (sharing its
    catalog and plan cache with in-process callers) or from session
    arguments (``domain=``, ``backend=``, ``planner=``, ``database=``, ...)
    to own a fresh one.  ``port=0`` (the default) binds an ephemeral port,
    published as :attr:`port` / :attr:`url` once started.
    """

    def __init__(
        self,
        session: Optional[Any] = None,
        *,
        domain: Optional[Any] = None,
        database: Optional[Any] = None,
        backend: Optional[str] = "memory",
        planner: "bool | str" = True,
        coalesce: str = "final",
        use_temporal_aggregate: bool = True,
        plan_cache: bool = True,
        executor: str = "row",
        parallel_workers: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: Optional[int] = None,
        chunk_rows: int = 1024,
        max_query_seconds: float = 300.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if session is None:
            if domain is None:
                raise ValueError("QueryServer needs a session or a domain")
            from ..api import connect

            session = connect(
                domain=domain,
                backend=backend,
                planner=planner,
                coalesce=coalesce,
                use_temporal_aggregate=use_temporal_aggregate,
                database=database,
                plan_cache=plan_cache,
                executor=executor,
                parallel_workers=parallel_workers,
            )
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
        self._active: Dict[Tuple[int, int], _ActiveQuery] = {}
        self._connection_ids = itertools.count(1)

    # -- introspection ----------------------------------------------------------------

    @property
    def session(self) -> Any:
        """The local session the server multiplexes (shared pipeline)."""
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
        for entry in list(self._active.values()):
            entry.deadline.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling ----------------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
        try:
            header = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        length = read_frame_length(header, self.max_frame_bytes)
        payload = await reader.readexactly(length)
        return decode_frame(payload)

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
        lock = asyncio.Lock()
        tasks: set = set()
        try:
            hello = await self._read_frame(reader)
            if hello is None:
                return
            if hello.get("type") != "hello":
                await self._send(
                    writer,
                    lock,
                    error_to_frame(
                        ProtocolError(
                            f"expected a hello frame, got {hello.get('type')!r}"
                        )
                    ),
                )
                return
            await self._send(writer, lock, self._welcome())
            while True:
                try:
                    frame = await self._read_frame(reader)
                except ProtocolError as error:
                    # Framing is broken beyond this point: report and hang up.
                    await self._send(writer, lock, error_to_frame(error))
                    return
                if frame is None:
                    return
                kind = frame.get("type")
                if kind == "query":
                    task = asyncio.ensure_future(
                        self._handle_query(connection_id, frame, writer, lock)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind == "cancel":
                    self._cancel(connection_id, frame.get("id"))
                else:
                    await self._handle_simple(frame, writer, lock)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A vanished client must not pin worker threads: expire every
            # deadline its in-flight queries still hold.
            for (conn, qid), entry in list(self._active.items()):
                if conn == connection_id:
                    entry.deadline.cancel()
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
        backend = pipeline.backend
        backend_name = getattr(backend, "name", backend) or "memory"
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server": f"repro-server/{_version}",
            "domain": [pipeline.domain.min_point, pipeline.domain.max_point],
            "tables": list(pipeline.database.names()),
            "backend": backend_name,
            "planner": pipeline.optimize,
            "coalesce": pipeline.coalesce,
            "executor": pipeline.executor,
            "views": list(pipeline.view_names()),
            "max_frame_bytes": self.max_frame_bytes,
        }

    # -- query execution --------------------------------------------------------------

    def _cancel(self, connection_id: int, request_id: Any) -> None:
        entry = self._active.get((connection_id, request_id))
        if entry is not None:
            entry.deadline.cancel()

    async def _handle_query(
        self,
        connection_id: int,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        request_id = frame.get("id")
        deadline: Optional[Deadline] = None
        try:
            plan = plan_from_json(frame["plan"])
            final_coalesce = bool(frame.get("final_coalesce", False))
            backend = frame.get("backend")
            if backend is not None and not isinstance(backend, str):
                raise ProtocolError("query backend override must be a backend name")
            executor = frame.get("executor")
            if executor is not None and executor not in ("row", "batch"):
                raise ProtocolError(
                    f"query executor override must be 'row' or 'batch', got {executor!r}"
                )
            timeout = frame.get("timeout_seconds")
            seconds = (
                min(float(timeout), self.max_query_seconds)
                if timeout is not None
                else self.max_query_seconds
            )
            deadline = Deadline(max(0.0, seconds))
            limits = QueryLimits(
                deadline=deadline, row_budget=frame.get("max_result_rows")
            )
            chunk_rows = int(frame.get("chunk_rows") or self.chunk_rows)
            statistics: Dict[str, int] = {}
            schema_version = self._pipeline.database.schema_version
            key = (connection_id, request_id)
            self._active[key] = _ActiveQuery(deadline)
            try:
                table = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    functools.partial(
                        self._pipeline.execute_limited,
                        plan,
                        statistics,
                        backend,
                        final_coalesce,
                        limits,
                        executor,
                    ),
                )
            finally:
                self._active.pop(key, None)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            cancelled = deadline.cancelled if deadline is not None else False
            await self._send(
                writer, lock, error_to_frame(error, request_id, cancelled=cancelled)
            )
            return
        statistics["server.schema_version"] = schema_version
        await self._send(
            writer,
            lock,
            {
                "type": "result_header",
                "id": request_id,
                "name": table.name,
                "schema": list(table.schema),
            },
        )
        rows = table.rows
        for start in range(0, len(rows), chunk_rows):
            if deadline.cancelled:
                await self._send(
                    writer,
                    lock,
                    error_to_frame(
                        QueryTimeoutError("result streaming cancelled"),
                        request_id,
                        cancelled=True,
                    ),
                )
                return
            chunk = rows[start:start + chunk_rows]
            await self._send(
                writer,
                lock,
                {
                    "type": "row_chunk",
                    "id": request_id,
                    "rows": [list(row) for row in chunk],
                },
            )
        await self._send(
            writer,
            lock,
            {
                "type": "result_end",
                "id": request_id,
                "rows": len(rows),
                "statistics": statistics,
            },
        )

    # -- simple request/response handlers ---------------------------------------------

    async def _handle_simple(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        kind = frame.get("type")
        request_id = frame.get("id")
        try:
            if kind in ("explain", "check", "materialize", "view_apply",
                        "view_verify", "insert", "delete", "analyze"):
                # These execute queries or propagate deltas through plans;
                # keep the event loop responsive.
                payload = await asyncio.get_running_loop().run_in_executor(
                    self._executor, functools.partial(self._run_simple, frame)
                )
            else:
                payload = self._run_simple(frame)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            await self._send(writer, lock, error_to_frame(error, request_id))
            return
        message = {"type": "ok", "id": request_id}
        message.update(payload)
        await self._send(writer, lock, message)

    def _run_simple(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        kind = frame.get("type")
        pipeline = self._pipeline
        if kind == "ping":
            return {}
        if kind == "tables":
            return {"tables": list(pipeline.database.names())}
        if kind == "load":
            rows = [tuple(row) for row in frame["rows"]]
            period = tuple(frame.get("period") or ("t_begin", "t_end"))
            pipeline.load_table(frame["name"], frame["schema"], rows, period)
            return {}
        if kind == "cache_info":
            info = pipeline.cache_info()
            return {"hits": info.hits, "misses": info.misses, "size": info.size}
        if kind == "clear_cache":
            pipeline.clear_plan_cache()
            return {}
        if kind == "execution_info":
            info = pipeline.execution_info()
            return {
                "retries": info.retries,
                "timeouts": info.timeouts,
                "fallbacks": info.fallbacks,
            }
        if kind == "explain":
            from ..api.relation import TemporalRelation

            relation = TemporalRelation(
                self._session,
                plan_from_json(frame["plan"]),
                bool(frame.get("final_coalesce", False)),
            )
            return {"text": self._session.explain_relation(relation)}
        if kind == "check":
            return {"report": self._run_check(frame)}
        if kind == "insert":
            pipeline.database.insert(
                frame["name"], [tuple(row) for row in frame["rows"]]
            )
            return {}
        if kind == "delete":
            pipeline.database.delete(
                frame["name"], [tuple(row) for row in frame["rows"]]
            )
            return {}
        if kind == "materialize":
            view = pipeline.materialize(
                plan_from_json(frame["plan"]),
                frame["name"],
                final_coalesce=bool(frame.get("final_coalesce", False)),
            )
            return {
                "name": view.name,
                "schema": list(view.schema),
                "rows": len(view),
                "base_relations": sorted(view.base_relations),
            }
        if kind == "view_apply":
            view = pipeline.view(frame["name"])
            statistics: Dict[str, int] = {}
            view.apply(_deltas_from_json(frame["deltas"]), statistics)
            return {"rows": len(view), "counters": statistics}
        if kind == "view_rows":
            view = pipeline.view(frame["name"])
            return {
                "schema": list(view.schema),
                "rows": [list(row) for row in view.rows()],
            }
        if kind == "view_info":
            if "name" not in frame:
                return {"views": list(pipeline.view_names())}
            view = pipeline.view(frame["name"])
            return {
                "name": view.name,
                "schema": list(view.schema),
                "rows": len(view),
                "stale": view.stale,
                "base_relations": sorted(view.base_relations),
                "counters": dict(view.counters),
            }
        if kind == "view_verify":
            return {"ok": pipeline.view(frame["name"]).verify()}
        if kind == "analyze":
            collected = pipeline.database.analyze(frame.get("name"))
            return {
                "statistics": {
                    name: stats.to_dict() for name, stats in collected.items()
                }
            }
        if kind == "drop_view":
            pipeline.drop_view(frame["name"])
            return {}
        raise ProtocolError(f"unknown message type {kind!r}")

    def _run_check(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        options = frame.get("options") or {}
        unknown = set(options) - set(_CHECK_OPTIONS)
        if unknown:
            raise ProtocolError(
                f"unsupported check option(s) {sorted(unknown)}; remote check "
                f"accepts {list(_CHECK_OPTIONS)}"
            )
        report = self._session.check(plan_from_json(frame["plan"]), **options)
        payload: Dict[str, Any] = {
            "checks": report.checks,
            "points": list(report.points),
            "configurations": [list(pair) for pair in report.configurations],
            "counterexample": None,
        }
        witness = report.counterexample
        if witness is not None:
            payload["counterexample"] = {
                "backend": witness.backend,
                "optimize": witness.optimize,
                "point": witness.point,
                "query": plan_to_json(witness.query),
                "tables": {
                    name: [list(row) for row in rows]
                    for name, rows in witness.tables.items()
                },
                "expected": [
                    [list(row), count] for row, count in witness.expected.items()
                ],
                "actual": [
                    [list(row), count] for row, count in witness.actual.items()
                ],
                "error": witness.error,
                "shrink_checks": witness.shrink_checks,
            }
        return payload
