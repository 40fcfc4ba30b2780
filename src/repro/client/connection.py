"""The blocking socket under :class:`~repro.client.WireTransport`.

:class:`RemoteConnection` owns one TCP socket speaking the length-prefixed
JSON protocol of :mod:`repro.server.protocol`.  Its failure mapping is the
contract that makes client-side fault tolerance work:

* **transport failures** (refused/dropped connections, resets, socket
  timeouts, truncated streams) raise
  :class:`~repro.errors.BackendUnavailableError` -- *transient*, so an
  :class:`~repro.execution.ExecutionPolicy` retries and fails over exactly
  as it would against a flaky local backend.  The socket is torn down and
  the next request transparently reconnects (and re-handshakes).
* **protocol violations** (corrupt framing, oversized frames, untyped
  messages) raise :class:`~repro.errors.ProtocolError` -- permanent;
  retrying a malformed conversation cannot help.
* **server-side errors** arrive as ``error`` frames and re-raise as the
  taxonomy class the server named (:func:`~repro.server.protocol.error_from_frame`);
  the connection stays usable.

One connection serves one session; a lock serialises requests so a session
object may be shared between threads (each request is a full
request/response exchange on the wire).
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BackendUnavailableError, ProtocolError
from ..server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_from_frame,
)

__all__ = ["RemoteConnection"]

#: Seconds added to a query's own deadline before the client gives up on the
#: socket -- covers scheduling and streaming slack on a live but busy server.
READ_GRACE_SECONDS = 30.0


class RemoteConnection:
    """One reconnecting client socket to a :class:`~repro.server.QueryServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.max_frame_bytes = max_frame_bytes
        self.welcome: Optional[Dict[str, Any]] = None
        self._socket: Optional[socket.socket] = None
        self._decoder = FrameDecoder(max_frame_bytes)
        self._lock = threading.Lock()
        self._request_ids = iter(range(1, 2**63))

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Drop the socket.  Idempotent; the next request reconnects."""
        sock, self._socket = self._socket, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def ensure_connected(self) -> Dict[str, Any]:
        """Connect + handshake if needed; returns the server's welcome frame."""
        if self._socket is not None:
            assert self.welcome is not None
            return self.welcome
        self._decoder = FrameDecoder(self.max_frame_bytes)
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot reach repro server at {self.host}:{self.port}: {exc}"
            ) from exc
        self._socket = sock
        try:
            self._send_raw({"type": "hello", "protocol": PROTOCOL_VERSION})
            welcome = self._recv_frame(deadline_seconds=self.connect_timeout)
            if welcome.get("type") == "error":
                raise error_from_frame(welcome)
            if welcome.get("type") != "welcome":
                raise ProtocolError(
                    f"expected a welcome frame, got {welcome.get('type')!r}"
                )
            if welcome.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol {welcome.get('protocol')!r}, "
                    f"client speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            self.close()
            raise
        self.welcome = welcome
        return welcome

    # -- raw I/O ----------------------------------------------------------------------

    def _broken(self, exc: BaseException) -> BackendUnavailableError:
        self.close()
        return BackendUnavailableError(
            f"connection to repro server at {self.host}:{self.port} failed: {exc}"
        )

    def _send_raw(self, message: Dict[str, Any]) -> None:
        assert self._socket is not None
        frame = encode_frame(message, self.max_frame_bytes)
        try:
            self._socket.sendall(frame)
        except OSError as exc:
            raise self._broken(exc) from exc

    def _recv_frame(self, deadline_seconds: Optional[float]) -> Dict[str, Any]:
        assert self._socket is not None
        self._socket.settimeout(deadline_seconds)
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                return frame
            try:
                data = self._socket.recv(65536)
            except OSError as exc:
                raise self._broken(exc) from exc
            if not data:
                raise self._broken(ConnectionError("server closed the connection"))
            self._decoder.feed(data)

    # -- request/response -------------------------------------------------------------

    def request(
        self, message: Dict[str, Any], deadline_seconds: Optional[float] = None
    ) -> Dict[str, Any]:
        """One simple exchange: send, await the ``ok`` (or raise the error)."""
        with self._lock:
            self.ensure_connected()
            request_id = next(self._request_ids)
            message = dict(message, id=request_id)
            self._send_raw(message)
            frame = self._recv_frame(self._read_timeout(deadline_seconds))
            if frame.get("type") == "error":
                raise error_from_frame(frame)
            return frame

    def run_query(
        self, message: Dict[str, Any], deadline_seconds: Optional[float] = None
    ) -> Tuple[str, Tuple[str, ...], List[Tuple[Any, ...]], Dict[str, int]]:
        """One streamed query: send, collect header + chunks + trailer.

        Returns ``(name, schema, rows, statistics)``; an ``error`` frame at
        any point re-raises the server's taxonomy exception.
        """
        with self._lock:
            self.ensure_connected()
            request_id = next(self._request_ids)
            message = dict(message, id=request_id)
            self._send_raw(message)
            timeout = self._read_timeout(deadline_seconds)
            header = self._recv_frame(timeout)
            if header.get("type") == "error":
                raise error_from_frame(header)
            if header.get("type") != "result_header":
                raise ProtocolError(
                    f"expected result_header, got {header.get('type')!r}"
                )
            name = header.get("name") or "result"
            schema = tuple(header.get("schema") or ())
            rows: List[Tuple[Any, ...]] = []
            while True:
                frame = self._recv_frame(timeout)
                kind = frame.get("type")
                if kind == "row_chunk":
                    rows.extend(tuple(row) for row in frame.get("rows", ()))
                elif kind == "result_end":
                    if frame.get("rows") != len(rows):
                        raise ProtocolError(
                            f"result stream announced {frame.get('rows')!r} rows "
                            f"but carried {len(rows)}"
                        )
                    return name, schema, rows, frame.get("statistics") or {}
                elif kind == "error":
                    raise error_from_frame(frame)
                else:
                    raise ProtocolError(
                        f"unexpected frame {kind!r} inside a result stream"
                    )

    def _read_timeout(self, deadline_seconds: Optional[float]) -> Optional[float]:
        if deadline_seconds is None:
            return None
        return max(0.1, deadline_seconds) + READ_GRACE_SECONDS
