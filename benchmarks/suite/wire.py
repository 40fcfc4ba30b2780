"""The server side of the suite: a server process, and a traced wire client.

The server runs as its own process (``python -m repro.server``) so that the
load generator's interpreter lock is not the server's.  The suite picks the
port, starts the process with the options a user gets by default, and loads
tables over the wire.
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro import connect
from repro.server import PROTOCOL_VERSION, FrameDecoder, encode_frame, plan_to_json

from harness import Op
from spans import OP, SpanRecorder

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """``python -m repro.server`` on a port of the suite's choosing.

    With two or more processors available, the server is pinned to the first
    and the calling thread (and the client threads it starts later) to the
    rest, until ``stop``.  Left to the scheduler, server and load generator
    migrate and collide: identical runs then differ by 20 % in throughput
    (measured: 69-82 ops/s unpinned, 82-86 pinned).
    """

    def __init__(self, domain: Any) -> None:
        self._unpinned: Optional[Set[int]] = None
        self.port = _free_port()
        self.url = f"repro://127.0.0.1:{self.port}"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.normpath(SRC)] + [p for p in [environment.get("PYTHONPATH")] if p]
        )
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--port",
                str(self.port),
                "--domain",
                f"{domain.min_point}:{domain.max_point}",
            ],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self._pin()
            self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _pin(self) -> None:
        if not hasattr(os, "sched_setaffinity"):
            return
        processors = sorted(os.sched_getaffinity(0))
        if len(processors) >= 2:
            os.sched_setaffinity(self._process.pid, {processors[0]})
            os.sched_setaffinity(0, set(processors[1:]))
            self._unpinned = set(processors)

    def _await_listening(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"repro.server exited with code {self._process.returncode} during start-up"
                )
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro.server did not start listening in time")
                time.sleep(0.02)

    def connect(self) -> Any:
        return connect(self.url)

    def stop(self) -> None:
        """Terminate the server and wait until it has ended.  Idempotent."""
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
        self._process.wait()
        if self._unpinned is not None:
            os.sched_setaffinity(0, self._unpinned)
            self._unpinned = None


class TracedRemoteExecutor:
    """Runs an op over a socket of the suite's own, one span per wire step.

    ``client.encode`` (plan to JSON, frame encoding), ``server.wait`` (bytes
    sent until bytes arrive: the server's work plus both socket directions;
    opaque from here) and ``client.decode`` (frame parsing, rows to tuples)
    alternate until the terminal frame.  It speaks the same frames as
    ``RemoteSession`` through the protocol's public codec functions.
    """

    def __init__(self, host: str, port: int, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._decoder = FrameDecoder()
        self._socket = socket.create_connection((host, port), timeout=60.0)
        self._request_id = 0
        hello = encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})
        welcome = self._exchange(hello, lambda _name: contextlib.nullcontext())[-1]
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"expected a welcome frame, got {welcome!r}")

    def close(self) -> None:
        self._socket.close()

    def _exchange(self, payload: bytes, span: Callable[[str], Any]) -> List[Dict[str, Any]]:
        """Send one frame and collect the reply's frames up to the terminal one."""
        frames: List[Dict[str, Any]] = []
        with span("server.wait"):
            self._socket.sendall(payload)
            data = self._socket.recv(65536)
        while True:
            if not data:
                raise ConnectionError("server closed the connection")
            with span("client.decode"):
                terminal = self._drain(data, frames)
            if terminal:
                return frames
            with span("server.wait"):
                data = self._socket.recv(65536)

    def _drain(self, data: bytes, frames: List[Dict[str, Any]]) -> bool:
        self._decoder.feed(data)
        while True:
            frame = self._decoder.next_frame()
            if frame is None:
                return False
            kind = frame.get("type")
            if kind == "error":
                raise RuntimeError(f"server error frame: {frame}")
            if kind == "row_chunk":
                frame["rows"] = [tuple(row) for row in frame["rows"]]
            frames.append(frame)
            if kind in ("welcome", "ok", "result_end"):
                return True

    def __call__(self, op: Op) -> Optional[Sequence[Any]]:
        span = self._recorder.span
        self._request_id += 1
        with span(OP, op.cls):
            if op.kind == "read":
                with span("api.build"):
                    relation = op.build()
                with span("client.encode"):
                    payload = encode_frame(
                        {
                            "type": "query",
                            "plan": plan_to_json(relation.plan),
                            "final_coalesce": False,
                            "id": self._request_id,
                        }
                    )
                rows: List[Any] = []
                for frame in self._exchange(payload, span):
                    if frame["type"] == "row_chunk":
                        rows.extend(frame["rows"])
                return rows
            if op.kind in ("insert", "delete"):
                message = {
                    "type": op.kind,
                    "name": op.table,
                    "rows": [list(row) for row in op.rows],
                }
            elif op.kind == "view_rows":
                message = {"type": "view_rows", "name": op.view}
            else:
                raise ValueError(f"unknown op kind {op.kind!r}")
            with span("client.encode"):
                payload = encode_frame(dict(message, id=self._request_id))
            reply = self._exchange(payload, span)[-1]
            if op.kind == "view_rows":
                with span("client.decode"):
                    return [tuple(row) for row in reply["rows"]]
            return None
