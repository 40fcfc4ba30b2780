"""Many clients on one server: shared plan cache, parallel parity, cancellation."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import QueryServer, connect
from repro.algebra.operators import RelationAccess
from repro.engine.table import Table
from repro.errors import QueryTimeoutError
from repro.execution import register_backend
from repro.server.plans import plan_to_json
from repro.server.protocol import FrameDecoder, encode_frame

ROWS = [(key, f"cat{key % 3}", key * 2, key % 10, key % 10 + 5) for key in range(40)]


@pytest.fixture(scope="module")
def server():
    with QueryServer(connect(domain=(0, 32)), max_workers=8) as running:
        running.session.load("events", ["key", "cat", "val"], ROWS)
        yield running


class TestConcurrentClients:
    def test_eight_clients_share_one_warm_plan_cache(self, server):
        server.session.clear_plan_cache()
        results, errors = {}, []
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            try:
                with connect(server.url) as session:
                    chain = (
                        session.table("events")
                        .where("val > 10")
                        .group_by("cat")
                        .agg(cnt="count(*)")
                    )
                    barrier.wait(timeout=30)
                    for _ in range(3):
                        results.setdefault(index, []).append(sorted(chain.rows()))
            except Exception as error:  # noqa: BLE001 - surfaced via the list
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        reference = results[0][0]
        assert all(rows == reference for runs in results.values() for rows in runs)
        info = server.session.cache_info()
        # 8 clients x 3 runs of one structurally identical query: exactly one
        # rewrite happened; everyone else reused it.
        assert info.misses >= 1
        assert info.hits >= 24 - info.misses
        assert info.hits > 0

    def test_interleaved_queries_multiplex_one_connection_handler(self, server):
        with connect(server.url) as first, connect(server.url) as second:
            for _ in range(5):
                a = first.table("events").where("key < 5").rows()
                b = second.table("events").where("key >= 5").rows()
                assert len(a) + len(b) == len(ROWS)


class _StallingBackend:
    """Executes nothing: polls the deadline until cancelled (or timed out)."""

    name = "stall_for_test"
    started = threading.Event()

    def execute(self, plan, database, statistics=None, limits=None) -> Table:
        self.started.set()
        assert limits is not None and limits.deadline is not None
        while True:
            time.sleep(0.005)
            limits.deadline.poll()


register_backend(_StallingBackend.name, _StallingBackend)


class _RawClient:
    """A bare-frames client for driving the protocol below the session."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.decoder = FrameDecoder()
        self.send({"type": "hello", "protocol": 1})
        assert self.recv()["type"] == "welcome"

    def send(self, message: dict) -> None:
        self.sock.sendall(encode_frame(message))

    def recv(self) -> dict:
        while True:
            frame = self.decoder.next_frame()
            if frame is not None:
                return frame
            data = self.sock.recv(65536)
            assert data, "server closed the connection"
            self.decoder.feed(data)

    def close(self) -> None:
        self.sock.close()


class TestHostileFrames:
    def query(self, chunk_rows) -> dict:
        return {
            "type": "query",
            "id": 1,
            "plan": plan_to_json(RelationAccess("events")),
            "chunk_rows": chunk_rows,
        }

    @pytest.mark.parametrize("chunk_rows", [-5, 0, 2.5, "7", True])
    def test_hostile_chunk_rows_is_a_protocol_error(self, server, chunk_rows):
        """Not a header, no rows and a ``result_end`` announcing all of them."""
        client = _RawClient(server.host, server.port)
        try:
            client.send(self.query(chunk_rows))
            frame = client.recv()
            assert (frame["type"], frame["id"]) == ("error", 1)
            assert frame["code"] == "ProtocolError" and "chunk_rows" in frame["message"]
            client.send({"type": "ping", "id": 2})  # the connection survives
            assert client.recv()["type"] == "ok"
        finally:
            client.close()

    def test_a_type_outside_the_verb_table_is_a_protocol_error(self, server):
        client = _RawClient(server.host, server.port)
        try:
            client.send({"type": "shutdown", "id": 1})
            frame = client.recv()
            assert (frame["type"], frame["code"]) == ("error", "ProtocolError")
            assert "unknown message type 'shutdown'" in frame["message"]
        finally:
            client.close()

    def test_chunk_rows_sets_the_rows_per_chunk(self, server):
        client = _RawClient(server.host, server.port)
        try:
            client.send(self.query(7))
            assert client.recv()["type"] == "result_header"
            chunks = []
            while (frame := client.recv())["type"] == "row_chunk":
                chunks.append(len(frame["rows"]))
            assert chunks == [7, 7, 7, 7, 7, 5]
            assert (frame["type"], frame["rows"]) == ("result_end", len(ROWS))
        finally:
            client.close()


class TestCancellation:
    def test_cancel_frame_aborts_an_inflight_query(self, server):
        client = _RawClient(server.host, server.port)
        try:
            _StallingBackend.started.clear()
            client.send(
                {
                    "type": "query",
                    "id": 1,
                    "plan": plan_to_json(RelationAccess("events")),
                    "backend": _StallingBackend.name,
                    "timeout_seconds": 60,
                }
            )
            assert _StallingBackend.started.wait(timeout=10), "query never started"
            client.send({"type": "cancel", "id": 1})
            frame = client.recv()
            assert frame["type"] == "error"
            assert frame["id"] == 1
            assert frame["code"] == "QueryTimeoutError"
            assert frame["cancelled"] is True
            assert "cancelled" in frame["message"]
            # The connection survives cancellation: next request works.
            client.send({"type": "tables", "id": 2})
            assert client.recv()["tables"] == ["events"]
        finally:
            client.close()

    def test_cancelling_an_unknown_id_is_a_noop(self, server):
        client = _RawClient(server.host, server.port)
        try:
            client.send({"type": "cancel", "id": 999})
            client.send({"type": "ping", "id": 3})
            assert client.recv()["type"] == "ok"
        finally:
            client.close()

    def test_client_disconnect_cancels_inflight_queries(self, server):
        client = _RawClient(server.host, server.port)
        _StallingBackend.started.clear()
        client.send(
            {
                "type": "query",
                "id": 1,
                "plan": plan_to_json(RelationAccess("events")),
                "backend": _StallingBackend.name,
                "timeout_seconds": 60,
            }
        )
        assert _StallingBackend.started.wait(timeout=10)
        client.close()
        # The worker thread must be released promptly (not after 60s):
        # the vanished connection expires the query's deadline.
        deadline = time.monotonic() + 10
        while server._active and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not server._active

    def test_cooperative_deadline_without_cancel(self, server):
        with connect(server.url) as session:
            from repro.execution import ExecutionPolicy

            policy = ExecutionPolicy(timeout_seconds=0.2)
            with pytest.raises(QueryTimeoutError):
                session.execute(
                    RelationAccess("events"),
                    backend=_StallingBackend.name,
                    policy=policy,
                )


class TestEveryFailureIsAnswered:
    """Whatever fails while running or streaming a request, the client hears of it.

    An exception class the server did not anticipate used to kill the
    request's task silently: no frame was sent and the client blocked on its
    next read for ever.  Each case reads with a 5 s deadline, so a
    regression fails instead of hanging.
    """

    @pytest.fixture(scope="class")
    def failing(self):
        with QueryServer(connect(domain=(0, 32)), chunk_rows=7) as running:
            session = running.session
            session.load("ratios", ["a", "b"], [(6, 3, 0, 4), (1, 0, 2, 6)])
            # Row 20 of 40 carries a value JSON cannot encode.
            session.load(
                "odd", ["key", "val"], [(key, 1j if key == 20 else key, 0, 4) for key in range(40)]
            )
            yield running

    @pytest.fixture
    def client(self, failing):
        client = _RawClient(failing.host, failing.port)
        client.sock.settimeout(5)
        yield client
        client.close()

    @staticmethod
    def division(server) -> dict:
        """``a / b`` over a table with one zero divisor: a ZeroDivisionError in the engine."""
        return plan_to_json(server.session.table("ratios").select(q="a / b").plan)

    def assert_answered_and_usable(self, client, request_id, mentions) -> None:
        frame = client.recv()
        assert (frame["type"], frame["id"], frame["code"]) == ("error", request_id, "BackendError")
        assert mentions in frame["message"]
        client.send({"type": "ping", "id": request_id + 1})
        assert client.recv() == {"type": "ok", "id": request_id + 1}

    def test_an_unanticipated_engine_error_ends_the_query(self, failing, client):
        client.send({"type": "query", "id": 1, "plan": self.division(failing)})
        self.assert_answered_and_usable(client, 1, "division by zero")

    def test_an_unanticipated_error_in_a_pooled_verb(self, failing, client):
        client.send({"type": "materialize", "id": 1, "name": "q", "plan": self.division(failing)})
        self.assert_answered_and_usable(client, 1, "division by zero")

    def test_a_row_that_cannot_be_encoded_ends_the_stream(self, failing, client):
        client.send({"type": "query", "id": 1, "plan": plan_to_json(RelationAccess("odd"))})
        assert client.recv()["type"] == "result_header"
        assert [len(client.recv()["rows"]) for _ in range(2)] == [7, 7]
        self.assert_answered_and_usable(client, 1, "not JSON serializable")

    def test_the_session_raises_instead_of_hanging(self, failing):
        from repro.errors import BackendError
        from repro.execution import ExecutionPolicy

        with connect(failing.url, policy=ExecutionPolicy(timeout_seconds=5)) as session:
            with pytest.raises(BackendError, match="division by zero"):
                session.table("ratios").select(q="a / b").rows()
            assert session.ping()
