"""Unit tests for the wire protocol: framing, plan codec, error mapping."""

from __future__ import annotations

import json

import pytest

from repro.algebra.expressions import (
    Arithmetic,
    Attribute,
    BooleanOp,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    Not,
)
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.api.relation import FluentError
from repro.errors import (
    BackendError,
    BackendUnavailableError,
    ParseError,
    PlanError,
    ProtocolError,
    QueryTimeoutError,
    ResourceLimitError,
    is_transient,
)
from repro.server.codec import (
    expression_from_json,
    expression_to_json,
    plan_from_json,
    plan_to_json,
)
from repro.server.protocol import (
    FrameDecoder,
    decode_frame,
    encode_frame,
    error_from_frame,
    error_to_frame,
    read_frame_length,
)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "query", "id": 7, "plan": {"op": "relation", "name": "R"}}
        frame = encode_frame(message)
        decoder = FrameDecoder()
        decoder.feed(frame)
        assert decoder.next_frame() == message
        assert decoder.next_frame() is None

    def test_incremental_feed_byte_by_byte(self):
        message = {"type": "ping", "payload": "x" * 100}
        frame = encode_frame(message)
        decoder = FrameDecoder()
        for i in range(len(frame) - 1):
            decoder.feed(frame[i:i + 1])
            assert decoder.next_frame() is None
        decoder.feed(frame[-1:])
        assert decoder.next_frame() == message

    def test_multiple_frames_in_one_buffer(self):
        first, second = {"type": "a"}, {"type": "b", "n": 2}
        decoder = FrameDecoder()
        decoder.feed(encode_frame(first) + encode_frame(second))
        assert decoder.next_frame() == first
        assert decoder.next_frame() == second
        assert decoder.next_frame() is None

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "x", "blob": "y" * 256}, max_bytes=64)

    def test_oversized_frame_rejected_before_buffering(self):
        # A hostile length word is rejected from the header alone -- the
        # decoder never waits for (or allocates) the announced body.
        decoder = FrameDecoder(max_bytes=64)
        decoder.feed((1 << 30).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_frame()

    def test_read_frame_length(self):
        assert read_frame_length((5).to_bytes(4, "big")) == 5
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame_length(b"\x00\x00")
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame_length((1 << 30).to_bytes(4, "big"), max_bytes=64)

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")

    def test_decode_rejects_untyped_messages(self):
        with pytest.raises(ProtocolError, match="not a typed message"):
            decode_frame(json.dumps({"no_type": 1}).encode())
        with pytest.raises(ProtocolError, match="not a typed message"):
            decode_frame(json.dumps([1, 2]).encode())


def _kitchen_sink_plan():
    """One plan exercising every wire-encodable operator and expression."""
    r = RelationAccess("R", alias="r1", period=("b", "e"))
    s = RelationAccess("S")
    const = ConstantRelation(("x", "t_begin", "t_end"), ((1, 0, 5), (None, 2, 9)))
    predicate = BooleanOp(
        "and",
        (
            Comparison(">", Attribute("r_val"), Literal(3)),
            Not(IsNull(Attribute("r_cat"), False)),
            IsNull(Attribute("r_cat"), True),
            Comparison(
                "=",
                Arithmetic("+", Attribute("r_val"), Literal(1)),
                FunctionCall("abs", (Literal(-4),)),
            ),
        ),
    )
    joined = Join(Selection(r, predicate), Rename(s, (("s_key", "k"),)), None)
    projected = Projection(
        joined, ((Attribute("r_key"), "key"), (Literal("tag"), "tag"))
    )
    unioned = Union(projected, projected)
    diffed = Difference(unioned, projected)
    aggregated = Aggregation(
        diffed,
        ("key",),
        (
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", Attribute("key"), "total"),
        ),
    )
    return Distinct(Union(aggregated, Aggregation(const, (), (AggregateSpec("count", None, "c"),))))


class TestPlanCodec:
    def test_kitchen_sink_round_trip_is_structurally_equal(self):
        plan = _kitchen_sink_plan()
        payload = plan_to_json(plan)
        # The wire format is honest JSON (what json.dumps can ship).
        decoded = plan_from_json(json.loads(json.dumps(payload)))
        assert decoded == plan
        # Hash equality is what makes decoded plans hit the same entries of
        # the server's structural plan cache as locally built ones.
        assert hash(decoded) == hash(plan)

    def test_expression_round_trip_none(self):
        assert expression_to_json(None) is None
        assert expression_from_json(None) is None

    def test_physical_operators_do_not_cross_the_wire(self):
        from repro.rewriter.operators import CoalesceOperator

        with pytest.raises(ProtocolError, match="not wire-encodable"):
            plan_to_json(CoalesceOperator(RelationAccess("R")))

    @pytest.mark.parametrize("strategy", ["nested_loop", 42, "bogus"])
    def test_a_join_frame_cannot_select_the_join_algorithm(self, strategy):
        """A peer's ``"strategy"`` key is dropped: the predicate decides."""
        from repro.engine import Database, execute

        join = Join(
            RelationAccess("l"), RelationAccess("r"), Comparison("=", Attribute("lk"), Attribute("rk"))
        )
        payload = {**plan_to_json(join), "strategy": strategy}
        decoded = plan_from_json(json.loads(json.dumps(payload)))
        assert decoded == join and hash(decoded) == hash(join)
        database = Database()
        database.create_table("l", ("lk", "lv"), [(i % 50, i) for i in range(300)])
        database.create_table("r", ("rk", "rv"), [(i % 50, i) for i in range(300)])
        statistics: dict = {}
        assert len(execute(decoded, database, statistics)) == 300 * 6
        assert statistics.get("join_strategy.hash") == 1
        assert "join_strategy.nested_loop" not in statistics

    def test_malformed_payloads(self):
        with pytest.raises(ProtocolError, match="malformed plan"):
            plan_from_json(["not", "a", "plan"])
        with pytest.raises(ProtocolError, match="unknown plan operator"):
            plan_from_json({"op": "teleport"})
        with pytest.raises(ProtocolError, match="missing field"):
            plan_from_json({"op": "relation"})
        with pytest.raises(ProtocolError, match="unknown expression kind"):
            expression_from_json({"e": "regex"})
        with pytest.raises(ProtocolError, match="malformed expression"):
            expression_from_json({"name": "x"})


class TestErrorFrames:
    @pytest.mark.parametrize(
        "error",
        [
            BackendUnavailableError("server down"),
            QueryTimeoutError("too slow"),
            ResourceLimitError("too big"),
            ProtocolError("bad frame"),
            ParseError("bad chain"),
            PlanError("bad plan"),
            BackendError("boom"),
        ],
    )
    def test_taxonomy_round_trip(self, error):
        rebuilt = error_from_frame(error_to_frame(error))
        assert type(rebuilt) is type(error)
        assert str(error) in str(rebuilt)
        assert is_transient(rebuilt) == is_transient(error)

    def test_subclasses_travel_as_their_public_ancestor(self):
        frame = error_to_frame(FluentError("unknown table"))
        assert frame["code"] == "ParseError"
        assert isinstance(error_from_frame(frame), ParseError)

    def test_backend_error_transient_flag_preserved(self):
        rebuilt = error_from_frame(error_to_frame(BackendError("flaky", transient=True)))
        assert isinstance(rebuilt, BackendError)
        assert is_transient(rebuilt)

    def test_request_id_and_cancelled_marker(self):
        frame = error_to_frame(QueryTimeoutError("query cancelled"), 42, cancelled=True)
        assert frame["id"] == 42
        assert frame["cancelled"] is True

    def test_unknown_code_degrades_to_backend_error(self):
        rebuilt = error_from_frame({"type": "error", "code": "Weird", "message": "m"})
        assert isinstance(rebuilt, BackendError)


class TestResultStreamIntegrity:
    def test_client_rejects_a_stream_shorter_than_it_announces(self, monkeypatch):
        """A fake server stream: one row arrives, ``result_end`` claims two."""
        from repro.client import RemoteConnection

        stream = iter(
            [
                {"type": "result_header", "id": 1, "name": "r", "schema": ["a"]},
                {"type": "row_chunk", "id": 1, "rows": [[1]]},
                {"type": "result_end", "id": 1, "rows": 2, "statistics": {}},
            ]
        )
        connection = RemoteConnection("nowhere", 0)
        monkeypatch.setattr(connection, "ensure_connected", lambda: {})
        monkeypatch.setattr(connection, "_send_raw", lambda message: None)
        monkeypatch.setattr(connection, "_recv_frame", lambda timeout: next(stream))
        with pytest.raises(ProtocolError, match="announced 2 rows but carried 1"):
            connection.run_query({"type": "query"})
