"""Hostile request frames: refused at decode time, answered, survived.

Each malformed case below used to decode "fine": a string became two column
names, an object a row, ``2.5`` a weight of 2 -- or it decoded and failed
later, in the engine, as a :class:`~repro.errors.BackendError`, a code the
client's failover retries.  The codec now refuses every one of them at
decode time with a :class:`~repro.errors.ProtocolError` naming the field,
and the connection stays usable.  Absent and ``null`` mean the same for an
optional field: a ``join`` frame without ``predicate`` is a cross join.

The last test is a seeded mutation fuzzer over the golden request frames
(marker ``fuzz``, deselected from tier-1; CI runs it as its own step).
"""

from __future__ import annotations

import copy
import json
import socket
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryServer, connect
from repro.algebra.operators import Join, RelationAccess
from repro.client import RemoteConnection
from repro.errors import ProtocolError
from repro.server.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame

from tests.server.test_wire_golden import GOLDEN, ROWS

#: The ``code`` of every error frame the server may send.
TAXONOMY = {
    "BackendUnavailableError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "ProtocolError",
    "ParseError",
    "IncrementalError",
    "PlanError",
    "BackendError",
}

WORKS = {"op": "relation", "name": "works"}


@pytest.fixture(scope="module")
def server():
    with QueryServer(connect(domain=(0, 24))) as running:
        session = running.session
        session.load("works", ["name", "skill"], ROWS)
        session.load("shifts", ["shift"], [("early", 0, 12), ("late", 12, 24)])
        session.materialize(session.table("works").where("skill = 'SP'"), "sp")
        yield running


@pytest.fixture
def connection(server):
    connection = RemoteConnection(server.host, server.port)
    yield connection
    connection.close()


def _query(**fields):
    return {"type": "query", "plan": WORKS, **fields}


HOSTILE = {
    "a string where the schema list belongs": (
        {"type": "load", "name": "t", "schema": "ab", "rows": []},
        "load schema: expected a list, got 'ab'",
    ),
    "an object where a row belongs": (
        {"type": "insert", "name": "works", "rows": [{"a": 1}]},
        "insert rows: expected a list, got {'a': 1}",
    ),
    "a fractional delta weight": (
        {
            "type": "view_apply",
            "name": "sp",
            "deltas": [{"relation": "works", "entries": [[["Eve", "SP", 1, 2], 2.5]]}],
        },
        "view_apply deltas: Delta.entries: expected int, got 2.5",
    ),
    "a list where a relation name belongs": (
        _query(plan={"op": "relation", "name": ["x"]}),
        "query plan: RelationAccess.name: expected str, got ['x']",
    ),
    "an object where a literal belongs": (
        _query(
            plan={
                "op": "selection",
                "child": WORKS,
                "predicate": {
                    "e": "cmp",
                    "op": "<",
                    "left": {"e": "attr", "name": "skill"},
                    "right": {"e": "lit", "value": {"x": 1}},
                },
            }
        ),
        "Literal.value: expected a JSON scalar, got {'x': 1}",
    ),
    "a string where the row budget belongs": (
        _query(max_result_rows="5"),
        "query max_result_rows: expected int, got '5'",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_malformed_frame_is_a_protocol_error_at_decode_time(connection, case):
    frame, message = HOSTILE[case]
    with pytest.raises(ProtocolError) as refused:
        if frame["type"] == "query":
            connection.run_query(frame, 10.0)
        else:
            connection.request(frame, 10.0)
    assert message in str(refused.value)
    assert connection.request({"type": "ping"}, 10.0)["type"] == "ok"  # the connection survives


def test_a_join_frame_without_predicate_is_a_cross_join(server, connection):
    shifts = {"op": "relation", "name": "shifts"}
    frame = _query(plan={"op": "join", "left": WORKS, "right": shifts})
    _name, _schema, rows, _statistics = connection.run_query(frame, 10.0)
    expected = server.session.execute(Join(RelationAccess("works"), RelationAccess("shifts"))).rows
    assert rows and Counter(rows) == Counter(expected)


def _raw_exchange(server, payloads, until_id):
    """Send raw frame payloads after the handshake; what comes back up to ``until_id``'s ``ok``."""
    received = []
    decoder = FrameDecoder()
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        hello = json.dumps({"type": "hello", "protocol": PROTOCOL_VERSION}).encode()
        for payload in [hello, *payloads]:
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
        while not received or received[-1] != {"type": "ok", "id": until_id}:
            frame = decoder.next_frame()
            if frame is None:
                data = sock.recv(65536)
                assert data, f"the server hung up after {received}"
                decoder.feed(data)
            else:
                received.append(frame)
    assert received[0]["type"] == "welcome"
    return received[1:]


NESTINGS = {
    "past the JSON decoder": b"[" * 100_000 + b"]" * 100_000,
    "past the plan decoder": (
        b'{"op":"distinct","child":' * 600 + json.dumps(WORKS).encode() + b"}" * 600
    ),
}


@pytest.mark.parametrize("nesting", sorted(NESTINGS))
def test_a_too_deeply_nested_frame_gets_an_error_frame(server, nesting):
    deep = b'{"type":"materialize","id":1,"name":"deep","plan":' + NESTINGS[nesting] + b"}"
    ping = encode_frame({"type": "ping", "id": 2})[4:]
    error, pong = _raw_exchange(server, [deep, ping], until_id=2)
    assert (error["type"], error["code"]) == ("error", "ProtocolError")
    assert "nests too deeply" in error["message"]


def test_a_cancel_naming_an_unhashable_id_is_ignored(server):
    cancel = encode_frame({"type": "cancel", "id": [1]})[4:]
    ping = encode_frame({"type": "ping", "id": 2})[4:]
    assert _raw_exchange(server, [cancel, ping], until_id=2) == [{"type": "ok", "id": 2}]


# -- the fuzzer ------------------------------------------------------------------------------------

#: The golden conversation's request frames, handshake excluded.
REQUESTS = [json.loads(frame[4:]) for direction, frame in GOLDEN if direction == ">"][1:]

#: A value of each JSON type, for type swaps.
VALUES = [0, -3, 2.5, True, "x", None, [], ["a", 1], {}, {"k": 1}]

#: Stands in for a nesting spliced into the JSON text (too deep for ``json.dumps``).
_NEST = "\x00nest"


def _positions(value, path=()):
    """``(path, value)`` of every position below the root of a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,), item
        yield from _positions(item, path + (key,))


def _parent(frame, path):
    for key in path[:-1]:
        frame = frame[key]
    return frame


@st.composite
def mutated_frames(draw):
    """One golden request frame with one mutation, as frame payload bytes."""
    frame = copy.deepcopy(draw(st.sampled_from(REQUESTS)))
    positions = list(_positions(frame))
    lists = [path for path, value in positions if isinstance(value, list)]
    kind = draw(st.sampled_from(["swap", "null", "drop", "tag", "deep", "string"]))
    if kind == "tag":
        tags = [path for path, _ in positions if path[-1] in ("type", "op", "e")]
        path = draw(st.sampled_from(tags))
    elif kind == "string" and lists:
        path = draw(st.sampled_from(lists))
    else:
        path = draw(st.sampled_from([path for path, _ in positions]))
    parent, key = _parent(frame, path), path[-1]
    nest = ""
    if kind == "swap":
        parent[key] = draw(st.sampled_from([v for v in VALUES if type(v) is not type(parent[key])]))
    elif kind == "drop":
        del parent[key]
    elif kind == "tag":
        parent[key] = draw(st.sampled_from(["teleport", "hello", "cancel", ""]))
    elif kind == "deep":
        depth = draw(st.sampled_from([64, 400, 3000, 100_000]))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
        nest, parent[key] = opener * depth + "0" + closer * depth, _NEST
    else:
        parent[key] = "ab" if kind == "string" else None
    return json.dumps(frame).replace(json.dumps(_NEST), nest).encode()


@pytest.mark.fuzz
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(payload=mutated_frames())
def test_every_mutated_golden_frame_is_answered_and_the_connection_survives(server, payload):
    ping = encode_frame({"type": "ping", "id": "fuzz"})[4:]
    for reply in _raw_exchange(server, [payload, ping], until_id="fuzz"):
        assert reply["type"] in ("ok", "error", "result_header", "row_chunk", "result_end"), reply
        if reply["type"] == "error":
            assert reply["code"] in TAXONOMY, reply
