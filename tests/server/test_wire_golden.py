"""The wire format, pinned byte for byte.

One scripted conversation touches every verb of the session surface (plus
the handshake, one streamed query and one error frame); every frame that
crosses the socket is compared against the literals below.  The frozen
benchmark client (``benchmarks/suite/wire.py``) and any third-party client
speak these bytes, so a refactor of the session / server internals must
leave them alone.

Two directions are checked independently:

* ``test_session_speaks_the_golden_frames`` drives a ``repro://`` session and
  records what its connection sends and receives;
* ``test_server_answers_the_golden_frames`` replays the recorded request
  bytes over a bare socket -- no client code involved -- and compares the
  server's raw reply bytes.

Regenerate the literals (after an *intended* protocol change only) with
``PYTHONPATH=src python tests/server/test_wire_golden.py``.
"""

from __future__ import annotations

import json
import socket
from typing import List, Tuple

import pytest

from repro import ConformanceReport, Counterexample, Delta, QueryServer, connect
from repro.algebra.operators import RelationAccess
from repro.client import RemoteConnection, connection
from repro.engine.kernels import KERNEL_CUTOVER
from repro.errors import IncrementalError
from repro.server import core, plan_to_json, protocol
from repro.server.protocol import decode_frame, encode_frame

ROWS = [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)]

Transcript = List[Tuple[str, bytes]]


def _server() -> QueryServer:
    return QueryServer(connect(domain=(0, 24)))


def record(transcript: Transcript, monkeypatch) -> None:
    """Every frame a ``repro://`` connection sends or receives lands in ``transcript``."""
    send, receive = RemoteConnection._send_raw, RemoteConnection._recv_frame

    def recording_send(self, message):
        transcript.append((">", encode_frame(message)))
        return send(self, message)

    def recording_receive(self, deadline_seconds):
        frame = receive(self, deadline_seconds)
        transcript.append(("<", encode_frame(frame)))
        return frame

    monkeypatch.setattr(RemoteConnection, "_send_raw", recording_send)
    monkeypatch.setattr(RemoteConnection, "_recv_frame", recording_receive)


def converse(session) -> None:
    """The scripted conversation: every verb once, on any session."""
    assert session.ping()
    works = session.load("works", ["name", "skill"], ROWS)
    assert session.tables() == ["works"]
    chain = session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
    assert len(chain.rows()) == 3
    assert session.cache_info().misses == 1
    session.clear_plan_cache()
    assert session.server_execution_info().retries == 0
    assert "REWR plan:" in works.explain()
    assert works.check(backends=("memory",), max_points=2).ok
    session.insert("works", [("Sam", "SP", 8, 16)])
    session.delete("works", [("Joe", "NS", 8, 16)])
    view = session.materialize(works.where("skill = 'SP'"), "sp")
    assert session.views() == ("sp",)
    assert session.view("sp").schema == view.schema
    assert len(view.rows()) == 2
    view.apply([Delta.inserts("works", [("Eve", "SP", 1, 2)])])
    assert not view.verify()
    session.drop_view("sp")
    with pytest.raises(IncrementalError):
        session.view("sp")


GOLDEN: Transcript = [
    (
        '>',
        b'\x00\x00\x00\x1d{"type":"hello","protocol":1}',
    ),
    (
        '<',
        b'\x00\x00\x00\xa1{"type":"welcome","protocol":1,"server":"repro-server/1.0.0","domain":[0,24],"ta'
        b'bles":[],"backend":"memory","planner":true,"views":[],"max_frame_bytes":33554432}',
    ),
    (
        '>',
        b'\x00\x00\x00\x16{"type":"ping","id":1}',
    ),
    (
        '<',
        b'\x00\x00\x00\x14{"type":"ok","id":1}',
    ),
    (
        '>',
        b'\x00\x00\x00\x89{"type":"load","name":"works","schema":["name","skill"],"rows":[["Ann","SP",3,10'
        b'],["Joe","NS",8,16]],"period":["t_begin","t_end"],"id":2}',
    ),
    (
        '<',
        b'\x00\x00\x00\x14{"type":"ok","id":2}',
    ),
    (
        '>',
        b'\x00\x00\x00\x18{"type":"tables","id":3}',
    ),
    (
        '<',
        b'\x00\x00\x00\'{"type":"ok","id":3,"tables":["works"]}',
    ),
    (
        '>',
        b'\x00\x00\x00\x18{"type":"tables","id":4}',
    ),
    (
        '<',
        b'\x00\x00\x00\'{"type":"ok","id":4,"tables":["works"]}',
    ),
    (
        '>',
        b'\x00\x00\x01C{"type":"query","plan":{"op":"aggregation","child":{"op":"selection","child":{"o'
        b'p":"relation","name":"works","alias":null,"period":null},"predicate":{"e":"cmp","op"'
        b':"=","left":{"e":"attr","name":"skill"},"right":{"e":"lit","value":"SP"}}},"group_by'
        b'":[],"aggregates":[{"func":"count","argument":null,"alias":"cnt"}]},"id":5}',
    ),
    (
        '<',
        b'\x00\x00\x00T{"type":"result_header","id":5,"name":"coalesce","schema":["cnt","t_begin","t_en'
        b'd"]}',
    ),
    (
        '<',
        b'\x00\x00\x00?{"type":"row_chunk","id":5,"rows":[[0,0,3],[1,3,10],[0,10,24]]}',
    ),
    (
        '<',
        b'\x00\x00\x01\\{"type":"result_end","id":5,"rows":3,"statistics":{"rewrite.invocations":1,"plan'
        b'ner.pushdown_projection":1,"planner.projection_identity":1,"plan_cache.misses":1,"ex'
        b'ecutor.batch":1,"rows_filtered":1,"temporalaggregateoperator":1,"preaggregated_rows"'
        b':2,"coalesceoperator":1,"coalesce_input_rows":3,"coalesce_output_rows":3,"server.sch'
        b'ema_version":1}}',
    ),
    (
        '>',
        b'\x00\x00\x00\x1c{"type":"cache_info","id":6}',
    ),
    (
        '<',
        b'\x00\x00\x001{"type":"ok","id":6,"hits":0,"misses":1,"size":1}',
    ),
    (
        '>',
        b'\x00\x00\x00\x1d{"type":"clear_cache","id":7}',
    ),
    (
        '<',
        b'\x00\x00\x00\x14{"type":"ok","id":7}',
    ),
    (
        '>',
        b'\x00\x00\x00 {"type":"execution_info","id":8}',
    ),
    (
        '<',
        b'\x00\x00\x00;{"type":"ok","id":8,"retries":0,"timeouts":0,"fallbacks":0}',
    ),
    (
        '>',
        b'\x00\x00\x00\\{"type":"explain","plan":{"op":"relation","name":"works","alias":null,"period":n'
        b'ull},"id":9}',
    ),
    (
        '<',
        b'\x00\x00\x02W{"type":"ok","id":9,"text":"logical plan:\\n  Relation(works)\\n\\nREWR plan:\\n  Co'
        b'alesce(period=t_begin..t_end)\\n  \\u2514\\u2500 Projection(name AS name, skill AS skil'
        b'l, t_begin AS t_begin, t_end AS t_end)\\n     \\u2514\\u2500 Relation(works)\\n\\noptimiz'
        b'ed plan (planner on):\\n  Coalesce(period=t_begin..t_end)\\n  \\u2514\\u2500 Relation(wo'
        b'rks)\\n\\nplanner rules fired:\\n  planner.projection_identity = 1\\n\\nexecution (backen'
        b"d='memory'):\\n  (no joins)\\n\\nexecuted plan:\\n  Coalesce(period=t_begin..t_end) [act"
        b'ual_rows=2]\\n  \\u2514\\u2500 Relation(works) [actual_rows=2]\\n\\nplan cache: miss (pla'
        b'n now cached)"}',
    ),
    (
        '>',
        b'\x00\x00\x00\x8c{"type":"check","plan":{"op":"relation","name":"works","alias":null,"period":nul'
        b'l},"options":{"backends":["memory"],"max_points":2},"id":10}',
    ),
    (
        '<',
        b'\x00\x00\x00\x85{"type":"ok","id":10,"report":{"checks":4,"points":[0,16],"configurations":[["me'
        b'mory",true],["memory",false]],"counterexample":null}}',
    ),
    (
        '>',
        b'\x00\x00\x00C{"type":"insert","name":"works","rows":[["Sam","SP",8,16]],"id":11}',
    ),
    (
        '<',
        b'\x00\x00\x00\x15{"type":"ok","id":11}',
    ),
    (
        '>',
        b'\x00\x00\x00C{"type":"delete","name":"works","rows":[["Joe","NS",8,16]],"id":12}',
    ),
    (
        '<',
        b'\x00\x00\x00\x15{"type":"ok","id":12}',
    ),
    (
        '>',
        b'\x00\x00\x00\xed{"type":"materialize","name":"sp","plan":{"op":"selection","child":{"op":"relati'
        b'on","name":"works","alias":null,"period":null},"predicate":{"e":"cmp","op":"=","left'
        b'":{"e":"attr","name":"skill"},"right":{"e":"lit","value":"SP"}}},"id":13}',
    ),
    (
        '<',
        b'\x00\x00\x00q{"type":"ok","id":13,"name":"sp","schema":["name","skill","t_begin","t_end"],"ro'
        b'ws":2,"base_relations":["works"]}',
    ),
    (
        '>',
        b'\x00\x00\x00\x1c{"type":"view_info","id":14}',
    ),
    (
        '<',
        b'\x00\x00\x00${"type":"ok","id":14,"views":["sp"]}',
    ),
    (
        '>',
        b'\x00\x00\x00({"type":"view_info","name":"sp","id":15}',
    ),
    (
        '<',
        b'\x00\x00\x01\x05{"type":"ok","id":15,"name":"sp","schema":["name","skill","t_begin","t_end"],"ro'
        b'ws":2,"stale":false,"base_relations":["works"],"counters":{"incremental.delta_rows":'
        b'0,"incremental.resweep_groups":0,"incremental.full_refresh":1,"incremental.consolida'
        b'ted_rows":0}}',
    ),
    (
        '>',
        b'\x00\x00\x00({"type":"view_rows","name":"sp","id":16}',
    ),
    (
        '<',
        b'\x00\x00\x00n{"type":"ok","id":16,"schema":["name","skill","t_begin","t_end"],"rows":[["Ann",'
        b'"SP",3,10],["Sam","SP",8,16]]}',
    ),
    (
        '>',
        b'\x00\x00\x00j{"type":"view_apply","name":"sp","deltas":[{"relation":"works","entries":[[["Eve'
        b'","SP",1,2],1]]}],"id":17}',
    ),
    (
        '<',
        b'\x00\x00\x00e{"type":"ok","id":17,"rows":3,"counters":{"incremental.delta_rows":1,"incrementa'
        b'l.resweep_groups":1}}',
    ),
    (
        '>',
        b'\x00\x00\x00*{"type":"view_verify","name":"sp","id":18}',
    ),
    (
        '<',
        b'\x00\x00\x00 {"type":"ok","id":18,"ok":false}',
    ),
    (
        '>',
        b'\x00\x00\x00({"type":"drop_view","name":"sp","id":19}',
    ),
    (
        '<',
        b'\x00\x00\x00\x15{"type":"ok","id":19}',
    ),
    (
        '>',
        b'\x00\x00\x00({"type":"view_info","name":"sp","id":20}',
    ),
    (
        '<',
        b'\x00\x00\x00x{"type":"error","code":"IncrementalError","message":"unknown view \'sp\'; register'
        b'ed views: []","transient":false,"id":20}',
    ),
]


def test_golden_tables_sit_below_the_kernel_cutover():
    """Statistics frames name the counters of the route taken ("preaggregated_rows");
    the conversation's tables must stay on the scalar routes for the bytes to hold."""
    assert 2 * (len(ROWS) + 2) < KERNEL_CUTOVER


def test_session_speaks_the_golden_frames(monkeypatch):
    transcript: Transcript = []
    record(transcript, monkeypatch)
    with _server() as server, connect(server.url) as session:
        converse(session)
    assert len(transcript) == len(GOLDEN)
    for position, (spoken, golden) in enumerate(zip(transcript, GOLDEN)):
        assert spoken == golden, f"frame {position} moved"


def test_server_answers_the_golden_frames():
    replies = b"".join(frame for direction, frame in GOLDEN if direction == "<")
    with _server() as server:
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            received = b""
            for position, (direction, frame) in enumerate(GOLDEN):
                if direction == ">":
                    sock.sendall(frame)
                    continue
                # Requests are strictly sequential: read this reply in full
                # before the next request goes out.
                while len(received) < len(frame):
                    data = sock.recv(65536)
                    assert data, f"server hung up before frame {position}"
                    received += data
                assert received[: len(frame)] == frame, f"frame {position} moved"
                received = received[len(frame):]
            assert received == b""
    assert replies  # the conversation has server frames at all


def _read_frame(sock: socket.socket) -> bytes:
    """One length-prefixed frame, prefix included."""
    frame = b""
    while len(frame) < 4 or len(frame) < 4 + int.from_bytes(frame[:4], "big"):
        data = sock.recv(65536)
        assert data, "server hung up mid-frame"
        frame += data
    assert len(frame) == 4 + int.from_bytes(frame[:4], "big")  # requests are sequential
    return frame


def test_an_old_clients_analyze_frame_is_an_unknown_type():
    """``analyze`` left the verb table: the frame an old client sends gets the
    error every type outside the table gets, and the connection stays usable."""
    hello, welcome = GOLDEN[0][1], GOLDEN[1][1]
    with _server() as server:
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(hello)
            assert _read_frame(sock) == welcome
            sock.sendall(b'\x00\x00\x00){"type":"analyze","name":"works","id":19}')
            assert _read_frame(sock) == (
                b'\x00\x00\x00l{"type":"error","code":"ProtocolError","message":"unknown message '
                b'type \'analyze\'","transient":false,"id":19}'
            )
            sock.sendall(GOLDEN[2][1])  # ping
            assert _read_frame(sock) == GOLDEN[3][1]


@pytest.fixture
def old_client():
    """A raw connection to a server holding ``works``, and a plan whose rows coalescing merges."""
    with _server() as server:
        works = server.session.load("works", ["name", "skill"], ROWS + [("Sam", "SP", 8, 16)])
        skills = works.select("skill")
        connection = RemoteConnection(server.host, server.port)
        try:
            yield connection, plan_to_json(skills.union(skills).plan)
        finally:
            connection.close()


#: ``final_coalesce`` left the query, explain and materialize verbs (every
#: session rewrites with one final coalesce, so the flag changed nothing).  A
#: frame of an older client still carrying it decodes, and the server
#: ignores the field.
OLD_FLAG = pytest.mark.parametrize("final_coalesce", [True, False])


@OLD_FLAG
def test_an_old_clients_final_coalesce_changes_no_query(old_client, final_coalesce):
    connection, plan = old_client

    def rows(**flag):
        return connection.run_query({"type": "query", "plan": plan, **flag})[2]

    assert rows(final_coalesce=final_coalesce) == rows()


@OLD_FLAG
def test_an_old_clients_final_coalesce_changes_no_explain(old_client, final_coalesce):
    connection, plan = old_client

    def explain(**flag):
        connection.request({"type": "clear_cache"})  # both miss the plan cache
        return connection.request({"type": "explain", "plan": plan, **flag})["text"]

    assert explain(final_coalesce=final_coalesce) == explain()


@OLD_FLAG
def test_an_old_clients_final_coalesce_changes_no_view(old_client, final_coalesce):
    connection, plan = old_client

    def view(name, **flag):
        described = connection.request({"type": "materialize", "name": name, "plan": plan, **flag})
        rows = connection.request({"type": "view_rows", "name": name})["rows"]
        return {key: described[key] for key in ("schema", "rows", "base_relations")}, rows

    assert view("flagged", final_coalesce=final_coalesce) == view("plain")


def test_in_process_session_runs_the_same_script_without_json(monkeypatch):
    """The in-process transport calls the verb functions directly: no codec, no hop."""
    def no_json(*args, **kwargs):
        raise AssertionError("an in-process verb went through the wire codec")

    monkeypatch.setattr(json, "dumps", no_json)
    for module in (protocol, connection, core):
        monkeypatch.setattr(module, "encode_frame", no_json)
    with connect(domain=(0, 24)) as session:
        converse(session)


def test_check_report_with_a_counterexample_keeps_its_wire_form():
    """The failing-check reply (not reachable from the conversation above)."""
    from repro.server.verbs import VERBS  # absent at the parent the goldens also run on

    report = ConformanceReport(
        checks=3,
        points=(0, 4),
        configurations=(("memory", True),),
        counterexample=Counterexample(
            backend="memory",
            optimize=True,
            point=4,
            query=RelationAccess("r"),
            tables={"r": [(1, 0, 5)]},
            expected={(1,): 2},
            actual={},
            shrink_checks=7,
        ),
    )
    check = VERBS["check"]
    frame = encode_frame({"type": "ok", "id": 1, **check.encode_result(report)})
    assert frame[4:] == (
        b'{"type":"ok","id":1,"report":{"checks":3,"points":[0,4],"configurations":'
        b'[["memory",true]],"counterexample":{"backend":"memory","optimize":true,'
        b'"point":4,"query":{"op":"relation","name":"r","alias":null,"period":null},'
        b'"tables":{"r":[[1,0,5]]},"expected":[[[1],2]],"actual":[],"error":null,'
        b'"shrink_checks":7}}}'
    )
    assert check.decode_result(decode_frame(frame[4:])) == report


def _literal(frame: bytes, width: int = 84) -> str:
    pieces = [repr(frame[start:start + width]) for start in range(0, len(frame), width)]
    return "\n        ".join(pieces)


if __name__ == "__main__":
    spoken: Transcript = []
    patcher = pytest.MonkeyPatch()
    record(spoken, patcher)
    with _server() as running, connect(running.url) as client:
        converse(client)
    patcher.undo()
    print("GOLDEN: Transcript = [")
    for direction, frame in spoken:
        print(f"    (\n        {direction!r},\n        {_literal(frame)},\n    ),")
    print("]")
