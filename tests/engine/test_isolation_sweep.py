"""The catalog's isolation contract under real threads: snapshot reads, serialised writers.

One shared catalog, a materialized view over table ``R``, a second view
over that view (``R``'s writes reach it only as the first view's own delta),
W writers each cycling ``delete`` / ``insert`` of its own disjoint batch of
``R``, and readers that run beside them -- in process over one
:class:`~repro.api.Session` (what the server's worker pool does) and over a
real :class:`~repro.server.QueryServer` with one ``repro://`` client per
thread.
Every committed state of ``R`` is "the start state minus some of the
batches", so there are 2^W admissible states; each is evaluated up front by
the row reference (``executor="row"``) on a private copy, and everything a
reader observes must be what *one* of them gives:

* ``view_query(R) - table(view)`` and its mirror, each one plan, are empty,
  and so for the view over the view -- a query never sees a table after a
  write and a view over it before;
* the ad hoc aggregate over ``R`` and both views' rows are those of an
  admissible state -- no torn write, no lost or doubled batch;
* every verb of :data:`repro.server.verbs.VERBS` answers without an error
  while the writers run (``insert`` / ``delete`` are the writers' own), so a
  verb added to the table later is swept too.

At the end ``R`` is bag-equal to its start and every view verifies.  The
sweep is bounded by operation counts, never by the clock: it is the same
test on a slow box.  Marked ``isolation`` (CI step "Isolation sweep", not
tier-1).
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from itertools import combinations
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Tuple

import pytest

from repro import Delta, QueryServer, connect
from repro.algebra.operators import RelationAccess
from repro.engine import Database, execute
from repro.server.verbs import VERBS

pytestmark = pytest.mark.isolation

DOMAIN = (0, 64)
VIEW = "key_totals"
#: A view over VIEW: R's writes reach it only through VIEW's own delta.
UPPER = "count_histogram"
ROWS = [(i % 60, f"c{i % 6}", i, (i * 7) % 50, (i * 7) % 50 + 1 + i % 7) for i in range(600)]
TINY = [(1, 0, 4), (2, 2, 6)]
BATCH = 20
READERS = 3
ROUNDS = 12
#: Delete + insert cycles every writer completes at the least (it goes on while anyone reads).
CYCLES = 25
#: The writers' own verbs; everything else in ``VERBS`` is called by the readers.
WRITES = ("insert", "delete")

Frozen = FrozenSet[Tuple[Tuple[Any, ...], int]]


def view_query(session: Any) -> Any:
    return session.table("R").group_by("k").agg(cnt="count(*)", total="sum(v)")


def upper_query(session: Any) -> Any:
    return session.table(VIEW).group_by("cnt").agg(keys="count(*)")


def adhoc_query(session: Any) -> Any:
    return session.table("R").group_by("cat").agg(cnt="count(*)", total="sum(v)")


def frozen(rows: Iterable[Tuple[Any, ...]]) -> Frozen:
    return frozenset(Counter(map(tuple, rows)).items())


@pytest.fixture
def fast_switching():
    """Hand the GIL over every 10 us, so a race needs no luck; restored afterwards."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def admissible_states(session: Any, batches: List[List[Tuple]]) -> Dict[str, Any]:
    """What each of the 2^W committed states gives, by the row reference on a private copy."""
    plans = {
        "adhoc": session.pipeline.rewrite(adhoc_query(session).plan),
        "view": session.pipeline.rewrite(view_query(session).plan),
        "upper": session.pipeline.rewrite(upper_query(session).plan),
    }
    period = ("t_begin", "t_end")
    states: Dict[str, Any] = {"adhoc": set(), "view": set(), "upper": set()}
    for size in range(len(batches) + 1):
        for absent in combinations(range(len(batches)), size):
            remaining = Counter(ROWS)
            for writer in absent:
                remaining.subtract(batches[writer])
            private = Database()
            private.create_table(
                "R", ("k", "cat", "v") + period, list(remaining.elements()), period=period
            )
            states["adhoc"].add(frozen(execute(plans["adhoc"], private, executor="row").rows))
            view = execute(plans["view"], private, executor="row")
            states["view"].add(frozen(view.rows))
            # The view over the view reads that state's view contents.
            private.create_table(VIEW, view.schema, view.rows, period=period)
            states["upper"].add(frozen(execute(plans["upper"], private, executor="row").rows))
    assert len(states["adhoc"]) == len(states["view"]) == 2 ** len(batches)
    return states


def verb_arguments(name: str, reader: int, session: Any) -> List[Dict[str, Any]]:
    """The calls a reader makes of one verb; a verb unknown here is called bare."""
    scratch, own_view = f"scratch_{reader}", f"view_{reader}"
    known = {
        "load": [{"name": scratch, "schema": ("a",), "rows": TINY}],
        "explain": [{"plan": adhoc_query(session).plan}],
        "check": [{"plan": RelationAccess("tiny"), "options": {"max_points": 2}}],
        "materialize": [{"name": own_view, "plan": RelationAccess(scratch)}],
        "view_info": [{}, {"name": VIEW}, {"name": UPPER}, {"name": own_view}],
        "view_rows": [{"name": VIEW}, {"name": UPPER}, {"name": own_view}],
        # Detached deltas diverge a view from the catalog: only ever the reader's own.
        "view_apply": [{"name": own_view, "deltas": [Delta(scratch, {(3, 1, 5): 1})]}],
        "view_verify": [{"name": VIEW}, {"name": UPPER}],
        "drop_view": [{"name": own_view}],
    }
    if name in known:
        return known[name]
    required = [arg.name for arg in VERBS[name].args if arg.required]
    assert not required, f"verb {name!r} needs {required}: give the sweep its arguments"
    return [{}]


def check_reply(name: str, args: Dict[str, Any], reply: Any, states: Dict[str, Any]) -> None:
    """What a verb's answer must satisfy whichever admissible state it saw."""
    if name == "tables":
        assert {"R", "tiny", VIEW, UPPER} <= set(reply)
    elif name == "view_rows" and args["name"] == VIEW:
        assert frozen(reply[1]) in states["view"], "the view's rows are those of no committed state"
    elif name == "view_rows" and args["name"] == UPPER:
        assert frozen(reply[1]) in states["upper"], "the view over the view is that of no state"
    elif name == "view_verify":
        assert reply is True, "verify saw the view and its base table at two moments"


def sweep(
    open_session: Callable[[], Any], main: Any, writers: int
) -> None:
    """W writers and ``READERS`` readers over sessions from ``open_session``; ``main`` is in process."""
    batches = [ROWS[w * BATCH : (w + 1) * BATCH] for w in range(writers)]
    states = admissible_states(main, batches)
    failures: List[BaseException] = []
    reading = threading.Event()
    reading.set()

    def guarded(body: Callable[[Any], None]) -> Callable[[], None]:
        def run() -> None:
            session = open_session()
            try:
                body(session)
            except BaseException as failure:  # re-raised by the main thread below
                failures.append(failure)
            finally:
                if session is not main:
                    session.close()

        return run

    def write(batch: List[Tuple]) -> Callable[[Any], None]:
        def body(session: Any) -> None:
            # Whole cycles only, for as long as anyone reads: R ends as it began.
            cycles = 0
            while (reading.is_set() or cycles < CYCLES) and not failures:
                session.delete("R", batch)
                session.insert("R", batch)
                cycles += 1

        return body

    def read(reader: int) -> Callable[[Any], None]:
        def body(session: Any) -> None:
            for _round in range(ROUNDS):
                for query, name in ((view_query, VIEW), (upper_query, UPPER)):
                    forward = query(session).difference(session.table(name)).rows()
                    assert forward == [], f"one query saw {name} and its input apart: {forward[:3]}"
                    mirror = session.table(name).difference(query(session)).rows()
                    assert mirror == [], f"one query saw the input of {name} apart: {mirror[:3]}"
                seen = frozen(adhoc_query(session).rows())
                assert seen in states["adhoc"], "the aggregate is that of no committed state"
                for name in VERBS:
                    if name in WRITES:
                        continue
                    for args in verb_arguments(name, reader, session):
                        check_reply(name, args, session.call(name, **args), states)

        return body

    readers = [threading.Thread(target=guarded(read(r)), name=f"reader-{r}") for r in range(READERS)]
    threads = readers + [
        threading.Thread(target=guarded(write(batch)), name=f"writer-{w}")
        for w, batch in enumerate(batches)
    ]
    for thread in threads:
        thread.start()
    for thread in readers:
        thread.join(timeout=300)
    reading.clear()
    for thread in threads:
        thread.join(timeout=60)
    assert not [thread.name for thread in threads if thread.is_alive()]
    if failures:
        raise failures[0]

    assert Counter(main.database.table("R").rows) == Counter(ROWS)
    assert frozen(main.view(VIEW).rows()) in states["view"]
    assert frozen(main.view(UPPER).rows()) in states["upper"]
    assert main.views() == (VIEW, UPPER)
    for name in (VIEW, UPPER):
        assert main.view(name).verify()
        assert main.view(name).counters["incremental.full_refresh"] == 1


@pytest.fixture
def shared():
    with connect(domain=DOMAIN) as session:
        session.load("R", ["k", "cat", "v"], ROWS)
        session.load("tiny", ["a"], TINY)
        session.materialize(view_query(session), name=VIEW)
        session.materialize(upper_query(session), name=UPPER)
        yield session


@pytest.mark.parametrize("writers", [1, 2])
def test_in_process_over_one_session(shared, fast_switching, writers):
    sweep(lambda: shared, shared, writers)


@pytest.mark.parametrize("writers", [1, 2])
def test_over_a_query_server_with_one_client_per_thread(shared, fast_switching, writers):
    with QueryServer(shared) as server:
        sweep(lambda: connect(server.url), shared, writers)
