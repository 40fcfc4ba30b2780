"""Partition-key inference, as a table: plan shape -> key and per-leaf attributes.

``partition_key(plan, database)`` answers which root output attributes a
selection could sink on to *every* leaf (it asks the planner's push-down,
one operator at a time) and which leaf attribute each lands on.  The first
table pins that per operator on hand-built plans; the second on what REWR
and the planner actually emit; the last tests pin that key *values* land in
the partition the engine's own grouping puts them in (NULL, and ``1`` /
``1.0`` / ``True``, which are one dict key and one group).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import connect
from repro.algebra.expressions import Arithmetic, Comparison, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.engine import Database, kernels
from repro.engine import execute as engine_execute
from repro.incremental.partition import partition_key
from repro.planner import optimize
from repro.rewriter import MonusOperator

R = RelationAccess("R")  # (k, v, t_begin, t_end)
S = RelationAccess("S")  # (k2, w, t_begin, t_end)
COUNT = (AggregateSpec("count", None, "cnt"),)


def _columns(*pairs):
    return tuple((attr(source) if isinstance(source, str) else source, name) for source, name in pairs)


def _equal(left, right):
    return Comparison("=", attr(left), attr(right))


R_KV = Projection(R, _columns(("k", "k"), ("v", "v")))
S_AB = Projection(S, _columns(("k2", "a"), ("w", "b")))
S_APART = Rename(S, (("t_begin", "b2"), ("t_end", "e2")))


class Opaque(Operator):
    """An operator the planner knows nothing about (no hooks)."""

    def __init__(self, child):
        self.child = child

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return Opaque(child)


def case(name, subject, key, *leaves):
    """One table row: a plan (or fluent chain), its key, the attributes per leaf."""
    return pytest.param(subject, key, list(leaves), id=name)


R_K = Projection(R, _columns(("k", "k"), ("t_begin", "t_begin"), ("t_end", "t_end")))
S_K = Projection(S, _columns(("k2", "k"), ("t_begin", "t_begin"), ("t_end", "t_end")))
R_RENAMED = Rename(R, (("k", "k_"), ("v", "v_"), ("t_begin", "b_"), ("t_end", "e_")))
S_COUNTED = Rename(Aggregation(S, ("k2",), COUNT), (("k2", "g"),))

#: plan, expected key, expected attributes per leaf in depth-first order
SHAPES = [
    # A leaf is keyed by everything it holds.
    case("leaf", R, ("k", "v", "t_begin", "t_end"), ("k", "v", "t_begin", "t_end")),
    case("selection", Selection(R_KV, Comparison(">", attr("v"), lit(1))), ("k", "v"), ("k", "v")),
    case("projection", Projection(R, _columns(("v", "val"), ("k", "key"))), ("val", "key"), ("v", "k")),
    # A computed or constant column is never a key; the others survive.
    case(
        "computed-column",
        Projection(R, _columns(("k", "key"), (Arithmetic("+", attr("v"), lit(1)), "v1"), (lit(5), "c"))),
        ("key",), ("k",),
    ),
    case("rename", Rename(R_KV, (("k", "key"),)), ("key", "v"), ("k", "v")),
    # Each new name shadows the other's old one.
    case("rename-swap", Rename(R_KV, (("k", "v"), ("v", "k"))), ("v", "k"), ("k", "v")),
    # Union and difference rebind the right side by position.
    case("union", Union(R_KV, S_AB), ("k", "v"), ("k", "v"), ("k2", "w")),
    case("difference", Difference(R_KV, S_AB), ("k", "v"), ("k", "v"), ("k2", "w")),
    case("distinct", Distinct(R_KV), ("k", "v"), ("k", "v")),
    # The monus sweep sends data predicates to both inputs; the period stops.
    case("monus", MonusOperator(R_K, S_K), ("k",), ("k",), ("k2",)),
    case("monus-distinct", MonusOperator(R), ("k", "v"), ("k", "v")),
    case("grouped", Aggregation(R, ("k",), COUNT), ("k",), ("k",)),
    case("ungrouped", Aggregation(R, (), COUNT), (), ()),
    # The conjunct keys the other side; k2 traces to the same attributes and is kept once.
    case("equi-join", Join(R, S_APART, _equal("k", "k2")), ("k",), ("k",), ("k2",)),
    # Written right = left, and only the right attribute survives the projection.
    case(
        "equi-join-flipped",
        Projection(
            Join(R, S_APART, _equal("k2", "k")),
            _columns(("k2", "kk"), ("v", "v")),
        ),
        ("kk",), ("k",), ("k2",),
    ),
    case("theta-join", Join(R, S_APART, Comparison("<", attr("k"), attr("k2"))), (), (), ()),
    case("cross-product", Join(R, S_APART), (), (), ()),
    # One relation read under two attributes.
    case("self-join", Join(R, R_RENAMED, _equal("k", "v_")), ("k",), ("k",), ("v",)),
    # One RelationAccess object at two paths, keyed differently at each.
    case(
        "shared-access",
        Union(R_KV, Projection(R, _columns(("v", "k"), ("k", "v")))),
        ("k", "v"), ("k", "v"), ("v", "k"),
    ),
    case(
        "constant",
        Union(R_KV, ConstantRelation(("x", "y"), (("a", 1),))),
        ("k", "v"), ("k", "v"), ("x", "y"),
    ),
    case("no-planner-hooks", Opaque(R_KV), (), ()),
    # Only what reaches every leaf is a key: v, cnt and the periods stop on one side.
    case("one-sided", Join(R, S_COUNTED, _equal("k", "g")), ("k",), ("k",), ("k2",)),
]


@pytest.fixture
def database():
    database = Database()
    database.create_table("R", ("k", "v", "t_begin", "t_end"), [])
    database.create_table("S", ("k2", "w", "t_begin", "t_end"), [])
    return database


@pytest.mark.parametrize("plan, key, leaves", SHAPES)
def test_key_of_a_plan_shape(database, plan, key, leaves):
    assert partition_key(plan, database) == (key, leaves)


def test_an_unresolvable_schema_is_one_partition():
    # No catalog entry for R: nothing can be probed, nothing is guessed --
    # not even under an operator whose own output names are known.
    assert partition_key(Distinct(R), Database()) == ((), [()])
    assert partition_key(Aggregation(R, ("k",), COUNT), Database()) == ((), [()])


#: fluent chain, expected key, expected attributes per leaf
REWRITTEN = [
    case("agg", lambda r, s: r.group_by("k").agg(total="sum(v)"), ("k",), ("k",)),
    case("agg-by-two", lambda r, s: r.group_by("v", "k").agg(n="count(*)"), ("v", "k"), ("v", "k")),
    # Ungrouped: REWR unions a constant gap row in, the aggregate stops every probe.
    case("agg-ungrouped", lambda r, s: r.agg(n="count(*)"), (), (), ()),
    # One monus sweep: each input is read once, the probe reaches both.
    case(
        "difference",
        lambda r, s: r.select("k").difference(s.select("k2")),
        ("k",), ("k",), ("k2",),
    ),
    case("distinct", lambda r, s: r.select("k").distinct(), ("k",), ("k",)),
    case("join", lambda r, s: r.join(s, "k = k2"), ("k",), ("k",), ("k2",)),
    case("theta-join", lambda r, s: r.join(s, "v < w"), (), (), ()),
    case(
        "join-agg",
        lambda r, s: r.join(s, "k = k2").group_by("k2").agg(total="sum(w)"),
        ("k2",), ("k",), ("k2",),
    ),
]


def _materialized(chain, planner):
    session = connect(domain=(0, 48), planner=planner)
    session.load("R", ["k", "v"], [("a", 1, 0, 10), ("b", 2, 5, 20)])
    session.load("S", ["k2", "w"], [("a", 10, 0, 40)])
    return session, session.materialize(chain(session.table("R"), session.table("S")), name="V")


def _uncoalesced(session, view):
    """The view's query rewritten and planned like the view's, minus REWR's final coalesce."""
    plan = session.pipeline.rewriter.rewrite(view.query).child
    return optimize(plan, session.database) if session.planner else plan


@pytest.mark.parametrize("planner", [True, False], ids=["planner", "no-planner"])
@pytest.mark.parametrize("coalesce", ["final", "none"])
@pytest.mark.parametrize("chain, key, leaves", REWRITTEN)
def test_key_of_what_rewr_emits(chain, key, leaves, coalesce, planner):
    session, view = _materialized(chain, planner)
    with session:
        if coalesce == "final":
            assert (view.partition_key, [leaf.attributes for leaf in view._leaves]) == (
                key,
                leaves,
            )
            plan = view.plan
        else:
            plan = _uncoalesced(session, view)
        assert partition_key(plan, session.database) == (key, leaves)


@pytest.mark.parametrize("planner", [True, False], ids=["planner", "no-planner"])
def test_coalescing_stops_the_period_attributes(planner):
    chain = lambda r, s: r.where("v >= 2")  # noqa: E731
    session, view = _materialized(chain, planner)
    with session:
        assert view.partition_key == ("k", "v")
        # a bare selection is keyed by everything its leaf holds
        key, _ = partition_key(_uncoalesced(session, view), session.database)
        assert key == ("k", "v", "t_begin", "t_end")


# -- key values -------------------------------------------------------------------------------

MIXED = [
    (1, 10, 0, 10),
    (1.0, 20, 5, 15),
    (True, 30, 8, 20),
    (None, 40, 0, 10),
    (None, 50, 5, 15),
    (2, 60, 0, 10),
]


@pytest.mark.parametrize("cutover", [None, 0], ids=["scalar", "kernels"])
def test_null_and_mixed_keys_share_the_engines_groups(monkeypatch, cutover):
    if cutover is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
    with connect(domain=(0, 48)) as session:
        session.load("R", ["k", "v"], MIXED)
        view = session.materialize(
            session.table("R").group_by("k").agg(n="count(*)", total="sum(v)"), name="V"
        )
        assert view.partition_key == ("k",)
        (leaf,) = view._leaves

        def held(key):  # the dirty slice a write touching ``key`` re-runs the plan over
            return session.database.table("R").version.restricted(leaf.positions, {key}).count

        def runs():  # the result's runs: rows per key
            return {key: size for key, size in zip(view._slots, view._sizes) if size}

        # 1, 1.0 and True are one partition, NULL is one, 2 is one.
        assert [held(key) for key in [(1,), (1.0,), (True,), (None,), (2,)]] == [3, 3, 3, 2, 1]
        assert len(runs()) == 3 and sum(runs().values()) == len(view)

        def step(write, rows, dirty):
            before = view.counters["incremental.resweep_groups"]
            write("R", rows)
            assert view.counters["incremental.resweep_groups"] - before == dirty
            assert view.verify()
            reference = engine_execute(view.plan, session.database, executor="row")
            assert Counter(view.rows()) == Counter(reference.rows)

        # Three spellings of one key; a delete under another spelling's partition.
        step(session.insert, [(1.0, 1, 2, 30), (True, 2, 2, 30), (1, 3, 2, 30)], dirty=1)
        step(session.delete, [(1, 10, 0, 10), (1.0, 1, 2, 30)], dirty=1)
        step(session.insert, [(None, 1, 0, 48), (2.0, 1, 0, 48)], dirty=2)
        step(session.delete, [(None, 40, 0, 10), (None, 50, 5, 15), (None, 1, 0, 48)], dirty=1)
        assert held((None,)) == 0 and (None,) not in runs()
        assert [held((1,)), held((2,))] == [4, 2] and len(runs()) == 2


def test_null_join_keys_meet_nothing_and_dirty_one_partition():
    with connect(domain=(0, 48)) as session:
        session.load("R", ["k", "v"], [("a", 1, 0, 10), (None, 2, 0, 10)])
        session.load("S", ["k2", "w"], [("a", 10, 0, 40), (None, 20, 0, 40)])
        view = session.materialize(session.table("R").join(session.table("S"), "k = k2"), name="V")
        assert view.partition_key == ("k",) and len(view) == 1
        session.insert("S", [(None, 30, 0, 40), ("a", 40, 5, 8)])
        assert view.verify() and len(view) == 2
        assert view.counters["incremental.resweep_groups"] == 2
