"""A temporal aggregate emits the coalesced encoding; a coalesce above it passes it through.

Each case below pins the aggregate's rows on the row reference, the
engine's kernels (cutover 0) and its scalar sweeps: segments of a group
that touch with equal values are one row, and nothing else merges.  A
:class:`CoalesceOperator` over a temporal aggregate or a monus sweep with
its own period last returns the child's rows under its own name and counts
them; over any other such child it sweeps.  SQL's coalesce above an
aggregate still sweeps the aggregate's one row per segment.  Without numpy
the kernel route is the scalar one.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra import AggregateSpec, ConstantRelation, RelationAccess, Union, attr
from repro.backends import SQLiteBackend, compile_plan
from repro.conformance.oracle import normal_form_violation
from repro.engine import Database, execute, kernels
from repro.rewriter import (
    CoalesceOperator,
    MonusOperator,
    T_BEGIN,
    T_END,
    TemporalAggregateOperator,
)

DATABASE = Database()
SCHEMA = ("k", "v", T_BEGIN, T_END)

COUNT_V = AggregateSpec("count", attr("v"), "nv")


def _routes(plan):
    """``plan`` on the row reference, the kernels and the scalar sweeps: (table, statistics)."""
    statistics: dict = {}
    results = {"row": (execute(plan, DATABASE, statistics, executor="row"), statistics)}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for route, cutover in (("kernel", 0), ("scalar", 10**9)):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            statistics = {}
            results[route] = (execute(plan, DATABASE, statistics), statistics)
    return results


def _aggregate(rows, aggregates, group_by=("k",), weighted=False, padded=False):
    relation = ConstantRelation(SCHEMA, tuple(rows))
    if weighted:
        # A coalesce below hands the aggregate entries of multiplicity above one.
        relation = CoalesceOperator(relation)
    if padded:
        # REWR's gap padding under an ungrouped aggregate: a NULL row over the domain.
        relation = Union(relation, ConstantRelation(SCHEMA, ((None, None, 0, 20),)))
    return TemporalAggregateOperator(relation, group_by, aggregates)


#: name -> (the aggregate, the rows it must emit).
CASES = {
    "v to w to v": (
        _aggregate([(0, None, 0, 10), (0, 3, 3, 6)], (COUNT_V,)),
        [(0, 0, 0, 3), (0, 1, 3, 6), (0, 0, 6, 10)],
    ),
    "equal values split by a gap": (
        _aggregate([(2, 2, 0, 3), (2, 2, 5, 8)], (COUNT_V,)),
        [(2, 1, 0, 3), (2, 1, 5, 8)],
    ),
    "a NULL argument enters without changing count(v)": (
        _aggregate([(4, 7, 0, 10), (4, None, 5, 12)], (COUNT_V,)),
        [(4, 1, 0, 10), (4, 0, 10, 12)],
    ),
    "avg 4/2 then 6/3": (
        _aggregate(
            [(5, 1, 0, 8), (5, 3, 0, 8), (5, 2, 4, 8)], (AggregateSpec("avg", attr("v"), "mean"),)
        ),
        [(5, 2.0, 0, 8)],
    ),
    "1 / 1.0 / True keys": (
        _aggregate([(True, 5, 1, 3), (1.0, 5, 3, 4), (1, 5, 4, 6)], (COUNT_V,)),
        [(True, 1, 1, 6)],
    ),
    "weights above one": (
        _aggregate(
            [(6, 1, 0, 4), (6, 1, 0, 4), (6, 2, 4, 6)],
            (AggregateSpec("sum", attr("v"), "total"), AggregateSpec("count", None, "n")),
            weighted=True,
        ),
        [(6, 2, 2, 0, 4), (6, 2, 1, 4, 6)],
    ),
    "an empty group-by with gap padding": (
        _aggregate([(0, 1, 2, 5), (1, 1, 5, 8)], (COUNT_V,), group_by=(), padded=True),
        [(0, 0, 2), (1, 2, 8), (0, 8, 20)],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_aggregate_emits_each_case_coalesced(case):
    plan, expected = CASES[case]
    for route, (table, _statistics) in _routes(plan).items():
        # Printed alike too: 2.0 stays a float, the 1 / 1.0 / True group prints True.
        assert Counter(map(repr, table.rows)) == Counter(map(repr, expected)), route
        assert normal_form_violation(table) is None, route


def test_weights_above_one_merge_where_the_sum_holds():
    """The weighted case's sum alone: 1 x2 then 2 x1 is one segment of 2."""
    plan = _aggregate(
        [(6, 1, 0, 4), (6, 1, 0, 4), (6, 2, 4, 6)],
        (AggregateSpec("sum", attr("v"), "total"),),
        weighted=True,
    )
    for route, (table, _statistics) in _routes(plan).items():
        assert table.rows == [(6, 2, 0, 6)], route


_LEFT = ((1, "x", 0, 10), (1, "x", 4, 12), (2, "y", 3, 5), (2, "y", 5, 9))
_RIGHT = ((1, "x", 2, 6), (2, "y", 4, 6))

#: Children whose output is the coalesced encoding, period last.
NORMAL_FORM_CHILDREN = {
    "aggregate": TemporalAggregateOperator(
        ConstantRelation(SCHEMA, _LEFT), ("k",), (COUNT_V,)
    ),
    "difference": MonusOperator(ConstantRelation(SCHEMA, _LEFT), ConstantRelation(SCHEMA, _RIGHT)),
    "distinct": MonusOperator(ConstantRelation(SCHEMA, _LEFT)),
}


@pytest.mark.parametrize("child", sorted(NORMAL_FORM_CHILDREN))
def test_a_coalesce_passes_a_normal_form_child_through(child):
    """The child's very rows, relabelled ``coalesce``, counted, and nothing swept."""
    plan = NORMAL_FORM_CHILDREN[child]
    below = _routes(plan)
    for route, (table, statistics) in _routes(CoalesceOperator(plan)).items():
        emitted, emitted_statistics = below[route]
        assert table.name == "coalesce" and table.rows == emitted.rows, route
        assert table.schema == emitted.schema, route
        n = len(table.rows)
        assert Counter(statistics) - Counter(emitted_statistics) == Counter(
            {"coalesceoperator": 1, "coalesce_input_rows": n, "coalesce_output_rows": n}
        ), route


def test_a_coalesce_sweeps_a_monus_whose_period_is_not_last():
    """The monus keeps its input's column order; the coalesce puts the period last."""
    rows = ((0, 4, "x"), (4, 8, "x"), (2, 6, "y"))
    monus = MonusOperator(ConstantRelation((T_BEGIN, T_END, "k"), rows))
    for route, (table, statistics) in _routes(CoalesceOperator(monus)).items():
        assert table.schema == ("k", T_BEGIN, T_END), route
        assert sorted(table.rows) == [("x", 0, 8), ("y", 2, 6)], route
        # The distinct already joined x's touching periods: two rows in, two out.
        assert statistics["coalesce_input_rows"] == statistics["coalesce_output_rows"] == 2, route


def test_a_coalesce_sweeps_a_monus_over_another_period():
    """Coalesced over ``[b, e)`` is not coalesced over ``[t_begin, t_end)``."""
    rows = (("x", 0, 5, 0, 3), ("x", 0, 5, 3, 6))
    monus = MonusOperator(
        ConstantRelation(("k", "b", "e", T_BEGIN, T_END), rows), period=("b", "e")
    )
    plan = CoalesceOperator(monus)
    for route, (table, _statistics) in _routes(plan).items():
        assert sorted(table.rows) == [("x", 0, 5, 0, 6)], route


def test_sql_sweeps_the_coalesce_above_an_aggregate():
    """SQL's aggregate lists one row per segment; its coalesce above merges them."""
    database = Database()
    database.create_table(
        "r", SCHEMA, [(3, 1, 0, 4), (3, 1, 4, 9), (4, 7, 0, 10), (4, None, 5, 12)],
        period=(T_BEGIN, T_END),
    )
    aggregate = TemporalAggregateOperator(RelationAccess("r"), ("k",), (COUNT_V,))
    plan = CoalesceOperator(aggregate)
    assert "__coal_" in compile_plan(plan, database).sql
    sql = SQLiteBackend().execute(plan, database)
    assert normal_form_violation(sql) is None
    assert Counter(sql.rows) == Counter(execute(plan, database).rows)
    assert Counter(sql.rows) == Counter([(3, 1, 0, 9), (4, 1, 0, 10), (4, 0, 10, 12)])
    # The bare SQL aggregate is not the coalesced encoding.
    assert normal_form_violation(SQLiteBackend().execute(aggregate, database)) is not None
