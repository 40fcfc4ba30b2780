"""Temporal bag difference and distinct: the monus sweep against the split formulation.

REWR evaluates ``L - R`` and ``DISTINCT X`` as one :class:`MonusOperator`
sweep; before it, they were ``C(N(L, R) - N(R, L))`` and ``C(DISTINCT N(X,
X))`` -- what the ablation's split-based rewriting and the SQL lowering
still emit.  For random period tables (touching and nested periods,
duplicates, NULL data values, ``1`` / ``1.0`` / ``True`` as one value) the
sweep, on the row reference and on the engine's kernel and scalar routes,
must return the split formulation's rows, the coalesced encoding, and at
every point of the domain the abstract-model oracle's snapshot.  Without
numpy the kernel route is the scalar one.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import Difference, Distinct, RelationAccess
from repro.conformance.oracle import normal_form_violation, oracle_at
from repro.engine import Database, execute, kernels
from repro.rewriter import CoalesceOperator, MonusOperator, SplitOperator, timeslice_table
from repro.temporal import TimeDomain

DOMAIN = TimeDomain(0, 16)
SCHEMA = ("a", "b", "t_begin", "t_end")
DATA = ("a", "b")

VALUES = st.sampled_from([1, 1.0, True, 2, None, "x"])
#: Short periods over a small domain, so that periods touch, nest and repeat.
PERIODS = st.tuples(st.integers(0, 14), st.integers(1, 6)).map(
    lambda p: (p[0], min(p[0] + p[1], 16))
)
ROWS = st.lists(
    st.tuples(VALUES, VALUES, PERIODS).map(lambda r: (r[0], r[1], *r[2])), max_size=10
)


def catalog(left, right) -> Database:
    database = Database()
    database.create_table("L", SCHEMA, left, period=("t_begin", "t_end"))
    database.create_table("R", SCHEMA, right, period=("t_begin", "t_end"))
    return database


def inputs(weighted: bool):
    """The two table scans, under a coalesce when the sweep should see counts above one."""
    left, right = RelationAccess("L"), RelationAccess("R")
    if weighted:
        return CoalesceOperator(left), CoalesceOperator(right)
    return left, right


@settings(max_examples=200, deadline=None)
@given(left=ROWS, right=ROWS, distinct=st.booleans(), weighted=st.booleans())
# Touching periods of one value, a right row across the seam.
@example(
    left=[(1, "x", 0, 4), (1, "x", 4, 8)], right=[(1, "x", 2, 6)], distinct=False, weighted=False
)
# Nested periods, a duplicate, the right value spelled 1.0 and True.
@example(
    left=[(1, "x", 0, 10), (1, "x", 2, 8), (1, "x", 2, 8)],
    right=[(1.0, "x", 3, 5), (True, "x", 4, 12)],
    distinct=False,
    weighted=True,
)
# An empty right input; NULL data values group with each other.
@example(
    left=[(None, None, 0, 6), (None, None, 3, 9), (2, None, 1, 2)],
    right=[],
    distinct=False,
    weighted=False,
)
@example(
    left=[(None, 1, 0, 6), (None, True, 3, 9), (None, 1.0, 3, 9)],
    right=[],
    distinct=True,
    weighted=True,
)
def test_monus_equals_split_except_all_coalesce_and_the_oracle(left, right, distinct, weighted):
    database = catalog(left, right)
    left_plan, right_plan = inputs(weighted)
    if distinct:
        monus = MonusOperator(left_plan)
        split = CoalesceOperator(Distinct(SplitOperator(left_plan, left_plan, DATA)))
        query = Distinct(RelationAccess("L"))
    else:
        monus = MonusOperator(left_plan, right_plan)
        split = CoalesceOperator(
            Difference(
                SplitOperator(left_plan, right_plan, DATA),
                SplitOperator(right_plan, left_plan, DATA),
            )
        )
        query = Difference(RelationAccess("L"), RelationAccess("R"))

    results = {"row": execute(monus, database, executor="row")}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for route, cutover in (("kernel", 0), ("scalar", 10**9)):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            statistics = {}
            results[route] = execute(monus, database, statistics)
            assert ("batch.monus_vectorized" in statistics) == kernels.worthwhile(0)
    expected = Counter(execute(split, database).rows)
    printed = Counter(map(repr, results["scalar"].rows))
    for route, result in results.items():
        assert Counter(result.rows) == expected, route
        # 1, 1.0 and True are one value; every route prints it alike.
        assert Counter(map(repr, result.rows)) == printed, route
    # A coalesce above the sweep (REWR's final one) passes its rows through.
    for executor in ("row", "batch"):
        above = execute(CoalesceOperator(monus), database, executor=executor)
        assert Counter(above.rows) == expected, executor
    result = results["kernel"]
    assert normal_form_violation(result) is None
    for point in DOMAIN.points():
        assert timeslice_table(result, point) == oracle_at(query, database, DOMAIN, point), point
