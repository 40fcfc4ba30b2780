"""Temporal bag difference and distinct: the monus sweep against the split formulation.

REWR evaluates ``L - R`` and ``DISTINCT X`` as one :class:`MonusOperator`
sweep; before it, they were ``C(N(L, R) - N(R, L))`` and ``C(DISTINCT N(X,
X))`` -- what the ablation's split-based rewriting still emits.  For random
period tables (touching and nested periods, duplicates, NULL data values,
``1`` / ``1.0`` / ``True`` as one value) the sweep, on the row reference
and on the engine's kernel and scalar routes, must return the split
formulation's rows, the coalesced encoding, and at every point of the
domain the abstract-model oracle's snapshot.  Without numpy the kernel
route is the scalar one.

The SQL lowering is the same sweep as window SQL: ``C(L - R)`` and ``C(X)``
over the monus, run on SQLite, must return the engine's rows as a bag,
also where the right input holds its data columns in another order.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import Difference, Distinct, RelationAccess
from repro.backends import SQLiteBackend, compile_plan
from repro.conformance.oracle import normal_form_violation, oracle_at
from repro.engine import Database, execute, kernels
from repro.errors import BackendError
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


def catalog(left, right, swapped: bool = False) -> Database:
    """``L`` and ``R`` over ``SCHEMA``; ``swapped`` stores ``R``'s data columns as ``(b, a)``."""
    database = Database()
    database.create_table("L", SCHEMA, left, period=("t_begin", "t_end"))
    if swapped:
        database.create_table(
            "R", ("b", "a", "t_begin", "t_end"), [(b, a, *period) for a, b, *period in right],
            period=("t_begin", "t_end"),
        )
    else:
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


def canonical(table) -> Counter:
    """The rows as a bag, floats rounded (as the SQLite differential compares them)."""
    return Counter(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in table.rows
    )


@settings(max_examples=100, deadline=None)
@given(
    left=ROWS, right=ROWS, distinct=st.booleans(), weighted=st.booleans(), swapped=st.booleans()
)
# At 5 a left row begins where a right row ends: the signs cancel, l - r rises by 2.
@example(
    left=[(1, "x", 0, 10), (1, "x", 5, 8)],
    right=[(1, "x", 0, 5)],
    distinct=False,
    weighted=False,
    swapped=False,
)
# A group only the right input holds.
@example(
    left=[(1, "x", 0, 6)],
    right=[(2, "x", 2, 8), (1, "x", 4, 9)],
    distinct=False,
    weighted=False,
    swapped=False,
)
# The right input's data columns in another order.
@example(
    left=[(1, "x", 0, 6), ("x", 1, 2, 9)],
    right=[(1, "x", 2, 4), ("x", 1, 0, 3)],
    distinct=False,
    weighted=True,
    swapped=True,
)
# NULL data values, on both sides, and a distinct over them.
@example(
    left=[(None, None, 0, 6), (None, None, 3, 9), (None, 1, 1, 5)],
    right=[(None, None, 2, 4), (None, 1.0, 0, 2)],
    distinct=False,
    weighted=False,
    swapped=False,
)
@example(
    left=[(None, None, 0, 6), (None, None, 3, 9), (None, 1, 1, 5)],
    right=[],
    distinct=True,
    weighted=False,
    swapped=False,
)
def test_the_sql_sweep_returns_the_engine_rows(left, right, distinct, weighted, swapped):
    database = catalog(left, right, swapped)
    left_plan, right_plan = inputs(weighted)
    plan = CoalesceOperator(
        MonusOperator(left_plan) if distinct else MonusOperator(left_plan, right_plan)
    )
    engine = execute(plan, database)
    backend = SQLiteBackend.for_database(database, optimize=False)
    try:
        sqlite = backend.execute(plan, database)
    finally:
        backend.close()
    assert sqlite.schema == engine.schema
    assert canonical(sqlite) == canonical(engine)


def test_a_right_input_without_a_left_data_attribute_is_named():
    database = Database()
    database.create_table("L", SCHEMA, [(1, "x", 0, 4)], period=("t_begin", "t_end"))
    database.create_table(
        "R", ("a", "c", "t_begin", "t_end"), [(1, "x", 0, 4)], period=("t_begin", "t_end")
    )
    with pytest.raises(BackendError, match="attribute 'b' missing from"):
        compile_plan(MonusOperator(RelationAccess("L"), RelationAccess("R")), database)
