"""Each whole-column kernel against its scalar twin and the row reference.

:mod:`repro.engine.kernels` serves the interval join, the split operator,
the five temporal aggregates, coalescing and the monus sweep (temporal bag
difference and distinct) above a fixed row-count cutover,
over typed columns that one kernel hands the next; below it, and for
whatever a kernel declines, the scalar sweeps run.  The hypothesis sweeps
here execute one physical plan three ways -- row reference, engine with the
cutover at 0 (kernels wherever they accept) and engine with the kernels out
of reach -- over NULL keys, NULL and degenerate end points,
``bool``/float/mixed/string/composite keys, NULL and int64-edge aggregate
arguments and ``counts > 1`` inputs, singly and chained behind a join, and
demand the same bag printed the same way.  The fixed cases pin the routes
(which counter fires at cutover -1/0/+1, under limits, on overflow) and the
digest-sensitive arithmetic (``avg`` above 2**53, ``sum`` at the int64 edge).
The step sweep under temporal aggregation and the monus has three
tallies -- counted on the packed grid, plain-sorted or ``argsort``-ed,
picked by the grid's shape and the measures -- each checked against
another bit for bit, and the aggregate's output -- the coalesced encoding,
which the coalesce above it passes through -- is pinned on all three routes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Comparison, FunctionCall, and_, attr
from repro.algebra.operators import (
    AggregateSpec,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Union,
)
from repro.engine import batch as batching
from repro.engine import kernels
from repro.engine.catalog import Database
from repro.engine.executor import ExecutionContext, execute
from repro.conformance.oracle import normal_form_violation
from repro.engine.sweeps import (
    collect_group_endpoints,
    expand,
    interval_sweep,
    monus,
    partition_by_keys,
    split_segments,
    temporal_aggregate,
)
from repro.errors import QueryTimeoutError, ResourceLimitError
from repro.execution import Deadline, QueryLimits
from repro.rewriter.operators import (
    CoalesceOperator,
    MonusOperator,
    SplitOperator,
    TemporalAggregateOperator,
)
from repro.rewriter.pipeline import QueryPipeline
from repro.temporal.timedomain import TimeDomain

pytest.importorskip("numpy")

DATABASE = Database()
SCHEMA = ("k1", "k2", "v", "t_begin", "t_end")

# -- inputs ---------------------------------------------------------------------------

KEY_KINDS = {
    "int": st.integers(0, 3),
    "wide-int": st.sampled_from([-(2**40), 0, 7, 2**40]),
    "bool": st.booleans(),
    "float": st.sampled_from([0.5, 1.0, 2.0]),
    "int-float": st.sampled_from([1, 1.0, 2, 2.5, True]),
    "string": st.sampled_from(["a", "b", "c"]),
    "nullable": st.sampled_from([None, 1, 2]),
}
#: Mostly well-formed intervals, some degenerate or inverted, some NULL.
END_POINTS = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda p: (p[0], p[0] + p[1])),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
)
NULLABLE_END_POINTS = st.one_of(
    END_POINTS, st.tuples(st.none(), st.integers(0, 12)), st.tuples(st.integers(0, 12), st.none())
)
VALUES = st.one_of(st.integers(-5, 5), st.none())
#: What a result may hold: the suite's digests print ``repr``s, so no numpy scalar.
PLAIN_TYPES = {int, float, str, bool, type(None)}


@st.composite
def tables(draw, max_rows: int = 14):
    """(left rows, right rows) over SCHEMA, one key kind and NULL policy per draw."""
    first = KEY_KINDS[draw(st.sampled_from(sorted(KEY_KINDS)))]
    second = KEY_KINDS[draw(st.sampled_from(sorted(KEY_KINDS)))]
    end_points = NULLABLE_END_POINTS if draw(st.booleans()) else END_POINTS
    row = st.tuples(first, second, VALUES, end_points).map(
        lambda r: (r[0], r[1], r[2], r[3][0], r[3][1])
    )
    rows = st.lists(row, max_size=max_rows)
    return draw(rows), draw(rows)


def _relation(rows, prefix: str = "", coalesce: bool = False):
    plan = ConstantRelation(SCHEMA, tuple(rows))
    if coalesce:
        # The only operator whose batches carry multiplicities above one.
        plan = CoalesceOperator(plan)
    if prefix:
        plan = Rename(plan, tuple((a, f"{prefix}{a}") for a in SCHEMA))
    return plan


def _join_plan(left_rows, right_rows, n_keys: int, residual: bool, coalesce: bool):
    conjuncts = [
        Comparison("<", attr("l_t_begin"), attr("r_t_end")),
        Comparison("<", attr("r_t_begin"), attr("l_t_end")),
    ]
    for key in ("k1", "k2")[:n_keys]:
        conjuncts.append(Comparison("=", attr(f"l_{key}"), attr(f"r_{key}")))
    if residual:
        conjuncts.append(Comparison("<=", attr("l_v"), attr("r_v")))
    predicate = conjuncts[0]
    for conjunct in conjuncts[1:]:
        predicate = and_(predicate, conjunct)
    return Join(
        _relation(left_rows, "l_", coalesce), _relation(right_rows, "r_", coalesce), predicate
    )


def _columns(rows, width: int = len(SCHEMA)):
    """The rows as the kernels take them: one typed Column per attribute."""
    return [kernels.Column([row[i] for row in rows]) for i in range(width)]


def _plain_end_points(*tables_of_rows) -> bool:
    """No NULL end point anywhere: nothing a kernel may decline (bar the functions)."""
    return all(
        type(row[3]) is int and type(row[4]) is int
        for rows in tables_of_rows
        for row in rows
    )


def _three_ways(plan, monkeypatch) -> Dict[str, int]:
    """Row reference == engine on kernels == engine on scalar sweeps; kernel stats."""
    reference = Counter(execute(plan, DATABASE, executor="row").rows)
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 0)
    statistics: Dict[str, int] = {}
    with_kernels = execute(plan, DATABASE, statistics)
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 10**9)
    scalar_statistics: Dict[str, int] = {}
    scalar = execute(plan, DATABASE, scalar_statistics)
    assert Counter(with_kernels.rows) == reference
    assert Counter(scalar.rows) == reference
    # Equal as bags is not enough for the digests: 1, 1.0 and True are equal.
    assert Counter(map(repr, with_kernels.rows)) == Counter(map(repr, scalar.rows))
    assert {type(value) for row in with_kernels.rows for value in row} <= PLAIN_TYPES
    assert not any(name.endswith("_vectorized") for name in scalar_statistics)
    return statistics


# -- hypothesis sweeps ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    data=tables(),
    n_keys=st.integers(0, 2),
    residual=st.booleans(),
    coalesce=st.booleans(),
)
def test_join_kernel_matches_scalar_and_reference(data, n_keys, residual, coalesce):
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(
            _join_plan(*data, n_keys, residual, coalesce), monkeypatch
        )
    assert statistics["join_strategy.interval"] == 1
    if _plain_end_points(*data):
        assert statistics["join_strategy.interval_vectorized"] == 1


@settings(max_examples=150, deadline=None)
@given(data=tables(), n_keys=st.integers(0, 2), coalesce=st.booleans())
def test_split_kernel_matches_scalar_and_reference(data, n_keys, coalesce):
    left_rows, right_rows = data
    plan = SplitOperator(
        _relation(left_rows, coalesce=coalesce),
        _relation(right_rows, coalesce=coalesce),
        ("k1", "k2")[:n_keys],
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(plan, monkeypatch)
    if _plain_end_points(*data):
        assert statistics["batch.split_vectorized"] == 1


AGGREGATES = st.lists(
    st.sampled_from(
        [
            AggregateSpec("count", None, "n"),
            AggregateSpec("count", attr("v"), "nv"),
            AggregateSpec("count", attr("k2"), "nk"),
            AggregateSpec("sum", attr("v"), "total"),
            AggregateSpec("avg", attr("v"), "mean"),
            AggregateSpec("sum", attr("k2"), "ktotal"),
            AggregateSpec("max", attr("v"), "top"),
            AggregateSpec("min", attr("v"), "low"),
            AggregateSpec("max", attr("k2"), "ktop"),
            AggregateSpec("min", attr("k2"), "klow"),
        ]
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda spec: spec.alias,
)


@settings(max_examples=150, deadline=None)
@given(data=tables(), n_keys=st.integers(0, 2), aggregates=AGGREGATES, coalesce=st.booleans())
def test_aggregate_kernel_matches_scalar_and_reference(data, n_keys, aggregates, coalesce):
    rows, _ = data
    if any(spec.alias == "ktotal" for spec in aggregates):
        # sum over a string column is an error on every path, not a result.
        rows = [row for row in rows if not isinstance(row[1], str)]
    plan = TemporalAggregateOperator(
        _relation(rows, coalesce=coalesce), ("k1", "k2")[:n_keys], tuple(aggregates)
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(plan, monkeypatch)
    plain_arguments = all(
        spec.func == "count" or spec.argument != attr("k2") or all(
            type(row[1]) in (int, type(None)) for row in rows)
        for spec in aggregates
    )
    if _plain_end_points(rows) and plain_arguments:
        assert statistics["batch.aggregate_vectorized"] == 1


@settings(max_examples=100, deadline=None)
@given(data=tables(), n_keys=st.integers(0, 2))
def test_join_kernel_equals_its_scalar_twin_directly(data, n_keys):
    """The kernel called as a function, counts given as a column."""
    left_rows, right_rows = data
    valid = lambda row: type(row[3]) is int and type(row[4]) is int  # noqa: E731
    left_rows = [row for row in left_rows if valid(row)]
    right_rows = [row for row in right_rows if valid(row)]
    left_counts = [1 + position % 3 for position in range(len(left_rows))]
    keys = [(0, 0), (1, 1)][:n_keys]
    left, right = _columns(left_rows), _columns(right_rows)
    served = kernels.interval_join_vectorized(
        [left[i] for i, _ in keys],
        [right[i] for _, i in keys],
        (left[3], left[4]),
        (right[3], right[4]),
        left_counts,
        None,
        None,
    )
    assert served is not None
    left_index, right_index, counts = served
    assert left_index.dtype == right_index.dtype == "int64"
    assert counts is None or set(map(type, counts)) <= {int}
    kernel_bag: Counter = Counter()
    for l, r, count in zip(
        left_index.tolist(), right_index.tolist(), counts or [1] * len(left_index)
    ):
        kernel_bag[left_rows[l] + right_rows[r]] += count

    expanded = [row for row, count in zip(left_rows, left_counts) for _ in range(count)]
    out: list = []
    partitions = (
        partition_by_keys(expanded, right_rows, keys) if keys else [(expanded, right_rows)]
    )
    for left_part, right_part in partitions:
        interval_sweep(left_part, right_part, 3, 4, 3, 4, None, out)
    assert kernel_bag == Counter(out)


@settings(max_examples=100, deadline=None)
@given(data=tables(), n_keys=st.integers(0, 2))
def test_split_kernel_equals_its_scalar_twin_directly(data, n_keys):
    """Same triple, same order: (row indexes, piece begins, piece ends)."""
    left_rows, right_rows = data
    left, right = _columns(left_rows), _columns(right_rows)
    served = kernels.split_segments_vectorized(
        left[:n_keys], left[3], left[4], right[:n_keys], right[3], right[4]
    )
    left, right = ([column.values for column in side] for side in (left, right))
    if any(type(t) is not int for t in left[3] + left[4] + right[3] + right[4]):
        assert served is None
        return
    row_indexes, piece_begins, piece_ends = served
    served = (row_indexes.tolist(), piece_begins.values, piece_ends.values)
    group = lambda c: list(zip(*c[:n_keys])) if n_keys else [()] * len(c[3])  # noqa: E731
    endpoints = collect_group_endpoints(group(left), left[3], left[4])
    collect_group_endpoints(group(right), right[3], right[4], into=endpoints)
    assert served == split_segments(group(left), left[3], left[4], endpoints)


@settings(max_examples=150, deadline=None)
@given(data=tables(), coalesce=st.booleans())
def test_coalesce_kernel_matches_scalar_and_reference(data, coalesce):
    """Three ways through the operator, and the kernel against its twin directly.

    ``coalesce`` puts a coalesce under the one tested, so its input carries
    multiplicities above one: it must take the kernel all the same and print
    every group under the same row as the twin (1 / 1.0 / True keys
    included).
    """
    rows = data[0] + data[1]
    relation = _relation(rows, coalesce=coalesce)
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(CoalesceOperator(relation), monkeypatch)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 10**9)
        batch = batching.execute_batch_plan(relation, ExecutionContext(DATABASE))
    *key_columns, begins, ends = batch.typed
    counts = None if batch.all_ones() else batch.counts
    served = kernels.monus_vectorized(key_columns, begins, ends, counts)
    if not all(type(value) is int for value in begins.values + ends.values):
        assert served is None
        return
    # The coalesce under the tested one takes the kernel too where it can.
    underneath = coalesce and _plain_end_points(rows)
    assert served is not None and statistics["batch.coalesce_vectorized"] == 1 + underneath
    twin = monus(
        [column.values for column in key_columns],
        begins.values,
        ends.values,
        counts or [1] * len(begins),
    )
    # Same entries in the same order (groups by first valid row), printed alike.
    at, kernel_begins, kernel_ends, kernel_counts = served
    kernel = (at.tolist(), kernel_begins.values, kernel_ends.values, kernel_counts)
    assert repr(kernel) == repr(twin)


@settings(max_examples=150, deadline=None)
@given(data=tables(), distinct=st.booleans(), coalesce=st.booleans())
def test_monus_kernel_matches_scalar_and_reference(data, distinct, coalesce):
    """Difference and distinct three ways, and the kernel against its twin directly.

    ``coalesce`` puts a coalesce under each input, so both sides carry
    multiplicities above one; the twins must print every group under the
    same left row (1 / 1.0 / True keys included).
    """
    left_rows, right_rows = data
    left, right = _relation(left_rows, coalesce=coalesce), _relation(right_rows, coalesce=coalesce)
    plan = MonusOperator(left) if distinct else MonusOperator(left, right)
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(plan, monkeypatch)

    def inputs(relation):
        batch = batching.execute_batch_plan(relation, ExecutionContext(DATABASE))
        typed = batch.typed
        counts = None if batch.all_ones() else batch.counts
        return [typed[0], typed[1], typed[2]], typed[3], typed[4], counts

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 10**9)
        left_in = inputs(left)
        right_in = None if distinct else inputs(right)
    served = kernels.monus_vectorized(*left_in, right_in, distinct=distinct)
    end_points = [
        value
        for side in ((left_in,) if right_in is None else (left_in, right_in))
        for column in side[1:3]
        for value in column.values
    ]
    if not all(type(value) is int for value in end_points):
        assert served is None
        return
    assert served is not None and statistics["batch.monus_vectorized"] == 1

    def plain(keys, begins, ends, counts):
        values = [column.values for column in keys]
        return values, begins.values, ends.values, counts or [1] * len(begins)

    twin = monus(
        *plain(*left_in), None if right_in is None else plain(*right_in), distinct=distinct
    )
    rows, kernel_begins, kernel_ends, kernel_counts = served
    kernel = (rows.tolist(), kernel_begins.values, kernel_ends.values, kernel_counts)
    assert repr(kernel) == repr(twin)


#: Few enough values that rows collide: 1 / 1.0 / True and 0 / 0.0 / False are one key each.
BAG_VALUES = st.sampled_from([1, 1.0, True, 0, 0.0, False, 2, 2**40, None, "a"])
#: Multiplicities: ones, small ones, past float64's integers, past what int64 sums hold.
BAG_COUNTS = st.sampled_from([1, 1, 1, 2, 3, 2**53, 2**53 + 1, 2**62])
WEIGHTED_BAGS = st.lists(
    st.tuples(st.tuples(BAG_VALUES, BAG_VALUES), BAG_COUNTS), max_size=12
)


def _weighted_batch(entries, as_rows: bool = False) -> batching.ColumnarBatch:
    rows = [row for row, _count in entries]
    columns = [[row[position] for row in rows] for position in range(2)]
    counts = [count for _row, count in entries]
    if as_rows:
        return batching.ColumnarBatch("bag", ("a", "b"), None, counts, rows=rows)
    return batching.ColumnarBatch("bag", ("a", "b"), columns, counts)


@settings(max_examples=300, deadline=None)
@given(left=WEIGHTED_BAGS, right=WEIGHTED_BAGS, right_as_rows=st.booleans())
# One key spelled three ways, NULL on both sides, counts past 2**53, a row only the right has.
@example(
    left=[((1, None), 2), ((1.0, None), 2**53)],
    right=[((True, None), 2**53 + 1), ((2, "a"), 1)],
    right_as_rows=False,
)
# The right side cancels a key exactly; a tally past int64 on either side.
@example(
    left=[((1, "a"), 3), ((2, "a"), 1), ((True, "a"), 2)],
    right=[((1.0, "a"), 5)],
    right_as_rows=True,
)
@example(
    left=[((0, 0), 2**62), ((0.0, False), 2**62)],
    right=[((False, 0), 2**62), ((0, 0), 7)],
    right_as_rows=False,
)
def test_consolidate_kernel_equals_the_dict_of_row_tuples(left, right, right_as_rows):
    """Difference, distinct and union called directly: same entries, order, ``repr``, counts.

    A column-backed left input takes the kernel whatever the right one is; a
    left input of row tuples keeps the ``dict`` on both sides of the cutover.
    """
    printed = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for cutover in (0, 10**9):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            context = ExecutionContext(DATABASE, statistics={})
            served = [
                batching._except_all(
                    _weighted_batch(left), _weighted_batch(right, right_as_rows), context
                ),
                batching._distinct(_weighted_batch(left), context),
                batching._union(_weighted_batch(left), _weighted_batch(right), context),
            ]
            assert sorted(context.statistics) == (
                []
                if cutover
                else ["batch.distinct_vectorized", "batch.except_all_vectorized", "batch.union_vectorized"]
            )
            served += [
                batching._except_all(
                    _weighted_batch(left, as_rows=True), _weighted_batch(right), context
                ),
                batching._distinct(_weighted_batch(left, as_rows=True), context),
            ]
            assert sum(context.statistics.values()) == (0 if cutover else 3)
            assert all(type(count) is int for result in served for count in result.counts)
            printed[cutover] = repr(
                [(result.entry_rows(), list(result.columns), result.counts) for result in served]
            )
    assert printed[0] == printed[10**9]


#: The int64 edge, its neighbours and NULL: min/max have no sum to overflow.
EDGE_VALUES = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1, None])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2), EDGE_VALUES, END_POINTS).map(
            lambda r: (r[0], "x", r[1], r[2][0], r[2][1])
        ),
        max_size=14,
    ),
    grouped=st.booleans(),
    coalesce=st.booleans(),
)
def test_min_max_kernel_at_the_int64_edge(rows, grouped, coalesce):
    """NULL arguments stay open rows, all-NULL segments print None, nothing wraps."""
    plan = TemporalAggregateOperator(
        _relation(rows, coalesce=coalesce),
        ("k1",) if grouped else (),
        (
            AggregateSpec("min", attr("v"), "low"),
            AggregateSpec("max", attr("v"), "top"),
            AggregateSpec("count", attr("v"), "held"),
            AggregateSpec("count", None, "open"),
        ),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        statistics = _three_ways(plan, monkeypatch)
    assert statistics["batch.aggregate_vectorized"] == 1


# -- temporal aggregation: counted or sorted, and emitted coalesced ---------------------

#: All five functions; ``v`` is int-or-NULL, so the kernel takes every one of them.
ALL_FUNCTIONS = st.lists(
    st.sampled_from(
        [
            AggregateSpec("count", None, "n"),
            AggregateSpec("count", attr("v"), "nv"),
            AggregateSpec("sum", attr("v"), "total"),
            AggregateSpec("avg", attr("v"), "mean"),
            AggregateSpec("min", attr("v"), "low"),
            AggregateSpec("max", attr("v"), "top"),
        ]
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda spec: spec.alias,
)
#: How far apart the drawn time points lie: a grid the kernel counts on (1),
#: one it sorts (64) and, mostly, one whose packed codes would not fit.
STRETCHES = st.sampled_from([1, 1, 64, 2**58])
#: A group whose count of ``v`` goes 0 -> 1 -> 0, two equal segments split by a
#: gap, two equal segments that touch, and a group of 1 / 1.0 / True keys.
RUNS = [
    (0, "x", None, 0, 10),
    (0, "x", 3, 3, 6),
    (2, "x", 2, 0, 3),
    (2, "x", 2, 5, 8),
    (3, "x", 1, 0, 4),
    (3, "x", 1, 4, 9),
    (True, "x", 5, 1, 3),
    (1.0, "x", 5, 3, 4),
    (1, "x", 5, 4, 6),
]


def _stretched(rows, stretch: int):
    return [
        (k1, k2, v, *(None if t is None else t * stretch for t in (begin, end)))
        for k1, k2, v, begin, end in rows
    ]


def _aggregate_plan(rows, n_keys, aggregates, coalesce, stretch=1, padded=False):
    relation = _relation(_stretched(rows, stretch), coalesce=coalesce)
    if padded and not n_keys:
        # REWR's gap padding under an ungrouped aggregate: a NULL row over the domain.
        relation = Union(relation, ConstantRelation(SCHEMA, ((None, None, None, 0, 20 * stretch),)))
    return TemporalAggregateOperator(relation, ("k1", "k2")[:n_keys], tuple(aggregates))


def _same_tally(served, other) -> None:
    """Two tallies' ``(points, states)``: equal bit for bit, int64 throughout."""
    (points, states), (other_points, other_states) = served, other
    assert points.dtype == other_points.dtype == "int64"
    assert points.tolist() == other_points.tolist()
    assert len(states) == len(other_states)
    for state, other_state in zip(states, other_states):
        assert state.dtype == other_state.dtype == "int64"
        assert state.tolist() == other_state.tolist()


def _cross_checked_tallies(monkeypatch, routes) -> None:
    """Each tally the step sweep runs is checked against another one's on the same events.

    ``routes`` gets ``(route, aggregating)`` per tally: ``aggregating`` says
    whether :func:`kernels.temporal_aggregate_vectorized` ran it, rather
    than the monus of a coalesce beneath it.
    """
    dense, ordered, plain = kernels._tally_dense, kernels._tally_sorted, kernels._tally_plain
    aggregate, aggregating = kernels.temporal_aggregate_vectorized, []

    def tagged(*args, **kwargs):
        aggregating.append(True)
        try:
            return aggregate(*args, **kwargs)
        finally:
            aggregating.pop()

    def grid(rises, falls):
        return int(max(rises.max(), falls.max())) + 1

    def spy_dense(rises, falls, cells, measures):
        served = dense(rises, falls, cells, measures)
        _same_tally(served, ordered(rises, falls, measures))
        routes.append(("dense", bool(aggregating)))
        return served

    def spy_sorted(rises, falls, measures):
        served = ordered(rises, falls, measures)
        if grid(rises, falls) <= 1 << 20:  # a grid that far apart is not worth allocating here
            _same_tally(served, dense(rises, falls, grid(rises, falls), measures))
        routes.append(("sorted", bool(aggregating)))
        return served

    def spy_plain(rises, falls):
        served = plain(rises, falls)
        _same_tally(served, ordered(rises, falls, [None]))
        routes.append(("plain", bool(aggregating)))
        return served

    monkeypatch.setattr(kernels, "temporal_aggregate_vectorized", tagged)
    monkeypatch.setattr(kernels, "_tally_dense", spy_dense)
    monkeypatch.setattr(kernels, "_tally_sorted", spy_sorted)
    monkeypatch.setattr(kernels, "_tally_plain", spy_plain)


@settings(max_examples=200, deadline=None)
@given(
    data=tables(),
    n_keys=st.integers(0, 2),
    aggregates=ALL_FUNCTIONS,
    coalesce=st.booleans(),
    stretch=STRETCHES,
    padded=st.booleans(),
)
@example(data=(RUNS, []), n_keys=1, aggregates=[AggregateSpec("count", attr("v"), "nv")],
         coalesce=True, stretch=1, padded=False)
@example(data=(RUNS, []), n_keys=0, aggregates=[AggregateSpec("max", attr("v"), "top")],
         coalesce=False, stretch=64, padded=True)
@example(data=(RUNS, []), n_keys=1, aggregates=[AggregateSpec("sum", attr("v"), "total")],
         coalesce=False, stretch=2**58, padded=False)
def test_the_dense_and_the_sorted_tally_agree_with_the_sweep_and_the_reference(
    data, n_keys, aggregates, coalesce, stretch, padded
):
    """Counted on the grid or sorted -- the grid's shape decides -- same rows as the sweep.

    Three ways through the operator, each tally the kernel runs checked bit
    for bit against another one on its own events, and the kernel called
    directly against :func:`repro.engine.sweeps.temporal_aggregate`: the
    same entries in the same order, printed alike.  The kernel serves
    exactly where the packed code of its groups fits, on every route, and
    counts exactly where the grid holds at most ``DENSE_GRID`` cells per event.
    """
    plan = _aggregate_plan(data[0], n_keys, aggregates, coalesce, stretch, padded)
    routes: list = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _cross_checked_tallies(monkeypatch, routes)
        statistics = _three_ways(plan, monkeypatch)
    # An input with no valid row is served before any tally; a coalesce
    # under the aggregate runs the same sweep, and may count its events too.
    aggregated = [route for route, aggregating in routes if aggregating]
    assert len(aggregated) <= statistics.get("batch.aggregate_vectorized", 0)
    assert len(routes) - len(aggregated) <= statistics.get("batch.coalesce_vectorized", 0)
    assert aggregated.count("dense") == statistics.get("batch.aggregate_dense", 0)

    (relation,) = plan.children()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 10**9)
        batch = batching.execute_batch_plan(relation, ExecutionContext(DATABASE))
    k1, k2, v, begins, ends = batch.typed
    keys = [k1, k2][:n_keys]
    counts = None if batch.all_ones() else batch.counts
    functions = [(spec.func, None if spec.argument is None else v) for spec in aggregates]
    served = kernels.temporal_aggregate_vectorized(keys, begins, ends, counts, functions)
    if not all(type(t) is int for t in begins.values + ends.values):
        assert served is None
        return
    b, e = begins.ints(), ends.ints()
    valid = b < e
    if not valid.any():
        assert served is not None and not served[4] and not len(served[0])
        return
    (codes,), _n_codes = kernels.factorize((keys,), (len(b),), nulls_match=True)
    n_groups = len(set(codes[valid].tolist()))
    packing = kernels.pack_span(n_groups, (b[valid], e[valid]))
    assert (served is None) == (packing is None)
    if served is None:
        return
    group_rows, value_columns, out_begins, out_ends, dense = served
    assert dense == (n_groups * packing[1] <= kernels.DENSE_GRID * 2 * int(valid.sum()))
    listed = list(
        zip(
            *([key.values[i] for i in group_rows.tolist()] for key in keys),
            *(column.values for column in value_columns),
            out_begins.values,
            out_ends.values,
        )
    )
    twin, _buckets = temporal_aggregate(
        [key.values for key in keys],
        begins.values,
        ends.values,
        counts or [1] * len(b),
        [(func, None if column is None else column.values) for func, column in functions],
    )
    assert repr(listed) == repr(twin)


def _routes(plan):
    """``plan`` on the row reference, the kernels (cutover 0) and the scalar sweeps.

    Per route, the result table and the statistics it counted.
    """
    statistics: Dict[str, int] = {}
    tables = {"row": (execute(plan, DATABASE, statistics, executor="row"), statistics)}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for route, cutover in (("kernel", 0), ("scalar", 10**9)):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            statistics = {}
            tables[route] = (execute(plan, DATABASE, statistics), statistics)
    return tables


@settings(max_examples=150, deadline=None)
@given(data=tables(), n_keys=st.integers(0, 2), aggregates=ALL_FUNCTIONS, coalesce=st.booleans())
@example(data=(RUNS, []), n_keys=1, aggregates=[AggregateSpec("count", attr("v"), "nv")],
         coalesce=False)
def test_a_temporal_aggregate_lists_each_group_in_time_order_once(
    data, n_keys, aggregates, coalesce
):
    """The aggregate's output order, on all three routes.

    Each group's rows are consecutive (a group once left never comes back),
    ascending and disjoint in time, and every entry has multiplicity 1.
    """
    plan = _aggregate_plan(data[0], n_keys, aggregates, coalesce)
    for route, (table, _statistics) in _routes(plan).items():
        finished: set = set()
        current = previous_end = None
        for row in table.rows:
            group = row[:n_keys]
            if group != current:
                assert group not in finished, (route, table.rows)
                if current is not None:
                    finished.add(current)
                current, previous_end = group, None
            assert row[-2] < row[-1] and (previous_end is None or previous_end <= row[-2])
            previous_end = row[-1]
    with pytest.MonkeyPatch.context() as monkeypatch:
        for cutover in (0, 10**9):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            batch = batching.execute_batch_plan(plan, ExecutionContext(DATABASE))
            assert batch.all_ones()


def test_a_group_above_an_aggregate_prints_under_its_first_row(monkeypatch):
    """The aggregate lists its groups by first valid row, as the reference does.

    ``(2, 1.0)`` comes first, so the aggregate by ``k2`` above it prints its
    one group, ``1.0 == 1``, as ``1.0``.  Listed in key-code order, the
    groups would put ``(1, 1)`` first and the engine would print ``1``.
    """
    rows = ((2, 1.0, 0, 1), (1, 1, 0, 1))
    relation = ConstantRelation(("k1", "k2", "t_begin", "t_end"), rows)
    count = (AggregateSpec("count", None, "n"),)
    plan = TemporalAggregateOperator(
        TemporalAggregateOperator(relation, ("k1", "k2"), count), ("k2",), count
    )
    reference = execute(plan, DATABASE, executor="row").rows
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 0)
    statistics: Dict[str, int] = {}
    served = execute(plan, DATABASE, statistics).rows
    assert statistics["batch.aggregate_vectorized"] == 2
    assert repr(served) == repr(reference) == repr([(1.0, 2, 0, 1)])


def _swept(table) -> Counter:
    """``table``'s rows coalesced by the step sweep (:func:`monus`, nothing to subtract)."""
    *data, begins, ends = (table.column(attribute) for attribute in table.schema)
    at, out_begins, out_ends, counts = monus(data, begins, ends, [1] * len(table))
    rows = [
        tuple(column[i] for column in data) + (begin, end)
        for i, begin, end in zip(at, out_begins, out_ends)
    ]
    return Counter(expand(rows, counts))


#: Beside RUNS, two groups whose segments merge: a NULL argument enters group
#: 4 without changing ``count(v)``, and group 5's ``avg(v)`` is 4/2, then 6/3.
MERGES = RUNS + [
    (4, "x", 7, 0, 10),
    (4, "x", None, 5, 12),
    (5, "x", 1, 0, 8),
    (5, "x", 3, 0, 8),
    (5, "x", 2, 4, 8),
]


@settings(max_examples=150, deadline=None)
@given(
    data=tables(),
    n_keys=st.integers(0, 2),
    aggregates=ALL_FUNCTIONS,
    coalesce=st.booleans(),
    padded=st.booleans(),
)
@example(data=(MERGES, []), n_keys=1, aggregates=[AggregateSpec("count", attr("v"), "nv")],
         coalesce=False, padded=False)
@example(data=(MERGES, []), n_keys=1, aggregates=[AggregateSpec("avg", attr("v"), "mean")],
         coalesce=False, padded=False)
@example(data=(MERGES + MERGES[:6], []), n_keys=1,
         aggregates=[AggregateSpec("sum", attr("v"), "total"), AggregateSpec("count", None, "n")],
         coalesce=True, padded=False)
@example(data=(MERGES, []), n_keys=0, aggregates=[AggregateSpec("count", attr("v"), "nv")],
         coalesce=False, padded=True)
def test_a_temporal_aggregate_emits_the_coalesced_encoding(
    data, n_keys, aggregates, coalesce, padded
):
    """On all three routes the aggregate's rows are their own coalescing; a coalesce passes them.

    No two rows of equal values overlap or touch, and the step sweep over
    the rows returns the same bag.  A coalesce above the aggregate returns
    the very rows the route's aggregate emitted, counts them, and sweeps
    nothing.
    """
    aggregate = _aggregate_plan(data[0], n_keys, aggregates, coalesce, padded=padded)
    bare = _routes(aggregate)
    for route, (table, _statistics) in bare.items():
        assert normal_form_violation(table) is None, (route, table.rows)
        assert Counter(table.rows) == _swept(table), route
    for route, (table, statistics) in _routes(CoalesceOperator(aggregate)).items():
        emitted, below = bare[route]
        assert table.name == "coalesce" and table.rows == emitted.rows, route
        n = len(table.rows)
        assert Counter(statistics) - Counter(below) == Counter(
            {"coalesceoperator": 1, "coalesce_input_rows": n, "coalesce_output_rows": n}
        ), route


def test_the_aggregate_keeps_gaps_and_a_return_to_zero_apart():
    """0 -> 1 -> 0 stays three segments, a gap splits equal values, touching ones merge."""
    plan = _aggregate_plan(RUNS, 1, [AggregateSpec("count", attr("v"), "nv")], False)
    expected = [
        (0, 0, 0, 3), (0, 1, 3, 6), (0, 0, 6, 10),
        (2, 1, 0, 3), (2, 1, 5, 8),
        (3, 1, 0, 9),
        (True, 1, 1, 6),
    ]
    for route, (table, _statistics) in _routes(plan).items():
        assert Counter(map(repr, table.rows)) == Counter(map(repr, expected)), route


# -- chains: what one kernel hands the next ---------------------------------------------

#: REWR's projection above a join: some attributes dropped, the period intersected.
INTERSECTION = (
    (attr("l_k1"), "k1"),
    (attr("r_k2"), "k2"),
    (attr("l_v"), "v"),
    (FunctionCall("greatest", (attr("l_t_begin"), attr("r_t_begin"))), "t_begin"),
    (FunctionCall("least", (attr("l_t_end"), attr("r_t_end"))), "t_end"),
)


def _second_join(joined, other):
    predicate = and_(
        Comparison("=", attr("k1"), attr("o_k1")),
        and_(
            Comparison("<", attr("t_begin"), attr("o_t_end")),
            Comparison("<", attr("o_t_begin"), attr("t_end")),
        ),
    )
    return Join(joined, Rename(other, tuple((a, f"o_{a}") for a in SCHEMA)), predicate)


CHAINS = {
    "coalesce": lambda joined, other: CoalesceOperator(joined),
    "aggregate": lambda joined, other: TemporalAggregateOperator(
        joined,
        ("k1",),
        (
            AggregateSpec("count", None, "n"),
            AggregateSpec("sum", attr("v"), "total"),
            AggregateSpec("max", attr("v"), "top"),
        ),
    ),
    "grand total": lambda joined, other: TemporalAggregateOperator(
        joined, (), (AggregateSpec("min", attr("v"), "low"), AggregateSpec("avg", attr("v"), "mean"))
    ),
    "split": lambda joined, other: SplitOperator(joined, other, ("k1", "k2")),
    "split under": lambda joined, other: SplitOperator(other, joined, ("k2",)),
    "difference": lambda joined, other: Difference(joined, other),
    "difference then coalesce": lambda joined, other: CoalesceOperator(Difference(joined, other)),
    "distinct": lambda joined, other: Distinct(joined),
    "union": lambda joined, other: Union(joined, other),
    "join": _second_join,
}


@settings(max_examples=250, deadline=None)
@given(
    data=tables(max_rows=10),
    n_keys=st.integers(0, 2),
    residual=st.booleans(),
    coalesce=st.booleans(),
    then=st.sampled_from(sorted(CHAINS)),
)
def test_a_join_hands_its_typed_columns_to_the_next_operator(
    data, n_keys, residual, coalesce, then
):
    """join -> project -> {coalesce, aggregate, split, a set operator, join}, three ways.

    The kernel join's output columns are gathered late and carry their
    source's forms; the projection intersects the period as arrays; the
    next operator reads forms, values or row tuples as it likes.  Bags must
    equal the row reference's on both routes.  The routes list a join's
    output in different orders, and a group prints under its first valid
    row's key (1, 1.0 and True are one group): so each route's ``repr``s are
    compared with the reference run over *that route's* intermediate rows.
    """
    joined = Projection(_join_plan(*data, n_keys, residual, coalesce), INTERSECTION)
    plan = CHAINS[then](joined, _relation(data[1]))
    reference = Counter(execute(plan, DATABASE, executor="row").rows)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for cutover in (0, 10**9):
            monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
            statistics: Dict[str, int] = {}
            result = execute(plan, DATABASE, statistics)
            assert Counter(result.rows) == reference
            assert {type(value) for row in result.rows for value in row} <= PLAIN_TYPES
            if cutover:
                assert not any(name.endswith("_vectorized") for name in statistics)
            elif _plain_end_points(*data):
                assert statistics["join_strategy.interval_vectorized"] >= 1
            handed = execute(joined, DATABASE)
            replayed = CHAINS[then](
                ConstantRelation(handed.schema, tuple(handed.rows)), _relation(data[1])
            )
            expected = execute(replayed, DATABASE, executor="row")
            assert Counter(map(repr, result.rows)) == Counter(map(repr, expected.rows))


def test_residual_and_weighted_joins_take_the_index_pair_path():
    """Above the cutover, through the engine: a residual and counts on both sides."""
    n = kernels.KERNEL_CUTOVER
    # Every row twice: coalescing folds the copies into counts of 2.
    left_rows, right_rows = _keyed_rows(n) * 2, _keyed_rows(n, 1) * 2
    for residual, coalesce in ((True, False), (False, True), (True, True)):
        plan = Projection(_join_plan(left_rows, right_rows, 1, residual, coalesce), INTERSECTION)
        statistics: Dict[str, int] = {}
        result = execute(plan, DATABASE, statistics)
        assert statistics["join_strategy.interval_vectorized"] == 1
        assert "batch.partitions" not in statistics
        reference = execute(plan, DATABASE, executor="row")
        assert len(result.rows) > n
        assert Counter(map(repr, result.rows)) == Counter(map(repr, reference.rows))


# -- routes: cutover, counters, explain -------------------------------------------------


def _keyed_rows(n: int, offset: int = 0):
    return [(i % 7, "x", i, offset + i % 11, offset + i % 11 + 3) for i in range(n)]


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_cutover_decides_the_route_and_not_the_result(delta):
    total = kernels.KERNEL_CUTOVER + delta
    left_rows, right_rows = _keyed_rows(total // 2), _keyed_rows(total - total // 2, 1)
    expect_kernel = delta >= 0

    join = _join_plan(left_rows, right_rows, 1, False, False)
    statistics: Dict[str, int] = {}
    result = execute(join, DATABASE, statistics)
    assert Counter(result.rows) == Counter(execute(join, DATABASE, executor="row").rows)
    assert statistics["join_strategy.interval"] == 1
    assert ("join_strategy.interval_vectorized" in statistics) == expect_kernel
    # batch.partitions counts scalar partitions swept: none on the kernel route.
    assert ("batch.partitions" in statistics) != expect_kernel

    split = SplitOperator(_relation(left_rows), _relation(right_rows), ("k1",))
    statistics = {}
    result = execute(split, DATABASE, statistics)
    assert Counter(result.rows) == Counter(execute(split, DATABASE, executor="row").rows)
    assert ("batch.split_vectorized" in statistics) == expect_kernel

    aggregate = TemporalAggregateOperator(
        _relation(left_rows + right_rows),
        ("k1",),
        (AggregateSpec("count", None, "n"), AggregateSpec("avg", attr("v"), "mean")),
    )
    statistics = {}
    result = execute(aggregate, DATABASE, statistics)
    assert Counter(result.rows) == Counter(
        execute(aggregate, DATABASE, executor="row").rows
    )
    assert ("batch.aggregate_vectorized" in statistics) == expect_kernel
    assert ("preaggregated_rows" in statistics) != expect_kernel

    coalesce = CoalesceOperator(_relation(left_rows + right_rows))
    statistics = {}
    result = execute(coalesce, DATABASE, statistics)
    assert Counter(result.rows) == Counter(execute(coalesce, DATABASE, executor="row").rows)
    assert ("batch.coalesce_vectorized" in statistics) == expect_kernel


def test_an_empty_side_is_served_without_work():
    rows = _keyed_rows(kernels.KERNEL_CUTOVER)
    statistics: Dict[str, int] = {}
    assert execute(_join_plan(rows, [], 1, False, False), DATABASE, statistics).rows == []
    assert statistics["join_strategy.interval_vectorized"] == 1
    split = SplitOperator(_relation(rows), _relation([]), ("k1",))
    assert Counter(execute(split, DATABASE).rows) == Counter(
        execute(split, DATABASE, executor="row").rows
    )


def test_equal_keys_of_different_types_print_under_the_first_valid_row(monkeypatch):
    """1.0, 1 and True are one group; every path names it like the reference does."""
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 0)
    rows = [
        (True, "x", 1, 5, 5),  # degenerate: seen first, but never part of a group
        (1.0, "x", 2, 0, 4),
        (1, "x", 3, 2, 6),
        (2, "x", 4, 0, 3),
        (2.0, "x", 5, 1, 2),
    ]
    plans = [
        TemporalAggregateOperator(
            _relation(rows), ("k1",), (AggregateSpec("sum", attr("v"), "total"),)
        ),
        CoalesceOperator(
            ConstantRelation(("k1", "t_begin", "t_end"), tuple((r[0], r[3], r[4]) for r in rows))
        ),
    ]
    for plan in plans:
        result = execute(plan, DATABASE)
        reference = execute(plan, DATABASE, executor="row")
        assert Counter(map(repr, result.rows)) == Counter(map(repr, reference.rows))
        assert {repr(row[0]) for row in result.rows} == {"1.0", "2"}


def test_coalescing_lists_its_groups_in_first_valid_row_order(monkeypatch):
    """Which of 1 / 1.0 names a later group follows the order coalescing emits."""
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 0)
    rows = [
        (1, 1.0, None, 0, 0),  # degenerate: its group is first seen, not first valid
        (1.0, 0.5, None, 0, 1),
        (1, 0.5, None, 0, 1),
        (1, 1.0, None, 0, 1),
    ]
    plan = TemporalAggregateOperator(
        _relation(rows, coalesce=True), ("k1",), (AggregateSpec("count", None, "n"),)
    )
    reference = execute(plan, DATABASE, executor="row")
    assert repr(execute(plan, DATABASE).rows) == repr(reference.rows) == "[(1.0, 3, 0, 1)]"


def test_float_bool_and_big_int_arguments_keep_the_scalar_sweep():
    """What ``sum``/``avg``/``min``/``max`` decline: any argument the kernel would print wrongly."""
    n = kernels.KERNEL_CUTOVER
    arguments = {
        "float": lambda i: i * 0.5,
        "bool": lambda i: i % 2 == 0,
        "past int64": lambda i: 2**63 + i,
        "mixed 1 / 1.0": lambda i: (1, 1.0)[i % 2],
    }
    for func in ("sum", "avg", "min", "max"):
        for kind, value in arguments.items():
            rows = [(i % 5, "x", value(i), i % 9, i % 9 + 2) for i in range(n)]
            plan = TemporalAggregateOperator(
                _relation(rows), ("k1",), (AggregateSpec(func, attr("v"), "out"),)
            )
            statistics: Dict[str, int] = {}
            result = execute(plan, DATABASE, statistics)
            assert "batch.aggregate_vectorized" not in statistics, (func, kind)
            assert Counter(map(repr, result.rows)) == Counter(
                map(repr, execute(plan, DATABASE, executor="row").rows)
            ), (func, kind)


def test_a_span_that_would_overflow_the_packed_code_declines():
    """codes * span >= 2**62: the scalar paths answer, nothing wraps."""
    far = 2**61
    n = kernels.KERNEL_CUTOVER
    left_rows = [(i % 4, "x", i, (i % 2) * far, (i % 2) * far + 5) for i in range(n)]
    right_rows = [(i % 4, "x", i, (i % 2) * far + 1, (i % 2) * far + 9) for i in range(n)]
    plans = [
        _join_plan(left_rows, right_rows, 1, False, False),
        SplitOperator(_relation(left_rows), _relation(right_rows), ("k1",)),
        TemporalAggregateOperator(
            _relation(left_rows), ("k1",), (AggregateSpec("count", None, "n"),)
        ),
    ]
    for plan in plans:
        statistics: Dict[str, int] = {}
        result = execute(plan, DATABASE, statistics)
        assert not any(name.endswith("_vectorized") for name in statistics), statistics
        assert Counter(result.rows) == Counter(execute(plan, DATABASE, executor="row").rows)
    times = [kernels.Column([0, far + 9]).ints()]
    assert kernels.pack_span(4, times) is None
    # One group fits the same span: the decline is the product, not the span.
    assert kernels.pack_span(1, times) == (0, far + 10)


def test_avg_above_2_53_and_sum_at_the_int64_edge_equal_the_reference_exactly():
    n = kernels.KERNEL_CUTOVER
    big = 2**53 + 1
    rows = [(i % 3, "x", big + 2 * i, i % 5, i % 5 + 4) for i in range(n)]
    plan = TemporalAggregateOperator(
        _relation(rows),
        ("k1",),
        (AggregateSpec("avg", attr("v"), "mean"), AggregateSpec("sum", attr("v"), "total")),
    )
    statistics: Dict[str, int] = {}
    result = execute(plan, DATABASE, statistics)
    assert statistics["batch.aggregate_vectorized"] == 1
    assert Counter(map(repr, result.rows)) == Counter(
        map(repr, execute(plan, DATABASE, executor="row").rows)
    )

    # 256 open rows of 2**55 sum to 2**63: one past int64.  The guard must
    # decline and the Python-int sweep must answer.
    edge = [(0, "x", 2**55, 0, 10) for _ in range(n)]
    plan = TemporalAggregateOperator(
        _relation(edge), ("k1",), (AggregateSpec("sum", attr("v"), "total"),)
    )
    statistics = {}
    result = execute(plan, DATABASE, statistics)
    assert "batch.aggregate_vectorized" not in statistics
    assert result.rows == [(0, n * 2**55, 0, 10)]
    assert result.rows == execute(plan, DATABASE, executor="row").rows


# -- limits -----------------------------------------------------------------------------


def _limited_join():
    rows = _keyed_rows(kernels.KERNEL_CUTOVER)
    return _join_plan(rows, _keyed_rows(kernels.KERNEL_CUTOVER, 1), 1, False, False)


def test_kernels_serve_limited_executions():
    """What the server does to every query: a Deadline plus a row budget."""
    database = Database()
    rows = _keyed_rows(kernels.KERNEL_CUTOVER)
    database.create_table(
        "works", ("w_key", "w_tag", "w_value", "t_begin", "t_end"), rows,
        period=("t_begin", "t_end"),
    )
    database.create_table(
        "other", ("o_key", "o_tag", "o_value", "t_begin", "t_end"), rows,
        period=("t_begin", "t_end"),
    )
    pipeline = QueryPipeline(TimeDomain(0, 20), database=database)
    query = Join(
        RelationAccess("works"),
        RelationAccess("other"),
        Comparison("=", attr("w_key"), attr("o_key")),
    )
    statistics: Dict[str, int] = {}
    limits = QueryLimits(deadline=Deadline(300.0), row_budget=10**9)
    limited = pipeline.execute_limited(query, statistics, limits=limits)
    assert statistics["join_strategy.interval_vectorized"] == 1
    assert "batch.partitions" not in statistics
    assert Counter(limited.rows) == Counter(pipeline.execute(query).rows)


def test_a_tiny_row_budget_stops_the_join_before_any_tuple_is_built(monkeypatch):
    """... and before any output column exists, even lazily: all there is are index arrays."""
    gathers = []
    gathered = kernels.Column.gathered.__func__
    monkeypatch.setattr(
        kernels.Column,
        "gathered",
        classmethod(lambda cls, source, at: gathers.append(len(at)) or gathered(cls, source, at)),
    )
    statistics: Dict[str, int] = {}
    with pytest.raises(ResourceLimitError, match="exceeding the 1000-row budget"):
        execute(_limited_join(), DATABASE, statistics, limits=QueryLimits(row_budget=1000))
    # Both inputs fit the budget; the join was refused, never counted as served,
    # and refused on the pair count: no output column existed yet, not even lazily.
    assert statistics["join_strategy.interval"] == 1
    assert "join_strategy.interval_vectorized" not in statistics
    assert gathers == []
    execute(_limited_join(), DATABASE, limits=QueryLimits(row_budget=10**6))
    assert gathers and gathers[0] > 1000

    # Called directly: refused on the first block's pair count, weights or not; a
    # residual is the kernel's to ask about each block, and what it drops is no output.
    columns = _columns(_keyed_rows(kernels.KERNEL_CUTOVER))
    arguments = ([columns[0]], [columns[0]], (columns[3], columns[4]), (columns[3], columns[4]))
    context = ExecutionContext(DATABASE, row_budget=1000)
    with pytest.raises(ResourceLimitError):
        kernels.interval_join_vectorized(*arguments, None, None, None, context.stage_checkpoint)
    ones = [1] * kernels.KERNEL_CUTOVER
    with pytest.raises(ResourceLimitError):
        kernels.interval_join_vectorized(*arguments, ones, None, None, context.stage_checkpoint)
    blocks = []

    def keep_none(left_index, right_index):
        blocks.append(len(left_index))
        return [False] * len(left_index)

    left_index, right_index, counts = kernels.interval_join_vectorized(
        *arguments, None, None, keep_none, context.stage_checkpoint
    )
    assert len(left_index) == len(right_index) == 0 and counts is None
    assert sum(blocks) > 1000


def test_a_row_budget_refuses_a_step_sweep_on_its_output_weight():
    """The monus's last limit check sees the sum of the levels, not the entry count.

    256 input entries weighing 1000 each: the output has far fewer entries
    than the budget and far more weight, so the kernel itself must refuse it.
    """
    columns = _columns(_keyed_rows(kernels.KERNEL_CUTOVER))
    inputs = ([columns[0]], columns[3], columns[4])
    context = ExecutionContext(DATABASE, row_budget=10_000)
    with pytest.raises(ResourceLimitError, match="exceeding the 10000-row budget"):
        kernels.monus_vectorized(
            *inputs, [1000] * len(columns[0]), None, context.stage_checkpoint
        )
    rows, _begins, _ends, counts = kernels.monus_vectorized(
        *inputs, None, None, context.stage_checkpoint
    )
    assert len(rows) < sum(counts) < 10_000 < 1000 * sum(counts)


def test_a_row_budget_refuses_an_aggregate_on_its_segments_before_valuing_them():
    """The aggregate's last limit check counts the segments, before their runs merge.

    300 touching rows of one group: 300 segments of ``count = 1`` that merge
    into one output row.  A 100-row budget refuses them all the same.
    """
    n = 300
    inputs = ([kernels.Column([0] * n)], kernels.Column(list(range(n))),
              kernels.Column(list(range(1, n + 1))), None, [("count", None)])
    served = kernels.temporal_aggregate_vectorized(*inputs)
    assert served is not None and len(served[0]) == 1
    context = ExecutionContext(DATABASE, row_budget=100)
    with pytest.raises(ResourceLimitError, match="produced 300 rows"):
        kernels.temporal_aggregate_vectorized(*inputs, context.stage_checkpoint)


def test_an_expired_deadline_stops_a_kernel_between_stages():
    deadline = Deadline(300.0)
    polls_seen = []

    def checkpoint(produced: int) -> None:
        polls_seen.append(produced)
        deadline.check()

    columns = _columns(_keyed_rows(kernels.KERNEL_CUTOVER))
    key, value, begins, ends = [columns[0]], columns[2], columns[3], columns[4]
    calls = {
        "join": lambda: kernels.interval_join_vectorized(
            key, key, (begins, ends), (begins, ends), None, None, None, checkpoint
        ),
        "split": lambda: kernels.split_segments_vectorized(
            key, begins, ends, key, begins, ends, checkpoint
        ),
        "count": lambda: kernels.temporal_aggregate_vectorized(
            key, begins, ends, None, [("count", None)], checkpoint
        ),
        "max": lambda: kernels.temporal_aggregate_vectorized(
            key, begins, ends, None, [("max", value)], checkpoint
        ),
        "coalesce": lambda: kernels.monus_vectorized(key, begins, ends, None, None, checkpoint),
        "monus": lambda: kernels.monus_vectorized(
            key, begins, ends, None, (key, begins, ends, [2] * len(begins)), checkpoint
        ),
    }
    for name, call in calls.items():
        del polls_seen[:]
        assert call() is not None, name
        # A check between every pair of stages.
        assert len(polls_seen) >= (3 if name == "join" else 2), name
    deadline.expires_at = float("-inf")
    for name, call in calls.items():
        with pytest.raises(QueryTimeoutError):
            call()
    # Through the engine: an already expired deadline is a timeout, not a result.
    with pytest.raises(QueryTimeoutError):
        execute(_limited_join(), DATABASE, limits=QueryLimits(deadline=Deadline(0.0)))
