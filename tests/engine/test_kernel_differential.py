"""Each whole-column kernel against its scalar twin and the row reference.

:mod:`repro.engine.kernels` serves the interval join, the split operator,
``count``/``sum``/``avg`` temporal aggregation and coalescing above a fixed
row-count cutover; below it, and for whatever a kernel declines, the scalar
sweeps run.  The hypothesis sweeps here execute one physical plan three ways --
row reference, engine with the cutover at 0 (kernels wherever they accept)
and engine with the kernels out of reach -- over NULL keys, NULL and
degenerate end points, ``bool``/float/mixed/string/composite keys and
``counts > 1`` inputs, and demand the same bag.  The fixed cases pin the
routes (which counter fires at cutover -1/0/+1, under limits, on overflow)
and the digest-sensitive arithmetic (``avg`` above 2**53, ``sum`` at the
int64 edge).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Comparison, and_, attr
from repro.algebra.operators import (
    AggregateSpec,
    ConstantRelation,
    Join,
    RelationAccess,
    Rename,
)
from repro.engine import kernels
from repro.engine.catalog import Database
from repro.engine.executor import ExecutionContext, execute
from repro.engine.sweeps import (
    collect_group_endpoints,
    interval_sweep,
    partition_by_keys,
    split_segments,
)
from repro.errors import QueryTimeoutError, ResourceLimitError
from repro.execution import Deadline, QueryLimits
from repro.rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)
from repro.rewriter.pipeline import QueryPipeline
from repro.temporal import coalesce as coalescing
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
    for name in ("join_strategy.interval_vectorized", "batch.split_vectorized",
                 "batch.aggregate_vectorized"):
        assert name not in scalar_statistics
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
        spec.func != "max" and (spec.func == "count" or spec.alias != "ktotal" or all(
            type(row[1]) in (int, type(None)) for row in rows))
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
    served = kernels.interval_join_vectorized(
        [[row[i] for row in left_rows] for i, _ in keys],
        [[row[i] for row in right_rows] for _, i in keys],
        ([row[3] for row in left_rows], [row[4] for row in left_rows]),
        ([row[3] for row in right_rows], [row[4] for row in right_rows]),
        left_rows,
        right_rows,
        left_counts,
        None,
        None,
    )
    assert served is not None
    rows, counts = served
    kernel_bag: Counter = Counter()
    for row, count in zip(rows, counts or [1] * len(rows)):
        kernel_bag[row] += count

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
    columns = lambda rows: [[row[i] for row in rows] for i in range(5)]  # noqa: E731
    left, right = columns(left_rows), columns(right_rows)
    served = kernels.split_segments_vectorized(
        left[:n_keys], left[3], left[4], right[:n_keys], right[3], right[4]
    )
    if any(type(t) is not int for t in left[3] + left[4] + right[3] + right[4]):
        assert served is None
        return
    group = lambda c: list(zip(*c[:n_keys])) if n_keys else [()] * len(c[3])  # noqa: E731
    endpoints = collect_group_endpoints(group(left), left[3], left[4])
    collect_group_endpoints(group(right), right[3], right[4], into=endpoints)
    assert served == split_segments(group(left), left[3], left[4], endpoints)


@settings(max_examples=150, deadline=None)
@given(data=tables())
def test_coalesce_kernel_matches_scalar_and_reference(data):
    """No counter names coalescing's route: the twins are also compared directly."""
    rows = data[0] + data[1]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _three_ways(CoalesceOperator(_relation(rows)), monkeypatch)
    key_columns = [[row[i] for row in rows] for i in range(3)]
    begins, ends = [row[3] for row in rows], [row[4] for row in rows]
    served = coalescing._coalesce_columns_numpy(key_columns, begins, ends)
    if not _plain_end_points(rows):
        assert served is None
        return
    assert served is not None
    kernel_keys, *kernel_periods = served
    twin = coalescing.coalesce_columns(
        list(zip(*key_columns)), begins, ends, [1] * len(rows)
    )
    # Same entries in the same order (groups by first valid row), printed alike.
    assert repr((list(zip(*kernel_keys)), *kernel_periods)) == repr(twin)


# -- routes: cutover, counters, explain -------------------------------------------------


def _keyed_rows(n: int, offset: int = 0):
    return [(i % 7, "x", i, offset + i % 11, offset + i % 11 + 3) for i in range(n)]


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_cutover_decides_the_route_and_not_the_result(delta, monkeypatch):
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

    # Coalescing has no route counter; watch its kernel being called instead.
    kernel, calls = coalescing._coalesce_columns_numpy, []

    def watched(*columns):
        calls.append(len(columns[1]))
        return kernel(*columns)

    monkeypatch.setattr(coalescing, "_coalesce_columns_numpy", watched)
    coalesce = CoalesceOperator(_relation(left_rows + right_rows))
    result = execute(coalesce, DATABASE)
    assert Counter(result.rows) == Counter(execute(coalesce, DATABASE, executor="row").rows)
    assert calls == ([total] if expect_kernel else [])


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


def test_min_max_and_float_arguments_keep_the_scalar_sweep():
    rows = [(i % 5, "x", i * 0.5, i % 9, i % 9 + 2) for i in range(kernels.KERNEL_CUTOVER)]
    for spec in (AggregateSpec("max", attr("k1"), "top"), AggregateSpec("sum", attr("v"), "s")):
        plan = TemporalAggregateOperator(_relation(rows), ("k1",), (spec,))
        statistics: Dict[str, int] = {}
        result = execute(plan, DATABASE, statistics)
        assert "batch.aggregate_vectorized" not in statistics
        assert Counter(result.rows) == Counter(execute(plan, DATABASE, executor="row").rows)


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
    assert kernels.pack_span(4, [kernels.int_array([0, far + 9])]) is None
    # One group fits the same span: the decline is the product, not the span.
    assert kernels.pack_span(1, [kernels.int_array([0, far + 9])]) == (0, far + 10)


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


class _Unbuildable(tuple):
    """A row that fails the test if anyone concatenates it into an output tuple."""

    def __add__(self, other):
        raise AssertionError("the kernel built a tuple before checking the budget")


def test_a_tiny_row_budget_stops_the_join_before_any_tuple_is_built():
    statistics: Dict[str, int] = {}
    with pytest.raises(ResourceLimitError, match="exceeding the 1000-row budget"):
        execute(_limited_join(), DATABASE, statistics, limits=QueryLimits(row_budget=1000))
    # Both inputs fit the budget; the join was refused, never counted as served.
    assert statistics["join_strategy.interval"] == 1
    assert "join_strategy.interval_vectorized" not in statistics

    rows = _keyed_rows(kernels.KERNEL_CUTOVER)
    columns = [[row[i] for row in rows] for i in range(5)]
    context = ExecutionContext(DATABASE, row_budget=1000)
    with pytest.raises(ResourceLimitError):
        kernels.interval_join_vectorized(
            [columns[0]], [columns[0]], (columns[3], columns[4]), (columns[3], columns[4]),
            [_Unbuildable(row) for row in rows], rows, None, None, None,
            context.stage_checkpoint,
        )


def test_an_expired_deadline_stops_a_kernel_between_stages():
    deadline = Deadline(300.0)
    polls_seen = []

    def checkpoint(produced: int) -> None:
        polls_seen.append(produced)
        deadline.check()

    rows = _keyed_rows(kernels.KERNEL_CUTOVER)
    columns = [[row[i] for row in rows] for i in range(5)]
    arguments = ([columns[0]], [columns[0]], (columns[3], columns[4]), (columns[3], columns[4]),
                 rows, rows, None, None, None)
    assert kernels.interval_join_vectorized(*arguments, checkpoint) is not None
    assert len(polls_seen) >= 3  # a check between every pair of stages
    deadline.expires_at = float("-inf")
    with pytest.raises(QueryTimeoutError):
        kernels.interval_join_vectorized(*arguments, checkpoint)
    with pytest.raises(QueryTimeoutError):
        kernels.split_segments_vectorized(
            [columns[0]], columns[3], columns[4], [columns[0]], columns[3], columns[4], checkpoint
        )
    with pytest.raises(QueryTimeoutError):
        kernels.temporal_aggregate_vectorized(
            [columns[0]], columns[3], columns[4], None, [("count", None)], checkpoint
        )
    # Through the engine: an already expired deadline is a timeout, not a result.
    with pytest.raises(QueryTimeoutError):
        execute(_limited_join(), DATABASE, limits=QueryLimits(deadline=Deadline(0.0)))
