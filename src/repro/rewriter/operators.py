"""Physical temporal operators used by the rewritten plans.

The paper's rewriting (Fig. 4) relies on two operators that ordinary SQL
does not provide as primitives -- *coalesce* ``C`` and *split* ``N_G`` --
plus the optimisation of Section 9 that fuses pre-aggregation with the
split step.  In the real middleware these are emitted as SQL subqueries
built from analytic window functions; here they are
:class:`~repro.engine.executor.PhysicalOperator` subclasses executed by the
engine through its extension hook.  The coalesce operator evaluates the SQL
window formulation (running count of open intervals per value group,
changepoint filter, ``lead`` to the next changepoint) as one fused
sweep-line pass per group -- the same ``O(n log n)`` sort-based cost the
paper reports (Figure 5) without materialising the three intermediate
window tables.

All three operators work on PERIODENC-encoded tables: data attributes plus
``t_begin`` / ``t_end``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.expressions import Attribute
from ..algebra.operators import AggregateSpec, Operator, Projection
from ..engine import kernels as _kernels
from ..engine.executor import ExecutionContext, ExecutorError, PhysicalOperator
from ..engine.sweeps import collect_group_endpoints, split_segments
from ..engine.table import Table, tuple_getter
from ..temporal.coalesce import coalesce_column_sets, coalesce_vectorized
from .periodenc import T_BEGIN, T_END

if TYPE_CHECKING:  # engine.batch imports this module's host package lazily
    from ..engine.batch import ColumnarBatch

__all__ = ["CoalesceOperator", "SplitOperator", "TemporalAggregateOperator"]


def _data_attributes(table: Table, period: Tuple[str, str]) -> Tuple[str, ...]:
    return tuple(a for a in table.schema if a not in period)


def _batch_group_keys(batch: "ColumnarBatch", attributes: Tuple[str, ...]) -> Sequence[Any]:
    """Per-row group keys of a batch: zero-copy for one attribute, zipped tuples else."""
    if len(attributes) == 1:
        return batch.columns[batch.column_index(attributes[0])]
    if attributes:
        return list(
            zip(*(batch.columns[batch.column_index(a)] for a in attributes))
        )
    return [()] * len(batch.counts)


@dataclass(frozen=True)
class CoalesceOperator(PhysicalOperator):
    """Multiset coalescing ``C`` over a PERIODENC-encoded input.

    For every group of value-equivalent rows the operator counts the number
    of open validity intervals per interval end point (a running sum over
    +1/-1 events), keeps the points where that count changes (the annotation
    changepoints of Definition 5.2) and emits one maximal interval per
    changepoint with a positive count, duplicated ``count`` times.  The
    result is the unique N-coalesced encoding of the input's temporal
    N-elements.
    """

    child: Operator
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "CoalesceOperator":
        return CoalesceOperator(child, self.period)

    def __repr__(self) -> str:
        return f"Coalesce(period={self.period[0]}..{self.period[1]})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        (child,) = child_schemas
        if child is None or not set(self.period) <= set(child):
            return None
        return tuple(a for a in child if a not in self.period) + self.period

    def planner_selection_pushdown(self, attributes):
        # Coalescing partitions the input by its data attributes; a predicate
        # over data attributes keeps or drops whole partitions, so it
        # commutes.  Predicates touching the period attributes must stay
        # above (coalescing changes the intervals).
        if attributes & set(self.period):
            return ()
        return (0,)

    def planner_projection_pushdown(self, columns, child_schemas):
        # A projection commutes with coalescing when it is a pure
        # *permutation/rename* of the data attributes (each referenced
        # exactly once -- dropping or duplicating one would change the
        # partitioning) that keeps the period attributes untouched as the
        # two trailing columns.
        (child,) = child_schemas
        if child is None or len(columns) < 2:
            return None
        begin, end = self.period
        if not all(isinstance(expr, Attribute) for expr, _name in columns):
            return None
        if tuple(columns[-2]) != (Attribute(begin), begin) or tuple(columns[-1]) != (
            Attribute(end),
            end,
        ):
            return None
        data = tuple(a for a in child if a not in self.period)
        sources = [expr.name for expr, _name in columns[:-2]]
        names = [name for _expr, name in columns]
        if sorted(sources) != sorted(data) or len(set(names)) != len(names):
            return None
        return CoalesceOperator(Projection(self.child, tuple(columns)), self.period)

    def execute(self, children: Sequence[Table], context: ExecutionContext) -> Table:
        (table,) = children
        begin_attr, end_attr = self.period
        data = _data_attributes(table, self.period)
        begin_index = table.column_index(begin_attr)
        end_index = table.column_index(end_attr)
        data_key = tuple_getter([table.column_index(a) for a in data])

        # Step 1: +1/-1 events per (value group, time point), pre-summed per
        # point.  One counter per value group so time points are only ever
        # compared within a group (data values may contain NULL padding).
        limited = context._limited
        deltas: Dict[Tuple[Any, ...], Counter] = {}
        for row in table.rows:
            if limited:
                context.checkpoint()
            begin, end = row[begin_index], row[end_index]
            # SQL semantics of the window formulation's ``WHERE begin < end``
            # prefilter: a NULL end point makes the comparison unknown, so
            # the row is dropped -- like a degenerate interval it holds at no
            # time point.
            if begin is None or end is None or begin >= end:
                continue
            bucket = deltas.get(values := data_key(row))
            if bucket is None:
                bucket = deltas[values] = Counter()
            bucket[begin] += 1
            bucket[end] -= 1

        # Step 2: one sweep per value group over its sorted time points,
        # maintaining the running count of open intervals (the SQL
        # formulation's ``sum(delta) OVER (PARTITION BY data ORDER BY ts)``,
        # its changepoint filter and its ``lead(ts)`` fused into one pass).
        # A point whose net delta is zero leaves the count unchanged and is
        # skipped; each changepoint with a positive count emits the maximal
        # interval up to the next changepoint, ``count`` times.
        result = Table("coalesce", data + self.period)
        out = result.rows
        for values, bucket in deltas.items():
            if limited:
                context.checkpoint(len(out))
            open_since: Any = None
            open_count = 0
            for ts in sorted(bucket):
                delta = bucket[ts]
                if delta == 0:
                    continue
                if open_count > 0:
                    out.extend([values + (open_since, ts)] * open_count)
                open_since = ts
                open_count += delta
            # The deltas of a group sum to zero, so the sweep always closes.
        context.count("coalesce_input_rows", len(table))
        context.count("coalesce_output_rows", len(result))
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar coalescing: one entry per maximal interval, with its count.

        Same sweep as :meth:`execute`, but the input multiplicity column
        feeds the +1/-1 events directly and each maximal interval comes back
        as *one* batch entry carrying its open-interval count -- no
        duplicate tuples are materialised until the batch leaves the engine.
        All-ones inputs at the kernel cutover run :func:`repro.temporal
        .coalesce.coalesce_vectorized` over the columns' typed forms
        (counted as ``batch.coalesce_vectorized``; the grouping attributes
        come back gathered at each group's first row, never as key tuples);
        what it declines, and everything else, runs the scalar sweeps of
        :func:`~repro.temporal.coalesce.coalesce_column_sets` on the value
        lists.
        """
        from ..engine.batch import ColumnarBatch

        (batch,) = children
        begin_attr, end_attr = self.period
        data = tuple(a for a in batch.schema if a not in self.period)
        begin_at, end_at = batch.column_index(begin_attr), batch.column_index(end_attr)
        data_at = [batch.column_index(a) for a in data]
        limited = context._limited
        if limited:
            context.checkpoint()
        served = None
        if batch.all_ones() and _kernels.worthwhile(len(batch)):
            typed = batch.typed
            served = coalesce_vectorized(
                [typed[index] for index in data_at],
                typed[begin_at],
                typed[end_at],
                context.stage_checkpoint if limited else None,
            )
        vectorized = served is not None
        if vectorized:
            context.count("batch.coalesce_vectorized")
        else:
            columns = batch.columns
            served = coalesce_column_sets(
                [columns[index] for index in data_at],
                columns[begin_at],
                columns[end_at],
                batch.counts,
            )
        out_data, out_begins, out_ends, out_counts = served
        result = ColumnarBatch(
            "coalesce",
            data + self.period,
            [*out_data, out_begins, out_ends],
            out_counts,
            typed=vectorized,
        )
        context.count("coalesce_input_rows", batch.weight())
        context.count("coalesce_output_rows", result.weight())
        if limited:
            context.checkpoint(result.weight())
        return result


@dataclass(frozen=True)
class SplitOperator(PhysicalOperator):
    """The split operator ``N_G(R1, R2)`` (Definition 8.3).

    Every row of the left input is split at all interval end points of rows
    (from either input) that agree with it on the attributes ``group_by``.
    Afterwards, value-equivalent rows within a group either carry identical
    intervals or disjoint ones, so point-wise operations (monus, grouped
    aggregation) can be evaluated interval-at-a-time.
    """

    left: Operator
    right: Operator
    group_by: Tuple[str, ...]
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, left: Operator, right: Operator) -> "SplitOperator":
        return SplitOperator(left, right, self.group_by, self.period)

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        return f"Split(group by {groups})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        return child_schemas[0]

    def planner_selection_pushdown(self, attributes):
        # A predicate over the grouping attributes keeps or drops whole
        # groups.  End points are collected per group from *both* inputs, so
        # the selection must be applied to both children; the surviving
        # groups then see exactly the same cut points as before.
        if attributes and attributes <= set(self.group_by):
            return (0, 1)
        return ()

    def planner_projection_pushdown(self, columns, child_schemas):
        # Splitting only rewrites the period attributes and only reads the
        # grouping attributes, so an attribute-only projection sinks into the
        # left input when it keeps group and period attributes untouched
        # under their own names -- and references the period attributes
        # *only* through those identity columns (a copy such as
        # ``t_begin AS orig_begin`` would freeze the pre-split value).
        begin, end = self.period
        if not all(isinstance(expr, Attribute) for expr, _name in columns):
            return None
        pairs = [(expr.name, name) for expr, name in columns]
        period_pairs = sorted(
            (source, name)
            for source, name in pairs
            if source in self.period or name in self.period
        )
        if period_pairs != sorted(((begin, begin), (end, end))):
            return None
        if any((attribute, attribute) not in pairs for attribute in self.group_by):
            return None
        return SplitOperator(
            Projection(self.left, tuple(columns)), self.right, self.group_by, self.period
        )

    def execute(self, children: Sequence[Table], context: ExecutionContext) -> Table:
        left, right = children
        begin_attr, end_attr = self.period
        for attribute in self.group_by:
            if not left.has_attribute(attribute):
                raise ExecutorError(
                    f"split group attribute {attribute!r} missing from {left.schema}"
                )

        endpoints = self._endpoints_by_group(left, right)
        begin_index = left.column_index(begin_attr)
        end_index = left.column_index(end_attr)
        group_key = tuple_getter([left.column_index(a) for a in self.group_by])

        limited = context._limited
        result = Table("split", left.schema)
        for row in left.rows:
            if limited:
                context.checkpoint(len(result.rows))
            begin, end = row[begin_index], row[end_index]
            # NULL end points drop the row (SQL's ``WHERE begin < end``), and
            # NULL cut points never satisfy ``begin < p < end`` -- matching
            # the compiled window SQL's three-valued comparisons.
            if begin is None or end is None or begin >= end:
                continue
            cuts = [
                p
                for p in endpoints.get(group_key(row), ())
                if p is not None and begin < p < end
            ]
            bounds = [begin, *sorted(set(cuts)), end]
            for piece_begin, piece_end in zip(bounds, bounds[1:]):
                piece = list(row)
                piece[begin_index] = piece_begin
                piece[end_index] = piece_end
                result.append(tuple(piece))
        context.count("split_output_rows", len(result))
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar split: each left row's interval is cut once, column-wise.

        The cut points come from :func:`repro.engine.kernels
        .split_segments_vectorized` (all groups in one sorted array of end
        points, counted as ``batch.split_vectorized``) or, for what it
        declines, from the per-group sweep helpers in
        :mod:`repro.engine.sweeps`.  Either way end points are collected per
        group from both children's columns, data columns are rebuilt with
        one index gather per attribute (on the kernel route a lazy one: the
        typed forms follow, the values of an attribute nobody reads are
        never gathered) and multiplicities follow their source row (every
        duplicate splits identically).
        """
        from ..engine.batch import ColumnarBatch

        left, right = children
        begin_attr, end_attr = self.period
        for attribute in self.group_by:
            if not left.has_attribute(attribute):
                raise ExecutorError(
                    f"split group attribute {attribute!r} missing from {left.schema}"
                )
        limited = context._limited
        if limited:
            context.checkpoint()

        begin_index = left.column_index(begin_attr)
        end_index = left.column_index(end_attr)
        right_begin_index = right.column_index(begin_attr)
        right_end_index = right.column_index(end_attr)
        segments = None
        if _kernels.worthwhile(len(left) + len(right)):
            left_typed, right_typed = left.typed, right.typed
            segments = _kernels.split_segments_vectorized(
                [left_typed[left.column_index(a)] for a in self.group_by],
                left_typed[begin_index],
                left_typed[end_index],
                [right_typed[right.column_index(a)] for a in self.group_by],
                right_typed[right_begin_index],
                right_typed[right_end_index],
                context.stage_checkpoint if limited else None,
            )
        vectorized = segments is not None
        if vectorized:
            context.count("batch.split_vectorized")
            at, piece_begins, piece_ends = segments
            row_indexes = at.tolist()
        else:
            left_columns, right_columns = left.columns, right.columns
            left_begins, left_ends = left_columns[begin_index], left_columns[end_index]
            left_keys = _batch_group_keys(left, self.group_by)
            endpoints = collect_group_endpoints(left_keys, left_begins, left_ends)
            collect_group_endpoints(
                _batch_group_keys(right, self.group_by),
                right_columns[right_begin_index],
                right_columns[right_end_index],
                into=endpoints,
            )
            row_indexes, piece_begins, piece_ends = split_segments(
                left_keys, left_begins, left_ends, endpoints
            )
        counts = (
            [1] * len(row_indexes)
            if left.all_ones()
            else _kernels.gather(left.counts, row_indexes)
        )
        if limited:
            # The pieces are three index columns so far: refuse an
            # over-budget split before gathering any data column.
            context.stage_checkpoint(
                len(counts) if left.all_ones() else sum(counts)
            )
        columns: List[Any] = []
        for position, column in enumerate(left.typed if vectorized else left.columns):
            if position == begin_index:
                columns.append(piece_begins)
            elif position == end_index:
                columns.append(piece_ends)
            elif vectorized:
                columns.append(_kernels.Column.gathered(column, at))
            else:
                columns.append(_kernels.gather(column, row_indexes))
        result = ColumnarBatch(
            "split",
            left.schema,
            columns,
            counts,
            True if left.all_ones() else None,
            typed=vectorized,
        )
        context.count("split_output_rows", result.weight())
        return result

    def _endpoints_by_group(
        self, left: Table, right: Table
    ) -> Dict[Tuple[Any, ...], set]:
        endpoints: Dict[Tuple[Any, ...], set] = {}
        for table in (left, right):
            begin_index = table.column_index(self.period[0])
            end_index = table.column_index(self.period[1])
            group_key = tuple_getter([table.column_index(a) for a in self.group_by])
            for row in table.rows:
                bucket = endpoints.setdefault(group_key(row), set())
                bucket.add(row[begin_index])
                bucket.add(row[end_index])
        return endpoints


@dataclass(frozen=True)
class TemporalAggregateOperator(PhysicalOperator):
    """Fused split + aggregation (the optimisation of Section 9).

    Rather than materialising the split of the input and feeding it to a
    standard aggregation grouped by ``(G, t_begin, t_end)``, this operator
    sweeps each group's interval end points once, maintaining running
    aggregate state, and emits one result row per segment between
    consecutive end points.  In that per-group sweep (the row path, and the
    twin of the whole-column kernel) ``count``/``sum``/``avg`` are maintained
    incrementally and ``min``/``max`` keep a multiset of open values.

    ``count(*)`` must have been pre-rewritten to ``count(A)`` over a
    constant attribute (Fig. 4's rule), so ``NULL`` padding rows added for
    gap coverage are not counted.
    """

    child: Operator
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "TemporalAggregateOperator":
        return TemporalAggregateOperator(
            child, self.group_by, self.aggregates, self.period
        )

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"TemporalAggregate(group by {groups}; {aggs})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        return (
            tuple(self.group_by)
            + tuple(spec.alias for spec in self.aggregates)
            + self.period
        )

    def planner_selection_pushdown(self, attributes):
        # Groups are swept independently, so grouping-attribute predicates
        # commute.  With an empty group_by the operator aggregates a single
        # (gap-padded) group; nothing may move below it then.
        if attributes and attributes <= set(self.group_by):
            return (0,)
        return ()

    def execute(self, children: Sequence[Table], context: ExecutionContext) -> Table:
        (table,) = children
        begin_attr, end_attr = self.period
        begin_index = table.column_index(begin_attr)
        end_index = table.column_index(end_attr)
        group_indexes = [table.column_index(a) for a in self.group_by]
        schema = table.schema

        # Pre-aggregation: bucket identical (group, argument values, period)
        # rows and keep only their multiplicity.  This is what makes the
        # subsequent sort-and-sweep operate on a much smaller input.
        # Aggregate arguments are compiled once against the input schema and
        # evaluated on the raw row tuples.
        compiled_arguments = tuple(
            None if spec.argument is None else spec.argument.compile(schema)
            for spec in self.aggregates
        )
        group_key = tuple_getter(group_indexes)
        limited = context._limited
        buckets: Counter = Counter()
        for row in table.rows:
            if limited:
                context.checkpoint()
            begin, end = row[begin_index], row[end_index]
            # SQL's ``WHERE begin < end`` prefilter: NULL end points drop the
            # row, exactly like the compiled segmentation SQL.
            if begin is None or end is None or begin >= end:
                continue
            args = tuple(
                None if argument is None else argument(row)
                for argument in compiled_arguments
            )
            buckets[group_key(row) + args + (begin, end)] += 1
        context.count("preaggregated_rows", len(buckets))

        # Sweep each group's end points.
        n_group = len(self.group_by)
        n_args = len(self.aggregates)
        groups: Dict[Tuple[Any, ...], List[Tuple[int, int, Tuple[Any, ...], int]]] = {}
        for key, multiplicity in buckets.items():
            group_key = key[:n_group]
            args = key[n_group : n_group + n_args]
            begin, end = key[-2], key[-1]
            groups.setdefault(group_key, []).append((begin, end, args, multiplicity))

        result = Table(
            "temporal_aggregation",
            self.group_by + tuple(spec.alias for spec in self.aggregates) + self.period,
        )
        for group_key, facts in groups.items():
            if limited:
                context.checkpoint(len(result.rows))
            self._sweep_group(group_key, facts, result.append)
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar fused split + aggregation.

        All five aggregates over int-or-NULL arguments run as whole-column
        sweeps over every group's events at once (:func:`repro.engine.kernels
        .temporal_aggregate_vectorized`, counted as
        ``batch.aggregate_vectorized``).  Anything that kernel declines --
        ``bool``/float arguments, NULL end points, small inputs --
        pre-aggregates instead: bucket keys are built with one nested ``zip``
        over (group, argument, period) columns, weighting each row by its
        multiplicity, and the per-group sweep is shared with the row path.
        """
        from ..engine.batch import ColumnarBatch

        (batch,) = children
        begin_attr, end_attr = self.period
        n = len(batch.counts)
        schema = batch.schema
        out_schema = (
            self.group_by + tuple(spec.alias for spec in self.aggregates) + self.period
        )
        begin_index = batch.column_index(begin_attr)
        end_index = batch.column_index(end_attr)
        group_indexes = [batch.column_index(a) for a in self.group_by]
        limited = context._limited
        if limited:
            context.checkpoint()

        if _kernels.worthwhile(n):
            typed = batch.typed
            group_columns = [typed[index] for index in group_indexes]
            served = _kernels.temporal_aggregate_vectorized(
                group_columns,
                typed[begin_index],
                typed[end_index],
                None if batch.all_ones() else batch.counts,
                [(spec.func, self._argument(spec, batch)) for spec in self.aggregates],
                context.stage_checkpoint if limited else None,
            )
            if served is not None:
                context.count("batch.aggregate_vectorized")
                group_rows, value_columns, out_begins, out_ends = served
                columns = [
                    _kernels.Column.gathered(column, group_rows) for column in group_columns
                ]
                columns += value_columns + [out_begins, out_ends]
                return ColumnarBatch(
                    "temporal_aggregation",
                    out_schema,
                    columns,
                    [1] * len(group_rows),
                    all_ones=True,
                    typed=True,
                )

        columns = batch.columns
        argument_lists = [
            [None] * n
            if spec.argument is None
            else spec.argument.compile_batch(schema)(columns, n)
            for spec in self.aggregates
        ]
        buckets: Dict[Tuple[Any, ...], int] = {}
        get = buckets.get
        for key, count in zip(
            zip(
                *(columns[index] for index in group_indexes),
                *argument_lists,
                columns[begin_index],
                columns[end_index],
            ),
            batch.counts,
        ):
            begin, end = key[-2], key[-1]
            if begin is None or end is None or begin >= end:
                continue
            buckets[key] = get(key, 0) + count
        context.count("preaggregated_rows", len(buckets))

        n_group = len(self.group_by)
        n_args = len(self.aggregates)
        groups: Dict[Tuple[Any, ...], List[Tuple[int, int, Tuple[Any, ...], int]]] = {}
        for key, multiplicity in buckets.items():
            group_key = key[:n_group]
            args = key[n_group : n_group + n_args]
            begin, end = key[-2], key[-1]
            groups.setdefault(group_key, []).append((begin, end, args, multiplicity))

        rows: List[Tuple[Any, ...]] = []
        append = rows.append
        for group_key, facts in groups.items():
            if limited:
                context.checkpoint(len(rows))
            self._sweep_group(group_key, facts, append)
        return ColumnarBatch.from_rows("temporal_aggregation", out_schema, rows)

    @staticmethod
    def _argument(spec: AggregateSpec, batch: "ColumnarBatch") -> Optional[_kernels.Column]:
        """The aggregate's argument as a typed column (``None`` for ``count(*)``)."""
        if spec.argument is None:
            return None
        if isinstance(spec.argument, Attribute):
            return batch.typed[batch.column_index(spec.argument.name)]
        evaluate = spec.argument.compile_batch(batch.schema)
        return _kernels.Column(evaluate(batch.columns, len(batch)))

    # -- sweep ---------------------------------------------------------------------------

    def _sweep_group(
        self,
        group_key: Tuple[Any, ...],
        facts: List[Tuple[int, int, Tuple[Any, ...], int]],
        append: Callable[[Tuple[Any, ...]], None],
    ) -> None:
        events: Dict[int, List[Tuple[int, Tuple[Any, ...], int]]] = {}
        for begin, end, args, multiplicity in facts:
            events.setdefault(begin, []).append((+1, args, multiplicity))
            events.setdefault(end, []).append((-1, args, multiplicity))
        timestamps = sorted(events)

        state = _AggregateState(self.aggregates)
        previous: Optional[int] = None
        for ts in timestamps:
            if previous is not None and previous < ts and state.has_open_rows():
                append(group_key + state.values() + (previous, ts))
            for sign, args, multiplicity in events[ts]:
                state.apply(sign, args, multiplicity)
            previous = ts


class _AggregateState:
    """Incremental aggregate state for one group during the sweep."""

    def __init__(self, aggregates: Tuple[AggregateSpec, ...]) -> None:
        self.aggregates = aggregates
        self.open_rows = 0
        self.counts = [0] * len(aggregates)
        self.sums = [0] * len(aggregates)
        self.value_multisets: List[Counter] = [Counter() for _ in aggregates]

    def has_open_rows(self) -> bool:
        return self.open_rows > 0

    def apply(self, sign: int, args: Tuple[Any, ...], multiplicity: int) -> None:
        self.open_rows += sign * multiplicity
        for position, spec in enumerate(self.aggregates):
            value = args[position]
            if spec.argument is None:
                # count(*): every open row counts, including padding rows.
                self.counts[position] += sign * multiplicity
                continue
            if value is None:
                continue
            self.counts[position] += sign * multiplicity
            if spec.func in ("sum", "avg"):
                self.sums[position] += sign * multiplicity * value
            if spec.func in ("min", "max"):
                self.value_multisets[position][value] += sign * multiplicity
                if self.value_multisets[position][value] == 0:
                    del self.value_multisets[position][value]

    def values(self) -> Tuple[Any, ...]:
        output: List[Any] = []
        for position, spec in enumerate(self.aggregates):
            count = self.counts[position]
            if spec.func == "count":
                output.append(count)
            elif spec.func == "sum":
                output.append(self.sums[position] if count else None)
            elif spec.func == "avg":
                output.append(self.sums[position] / count if count else None)
            elif spec.func == "min":
                values = self.value_multisets[position]
                output.append(min(values) if values else None)
            elif spec.func == "max":
                values = self.value_multisets[position]
                output.append(max(values) if values else None)
            else:  # pragma: no cover - AggregateSpec validates functions
                raise ExecutorError(f"unknown aggregate {spec.func!r}")
        return tuple(output)
