"""Physical temporal operators used by the rewritten plans.

The paper's rewriting (Fig. 4) relies on two operators that ordinary SQL
does not provide as primitives -- *coalesce* ``C`` and *split* ``N_G`` --
plus the optimisation of Section 9 that fuses pre-aggregation with the
split step.  REWR emits coalesce, the fused aggregation and a fourth
operator, the *monus sweep* that evaluates temporal bag difference and
distinct pointwise without splitting; split remains for the ablation's
split-based rewriting and the native baselines (:mod:`repro.baselines`).
In the real middleware these are emitted as SQL subqueries built from
analytic window functions (:mod:`repro.backends.sqlcompile`, where
coalescing and the monus are one window sweep too); here they are
:class:`~repro.engine.executor.PhysicalOperator` subclasses with two entry
points each:

* ``execute_batch`` -- the engine: the operator's whole-column kernel
  (:mod:`repro.engine.kernels`) when :func:`repro.engine.kernels.worthwhile`
  says so and the kernel does not decline, its scalar algorithm otherwise;
* ``execute`` -- the row reference: the same scalar algorithm over a
  table, every multiplicity 1, with the multiplicities it returns expanded
  into duplicate rows.

The scalar algorithms are defined once, in :mod:`repro.engine.sweeps`, and
both entry points reach them through one ``_scalar`` method per operator
that reads its inputs' columns by name (a :class:`~repro.engine.table.Table`
and a ``ColumnarBatch`` both answer ``column(attribute)``).  Coalescing and
the monus sweep are one operator algorithm (:class:`_StepSweep`): the SQL
window formulation of coalescing (running count of open intervals per
value group, changepoint filter, ``lead`` to the next changepoint) fused
into one sweep-line pass -- the same ``O(n log n)`` sort-based cost the
paper reports (Figure 5) without materialising the three intermediate
window tables -- whose level is the running count for coalescing, its
monus with a second input's for difference and its clamp to 1 for
distinct.  The monus sweep and the temporal aggregate emit the coalesced
encoding themselves, so a coalesce over either passes its input through
(:class:`CoalesceOperator`).

All four operators work on PERIODENC-encoded tables: data attributes plus
``t_begin`` / ``t_end``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, List, Optional, Sequence, Tuple, Union

from ..algebra.expressions import Attribute
from ..algebra.operators import AggregateSpec, Operator, Projection
from ..engine import kernels as _kernels
from ..engine import sweeps as _sweeps
from ..engine.executor import ExecutionContext, ExecutorError, PhysicalOperator
from ..engine.table import Table
from .periodenc import T_BEGIN, T_END

if TYPE_CHECKING:  # engine.batch imports this module's host package lazily
    from ..engine.batch import ColumnarBatch

__all__ = ["CoalesceOperator", "MonusOperator", "SplitOperator", "TemporalAggregateOperator"]

#: What a scalar route reads its columns from: the reference's table or the engine's batch.
Relation = Union[Table, "ColumnarBatch"]


def _data_attributes(schema: Sequence[str], period: Tuple[str, str]) -> Tuple[str, ...]:
    return tuple(a for a in schema if a not in period)


class _StepSweep(PhysicalOperator):
    """What coalescing, temporal bag difference and distinct share: one sweep.

    Per value tuple, a PERIODENC input is a step function from time to a
    multiplicity, and each of the three operators emits the changepoints of
    one level of it (Definition 5.3's K-coalesced normal form): ``l`` for
    coalescing, ``max(l - r, 0)`` for difference, ``min(l, 1)`` for
    distinct.  Both entry points run the one sweep,
    :func:`repro.engine.sweeps.monus` or its whole-column twin
    :func:`repro.engine.kernels.monus_vectorized` -- the temporal
    aggregate's step sweep with ``count(*)`` over signed multiplicities as
    the level -- and gather the first input's data attributes at the rows
    the groups print under.  A subclass names the result (:attr:`_name`,
    also its kernel counter ``batch.<name>_vectorized``) and says what
    differs: its schema, its level and its own counters.
    """

    _name: ClassVar[str]

    def _schema(self, schema: Sequence[str], data: Tuple[str, ...]) -> Tuple[str, ...]:
        """The output schema, given the first input's and its data attributes."""
        return tuple(schema)

    def _distinct(self) -> bool:
        """Whether the level is clamped to ``min(l, 1)``."""
        return False

    def _passes_through(self, schema: Sequence[str]) -> bool:
        """Whether the first input is already this operator's output."""
        return False

    def _count_rows(self, context: ExecutionContext, rows_in: int, rows_out: int) -> None:
        """Count what a subclass reports of its input and output weight."""

    def execute(self, children: Sequence[Table], context: ExecutionContext) -> Table:
        """The row reference: :meth:`_scalar`, each maximal interval ``count`` times."""
        left = children[0]
        if self._passes_through(left.schema):
            result = left.clone(self._name)
            self._count_rows(context, len(left), len(result))
            return result
        data = self._check_attributes(children)
        inputs = [self._sweep_input(data, table.column, [1] * len(table)) for table in children]
        at, begins, ends, counts = self._scalar(*inputs)
        schema = self._schema(left.schema, data)
        columns = self._output_columns(
            schema, data, _kernels.gather_columns(inputs[0][0], at), begins, ends
        )
        result = Table(self._name, schema)
        result.rows = _sweeps.expand(list(zip(*columns)), counts)
        self._count_rows(context, len(left), len(result))
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar sweep: one entry per maximal interval, with the level as its count.

        The inputs' multiplicity columns weight their events (a
        subtrahend's negatively), and no duplicate tuple is materialised
        until the batch leaves the engine.  From the kernel cutover on,
        :func:`repro.engine.kernels.monus_vectorized` sweeps the columns'
        typed forms with the temporal aggregate's kernel (counted as
        ``batch.<name>_vectorized``), and the output's data columns are the
        first input's gathered at the rows the groups print under, forms
        included; what it declines, and everything below the cutover, runs
        :meth:`_scalar` on the value lists.
        """
        from ..engine.batch import ColumnarBatch

        left = children[0]
        if self._passes_through(left.schema):
            result = left.relabelled(self._name, left.schema)
            self._count_rows(context, left.weight(), result.weight())
            return result
        data = self._check_attributes(children)
        distinct = self._distinct()
        limited = context._limited
        if limited:
            context.checkpoint()
        served = None
        if _kernels.worthwhile(sum(map(len, children))):
            inputs = [
                self._sweep_input(
                    data,
                    dict(zip(batch.schema, batch.typed)).__getitem__,
                    None if batch.all_ones() else batch.counts,
                )
                for batch in children
            ]
            served = _kernels.monus_vectorized(
                *inputs[0],
                inputs[1] if len(inputs) > 1 else None,
                context.stage_checkpoint if limited else None,
                distinct=distinct,
            )
        vectorized = served is not None
        if vectorized:
            context.count(f"batch.{self._name}_vectorized")
            at, begins, ends, counts = served
            gathered = [_kernels.Column.gathered(column, at) for column in inputs[0][0]]
        else:
            inputs = [
                self._sweep_input(
                    data, dict(zip(batch.schema, batch.columns)).__getitem__, batch.counts
                )
                for batch in children
            ]
            at, begins, ends, counts = self._scalar(*inputs)
            gathered = _kernels.gather_columns(inputs[0][0], at)
        schema = self._schema(left.schema, data)
        result = ColumnarBatch(
            self._name,
            schema,
            self._output_columns(schema, data, gathered, begins, ends),
            counts,
            True if distinct else None,
            typed=vectorized,
        )
        self._count_rows(context, left.weight(), result.weight())
        if limited:
            context.checkpoint(result.weight())
        return result

    def _check_attributes(self, children: Sequence[Relation]) -> Tuple[str, ...]:
        """The value-group attributes; every input must hold them and the period."""
        data = _data_attributes(children[0].schema, self.period)
        for relation in children:
            for attribute in data + self.period:
                if not relation.has_attribute(attribute):
                    raise ExecutorError(
                        f"{self._name} attribute {attribute!r} missing from {relation.schema}"
                    )
        return data

    def _sweep_input(
        self, data: Sequence[str], column: Callable[[str], Any], counts: Any
    ) -> Tuple[Any, ...]:
        """One input as the sweep takes it: its ``data`` columns, begins, ends and ``counts``."""
        begin_attr, end_attr = self.period
        return [column(a) for a in data], column(begin_attr), column(end_attr), counts

    def _scalar(
        self, left: Tuple[Any, ...], right: Optional[Tuple[Any, ...]] = None
    ) -> Tuple[List[int], List[Any], List[Any], List[int]]:
        """:func:`repro.engine.sweeps.monus` over the inputs' value lists."""
        return _sweeps.monus(*left, right, distinct=self._distinct())

    def _output_columns(
        self,
        schema: Sequence[str],
        data: Sequence[str],
        gathered: Sequence[Any],
        begins: Any,
        ends: Any,
    ) -> List[Any]:
        """The output in ``schema`` order: the ``gathered`` data columns, the period the segments."""
        columns = [*gathered, begins, ends]
        if tuple(schema) == data + self.period:
            return columns
        source = dict(zip(data + self.period, columns))
        return [source[attribute] for attribute in schema]


@dataclass(frozen=True)
class CoalesceOperator(_StepSweep):
    """Multiset coalescing ``C`` over a PERIODENC-encoded input.

    For every group of value-equivalent rows the operator counts the number
    of open validity intervals per interval end point (a running sum over
    +count/-count events), keeps the points where that count changes (the
    annotation changepoints of Definition 5.2) and emits one maximal
    interval per changepoint with a positive count, duplicated ``count``
    times: the step sweep with nothing to subtract and no clamp.  The
    result is the unique N-coalesced encoding of the input's temporal
    N-elements, its data attributes first and the period last.

    A child that emits that encoding already -- a monus sweep or a temporal
    aggregate over the same period, with the period last -- needs no sweep:
    over one (:meth:`_passes_through`) every entry point returns its input's
    entries under this operator's name.  Every entry point counts
    ``coalesce_input_rows`` and ``coalesce_output_rows``.
    """

    _name: ClassVar[str] = "coalesce"

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
        return self._schema(child, _data_attributes(child, self.period))

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

    # -- the sweep -----------------------------------------------------------------------

    def _schema(self, schema: Sequence[str], data: Tuple[str, ...]) -> Tuple[str, ...]:
        return data + self.period

    def _passes_through(self, schema: Sequence[str]) -> bool:
        """Whether the input is a monus sweep's or a temporal aggregate's output, period last."""
        return (
            isinstance(self.child, (MonusOperator, TemporalAggregateOperator))
            and self.child.period == self.period
            and tuple(schema[-2:]) == self.period
        )

    def _count_rows(self, context: ExecutionContext, rows_in: int, rows_out: int) -> None:
        context.count("coalesce_input_rows", rows_in)
        context.count("coalesce_output_rows", rows_out)


@dataclass(frozen=True)
class MonusOperator(_StepSweep):
    """Temporal bag difference ``left - right`` or, with no ``right``, distinct.

    Difference is the pointwise monus ``max(l - r, 0)`` of the two inputs'
    step functions and distinct is ``min(l, 1)``, the semiring's monus and
    δ applied to the annotations (Section 7) rather than spelled with
    splits.  One sweep per value group merges both inputs' begin and end
    events, carries the running ``l - r`` and emits a segment wherever the
    level changes (:class:`_StepSweep`), so the output is already the
    unique N-coalesced encoding: one entry per maximal interval, with the
    level as its count, and the coalesce REWR puts above a plan rooted in
    one passes it through.

    The value groups are the left input's data attributes (every attribute
    but the period); the right input must hold them under the same names.
    The output keeps the left input's schema, and each group prints under
    its first valid left row.  In SQL it is coalescing's window sweep over
    both inputs (:meth:`repro.backends.sqlcompile.SQLCompiler._step_sweep`).
    """

    _name: ClassVar[str] = "monus"

    left: Operator
    right: Optional[Operator] = None
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.left,) if self.right is None else (self.left, self.right)

    def with_children(self, *children: Operator) -> "MonusOperator":
        return MonusOperator(*children, period=self.period)

    def __repr__(self) -> str:
        return f"Monus({'distinct' if self.right is None else 'difference'})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        return child_schemas[0]

    def planner_selection_pushdown(self, attributes):
        # Value groups are swept independently, and a predicate over data
        # attributes keeps or drops whole groups -- on both inputs alike,
        # which hold them under the same names.  The sweep changes the
        # intervals, so period predicates stay above.
        if attributes & set(self.period):
            return ()
        return tuple(range(len(self.children())))

    # -- the sweep -----------------------------------------------------------------------

    def _distinct(self) -> bool:
        return self.right is None


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
        """The row reference: :meth:`_scalar`, each piece its source row with the new period."""
        left, right = children
        self._check_group_attributes(left, right)
        row_indexes, piece_begins, piece_ends = self._scalar(left, right)
        begin_attr, end_attr = self.period
        columns = [
            piece_begins
            if attribute == begin_attr
            else piece_ends
            if attribute == end_attr
            else _kernels.gather(left.column(attribute), row_indexes)
            for attribute in left.schema
        ]
        result = Table("split", left.schema)
        result.rows = list(zip(*columns))
        context.count("split_output_rows", len(result))
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar split: each left row's interval is cut once, column-wise.

        The cut points come from :func:`repro.engine.kernels
        .split_segments_vectorized` (all groups in one sorted array of end
        points, counted as ``batch.split_vectorized``) or, for what it
        declines, from :meth:`_scalar`.  Either way end points are collected
        per group from both children's columns, data columns are rebuilt
        with one index gather per attribute (on the kernel route a lazy one:
        the typed forms follow, the values of an attribute nobody reads are
        never gathered) and multiplicities follow their source row (every
        duplicate splits identically).
        """
        from ..engine.batch import ColumnarBatch

        left, right = children
        self._check_group_attributes(left, right)
        begin_attr, end_attr = self.period
        limited = context._limited
        if limited:
            context.checkpoint()

        begin_index = left.column_index(begin_attr)
        end_index = left.column_index(end_attr)
        segments = None
        if _kernels.worthwhile(len(left) + len(right)):
            left_typed, right_typed = left.typed, right.typed
            segments = _kernels.split_segments_vectorized(
                [left_typed[left.column_index(a)] for a in self.group_by],
                left_typed[begin_index],
                left_typed[end_index],
                [right_typed[right.column_index(a)] for a in self.group_by],
                right_typed[right.column_index(begin_attr)],
                right_typed[right.column_index(end_attr)],
                context.stage_checkpoint if limited else None,
            )
        vectorized = segments is not None
        if vectorized:
            context.count("batch.split_vectorized")
            at, piece_begins, piece_ends = segments
            row_indexes = at.tolist()
        else:
            row_indexes, piece_begins, piece_ends = self._scalar(left, right)
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

    def _check_group_attributes(self, left: Relation, right: Relation) -> None:
        """Both inputs must hold every group attribute: end points are collected from both."""
        for relation in (left, right):
            for attribute in self.group_by:
                if not relation.has_attribute(attribute):
                    raise ExecutorError(
                        f"split group attribute {attribute!r} missing from {relation.schema}"
                    )

    def _scalar(
        self, left: Relation, right: Relation
    ) -> Tuple[List[int], List[Any], List[Any]]:
        """:func:`repro.engine.sweeps.split` over both inputs' columns."""
        begin_attr, end_attr = self.period
        return _sweeps.split(
            [left.column(a) for a in self.group_by],
            left.column(begin_attr),
            left.column(end_attr),
            [right.column(a) for a in self.group_by],
            right.column(begin_attr),
            right.column(end_attr),
        )


@dataclass(frozen=True)
class TemporalAggregateOperator(PhysicalOperator):
    """Fused split + aggregation (the optimisation of Section 9).

    Rather than materialising the split of the input and feeding it to a
    standard aggregation grouped by ``(G, t_begin, t_end)``, this operator
    sweeps each group's interval end points once, maintaining running
    aggregate state, and emits one result row per maximal interval over
    which the group has open rows and its aggregate values stay equal
    (:func:`repro.engine.sweeps.temporal_aggregate`, twin of the
    whole-column kernel).

    ``count(*)`` must have been pre-rewritten to ``count(A)`` over a
    constant attribute (Fig. 4's rule), so ``NULL`` padding rows added for
    gap coverage are not counted.

    Every entry point -- the row reference, the scalar route and the kernel
    -- emits the coalesced encoding: each row with multiplicity 1, no two
    rows of equal values touching or overlapping (Definition 5.3), so the
    coalesce REWR puts above it passes it through (:class:`CoalesceOperator`).
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
        """The row reference: :meth:`_scalar`, arguments evaluated row by row."""
        (table,) = children
        arguments = [
            None
            if spec.argument is None
            else list(map(spec.argument.compile(table.schema), table.rows))
            for spec in self.aggregates
        ]
        result = Table("temporal_aggregation", self.planner_schema(()))
        result.rows = self._scalar(table, [1] * len(table), arguments, context)
        return result

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Columnar fused split + aggregation.

        All five aggregates over int-or-NULL arguments run as whole-column
        sweeps over every group's events at once (:func:`repro.engine.kernels
        .temporal_aggregate_vectorized`, counted as
        ``batch.aggregate_vectorized``, and as ``batch.aggregate_dense`` too
        where it counted the events on the packed grid instead of sorting
        them).  Anything that kernel declines --
        ``bool``/float arguments, NULL end points, small inputs -- runs
        :meth:`_scalar` over the value lists, weighting each row by its
        multiplicity.
        """
        from ..engine.batch import ColumnarBatch

        (batch,) = children
        begin_attr, end_attr = self.period
        n = len(batch.counts)
        out_schema = self.planner_schema(())
        limited = context._limited
        if limited:
            context.checkpoint()

        if _kernels.worthwhile(n):
            typed = batch.typed
            group_columns = [typed[batch.column_index(a)] for a in self.group_by]
            served = _kernels.temporal_aggregate_vectorized(
                group_columns,
                typed[batch.column_index(begin_attr)],
                typed[batch.column_index(end_attr)],
                None if batch.all_ones() else batch.counts,
                [(spec.func, self._argument(spec, batch)) for spec in self.aggregates],
                context.stage_checkpoint if limited else None,
            )
            if served is not None:
                context.count("batch.aggregate_vectorized")
                group_rows, value_columns, out_begins, out_ends, dense = served
                if dense:
                    context.count("batch.aggregate_dense")
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

        arguments = [
            None
            if spec.argument is None
            else spec.argument.compile_batch(batch.schema)(batch.columns, n)
            for spec in self.aggregates
        ]
        return ColumnarBatch.from_rows(
            "temporal_aggregation",
            out_schema,
            self._scalar(batch, batch.counts, arguments, context),
        )

    def _scalar(
        self,
        relation: Relation,
        counts: Sequence[int],
        arguments: Sequence[Optional[Sequence[Any]]],
        context: ExecutionContext,
    ) -> List[Tuple[Any, ...]]:
        """:func:`repro.engine.sweeps.temporal_aggregate` over the input's columns.

        ``arguments`` holds each aggregate's evaluated argument values
        (``None`` for ``count(*)``).
        """
        begin_attr, end_attr = self.period
        rows, buckets = _sweeps.temporal_aggregate(
            [relation.column(a) for a in self.group_by],
            relation.column(begin_attr),
            relation.column(end_attr),
            counts,
            [(spec.func, values) for spec, values in zip(self.aggregates, arguments)],
            context.checkpoint if context._limited else None,
        )
        context.count("preaggregated_rows", buckets)
        return rows

    @staticmethod
    def _argument(spec: AggregateSpec, batch: "ColumnarBatch") -> Optional[_kernels.Column]:
        """The aggregate's argument as a typed column (``None`` for ``count(*)``)."""
        if spec.argument is None:
            return None
        if isinstance(spec.argument, Attribute):
            return batch.typed[batch.column_index(spec.argument.name)]
        evaluate = spec.argument.compile_batch(batch.schema)
        return _kernels.Column(evaluate(batch.columns, len(batch)))
