"""Columnar batch execution: the in-memory engine's operators.

Every plan :func:`repro.engine.executor.execute` is handed runs here.  Where
the reference operators of :mod:`repro.engine.executor` stream Python row
tuples through per-row closures, this module pushes whole
:class:`ColumnarBatch` objects -- per-attribute lists plus a multiplicity
column -- through column kernels:

* selections evaluate the predicate once per batch via
  :meth:`~repro.algebra.expressions.Expression.compile_batch` and filter
  every column with a single zipped comprehension;
* projections of plain attribute references are **zero-copy** (the output
  batch shares the input columns);
* the interval join, split and ``count``/``sum``/``avg`` temporal
  aggregation run as whole-column ``searchsorted`` sweeps over one packed
  ``(key code, time)`` array per input (:mod:`repro.engine.kernels`; numpy,
  optional), equality keys and multiplicities included;
* what those kernels decline -- inputs below their cutover, NULL or
  non-int end points, ``min``/``max``, no numpy -- runs their scalar twins
  in :mod:`repro.engine.sweeps`: the partitioned bisect join and the
  per-group split helpers;
* coalescing (:func:`repro.temporal.coalesce.coalesce_column_sets`) emits
  one output row per maximal interval with a multiplicity instead of
  duplicating tuples.

The row operators remain the reference semantics: the output here is
bag-equal with theirs for every plan (pinned by the reference differential
suite, and by the delta-differential sweep step by step), and with the
abstract model's (the conformance sweep).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..abstract_model.krelation import aggregate_values
from ..algebra.expressions import Attribute, Expression
from ..algebra.operators import (
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
from . import kernels as _kernels
from . import sweeps as _sweeps
from .executor import (
    ExecutionContext,
    ExecutorError,
    PhysicalOperator,
    _combine_residual,
    _extract_interval_pattern,
    _split_join_predicate,
)
from .table import Table, tuple_getter

__all__ = ["ColumnarBatch", "execute_batch_plan"]

Row = Tuple[Any, ...]


class ColumnarBatch:
    """A batch of rows stored column-wise, with per-row multiplicities.

    ``columns`` holds one list per schema attribute; ``counts`` holds how
    many copies of each (logical) row the batch represents.  All lists have
    the same length.  Operators that only reorder or merge intervals (the
    coalesce sweep above all) emit one entry with ``counts[i] > 1`` instead
    of materialising duplicate tuples; everything else keeps counts at 1 and
    takes the all-ones fast paths.

    Columns may be shared between batches (projection is zero-copy), so
    kernels must never mutate a column in place -- always build a new list.

    A batch holds its entries in one or both of two layouts -- per-attribute
    ``columns`` and row tuples (``entry_rows``) -- and transposes lazily from
    whichever it has when the other is first asked for.  Operators that emit
    row tuples (the joins above all) build row-backed batches, so a plan
    that never reads the output column-wise skips the transpose entirely.
    """

    __slots__ = ("name", "schema", "_columns", "counts", "_index", "_ones", "_rows")

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        columns: Optional[List[List[Any]]],
        counts: List[int],
        all_ones: Optional[bool] = None,
        rows: Optional[List[Row]] = None,
    ) -> None:
        if columns is None and rows is None:
            raise ExecutorError("a ColumnarBatch needs columns or rows")
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        self._columns = columns
        self._rows = rows
        self.counts = counts
        # Tri-state all-ones cache: constructors that know the counts shape
        # pass it; otherwise the first all_ones() call settles it.
        self._ones = all_ones
        self._index: Dict[str, int] = {a: i for i, a in enumerate(self.schema)}

    @property
    def columns(self) -> List[List[Any]]:
        """Per-attribute value lists, transposed from the rows on demand."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            assert rows is not None
            if rows:
                columns = [list(column) for column in zip(*rows)]
            else:
                columns = [[] for _ in self.schema]
            self._columns = columns
        return columns

    # -- conversion -------------------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, name: Optional[str] = None) -> "ColumnarBatch":
        """Columnarise a base table, caching the transpose on the table.

        The transposed columns are the engine's storage layout, so they are
        memoised on the table itself (keyed by the identity and length of
        its rows list -- ``append``/``extend`` grow the list and ``clone``
        replaces it, so either invalidates the cache).  Kernels never mutate
        columns in place, which makes sharing safe.

        The table may be appended to while this runs (the server executes
        reads and DML on one thread pool over one catalog), so the columns,
        the counts and the batch's row view are all taken from one copy of
        the rows list, and that copy's length is the one recorded: a read
        racing an insert sees the table before it or after it, and the next
        read sees the longer list and transposes again.  What a reader sees
        of the *in-place*, equal-length rewrite of a view's backing table
        (``repro.incremental.view._RowStore``) is not decided here; it
        belongs to the catalog's isolation contract (ROADMAP item 4a: one
        of several admissible outcomes).
        """
        rows = table.rows
        cache = table._columns_cache
        if cache is None or cache[0] is not rows or len(cache[1]) != len(rows):
            snapshot = rows[:]
            if snapshot:
                # zip(*rows) transposes at C speed; one list per attribute.
                columns = [list(column) for column in zip(*snapshot)]
            else:
                columns = [[] for _ in table.schema]
            cache = table._columns_cache = (rows, snapshot, columns)
        _, snapshot, columns = cache
        return cls(
            name or table.name,
            table.schema,
            columns,
            [1] * len(snapshot),
            all_ones=True,
            rows=snapshot,
        )

    @classmethod
    def from_rows(
        cls, name: str, schema: Sequence[str], rows: Sequence[Row]
    ) -> "ColumnarBatch":
        rows = rows if isinstance(rows, list) else list(rows)
        return cls(name, tuple(schema), None, [1] * len(rows), all_ones=True, rows=rows)

    def entry_rows(self) -> List[Row]:
        """One tuple per batch entry (multiplicities NOT expanded), cached.

        The returned list is shared with the batch -- callers must not
        mutate it (copy before sorting or appending).
        """
        rows = self._rows
        if rows is None:
            columns = self._columns
            assert columns is not None
            if columns:
                rows = list(zip(*columns))
            else:
                rows = [()] * len(self.counts)
            self._rows = rows
        return rows

    def expanded_rows(self) -> List[Row]:
        """The batch as row tuples, with multiplicities expanded (shared)."""
        rows = self.entry_rows()
        if self.all_ones():
            return rows
        # repeat/chain expand at C speed: one repeat iterator per entry.
        return list(chain.from_iterable(map(repeat, rows, self.counts)))

    def to_table(self, name: Optional[str] = None) -> Table:
        table = Table(name or self.name, self.schema)
        # Copy: expanded_rows may return the shared entry-rows list (possibly
        # the source table's very rows), and tables own their rows lists.
        table.rows = list(self.expanded_rows())
        return table

    # -- introspection ----------------------------------------------------------------
    #
    # Same lookup surface as Table, so the executor's join-predicate helpers
    # (_split_join_predicate and friends) work on either representation.

    def __len__(self) -> int:
        return len(self.counts)

    def all_ones(self) -> bool:
        """Whether every multiplicity is 1 (cached after the first scan)."""
        ones = self._ones
        if ones is None:
            ones = self._ones = all(count == 1 for count in self.counts)
        return ones

    def weight(self) -> int:
        """Total logical row count (multiplicities included)."""
        return len(self.counts) if self.all_ones() else sum(self.counts)

    def column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError as exc:
            raise ExecutorError(
                f"unknown attribute {attribute!r} in batch {self.name!r} "
                f"with schema {self.schema}"
            ) from exc

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch({self.name!r}, {list(self.schema)}, "
            f"{len(self.counts)} rows, weight {self.weight()})"
        )


# -- dispatch -------------------------------------------------------------------------


def execute_batch_plan(plan: Operator, context: ExecutionContext) -> Table:
    """Run a plan batch-at-a-time and materialise the result as a Table."""
    batch = _execute(plan, context, {})
    return batch.to_table()


def _execute(
    plan: Operator, context: ExecutionContext, scans: Dict[int, ColumnarBatch]
) -> ColumnarBatch:
    context.checkpoint()
    result = _execute_node(plan, context, scans)
    if context._limited:
        context.checkpoint(result.weight())
    if context.observations is not None:
        context.observations.setdefault(id(plan), {})["actual_rows"] = (
            result.weight()
        )
    return result


def _execute_node(
    plan: Operator, context: ExecutionContext, scans: Dict[int, ColumnarBatch]
) -> ColumnarBatch:
    if isinstance(plan, PhysicalOperator):
        children = [_execute(child, context, scans) for child in plan.children()]
        context.count(type(plan).__name__.lower())
        return plan.execute_batch(children, context)

    if isinstance(plan, RelationAccess):
        table = context.database.table(plan.name)
        # Columnarising a base table costs one transpose; plans produced by
        # the snapshot rewrite scan the same table several times, so cache
        # the batch per physical table for the duration of this run.
        batch = scans.get(id(table))
        if batch is None:
            batch = ColumnarBatch.from_table(table)
            scans[id(table)] = batch
        if plan.alias:
            return ColumnarBatch(
                plan.alias,
                batch.schema,
                batch._columns,
                batch.counts,
                batch._ones,
                rows=batch._rows,
            )
        return batch

    if isinstance(plan, ConstantRelation):
        return ColumnarBatch.from_rows("constant", plan.schema, plan.rows)

    if isinstance(plan, Selection):
        return _selection(_execute(plan.child, context, scans), plan.predicate, context)

    if isinstance(plan, Projection):
        return _projection(_execute(plan.child, context, scans), plan.columns)

    if isinstance(plan, Rename):
        return _rename(_execute(plan.child, context, scans), dict(plan.renames))

    if isinstance(plan, Join):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _join(left, right, plan.predicate, context, plan)

    if isinstance(plan, Union):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _union(left, right)

    if isinstance(plan, Difference):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _except_all(left, right)

    if isinstance(plan, Aggregation):
        return _aggregate(
            _execute(plan.child, context, scans), plan.group_by, plan.aggregates
        )

    if isinstance(plan, Distinct):
        return _distinct(_execute(plan.child, context, scans))

    raise ExecutorError(f"unsupported operator {type(plan).__name__}")


# -- columnar operators ---------------------------------------------------------------


def _selection(
    batch: ColumnarBatch, predicate: Expression, context: ExecutionContext
) -> ColumnarBatch:
    mask = predicate.compile_batch(batch.schema)(batch.columns, len(batch.counts))
    if all(mask):
        context.count("rows_filtered", 0)
        return ColumnarBatch(
            "selection",
            batch.schema,
            batch._columns,
            batch.counts,
            batch._ones,
            rows=batch._rows,
        )
    columns = [
        [value for value, keep in zip(column, mask) if keep]
        for column in batch.columns
    ]
    counts = [count for count, keep in zip(batch.counts, mask) if keep]
    context.count("rows_filtered", len(batch.counts) - len(counts))
    # A subset of an all-ones counts column stays all ones; otherwise unknown.
    return ColumnarBatch(
        "selection", batch.schema, columns, counts, True if batch._ones else None
    )


def _projection(
    batch: ColumnarBatch, columns: Tuple[Tuple[Expression, str], ...]
) -> ColumnarBatch:
    schema = tuple(name for _, name in columns)
    n = len(batch.counts)
    out_columns: List[List[Any]] = []
    for expression, _name in columns:
        if isinstance(expression, Attribute):
            # Zero-copy: reuse the input column object.
            out_columns.append(batch.columns[batch.column_index(expression.name)])
        else:
            out_columns.append(
                expression.compile_batch(batch.schema)(batch.columns, n)
            )
    return ColumnarBatch("projection", schema, out_columns, batch.counts, batch._ones)


def _rename(batch: ColumnarBatch, renames: Dict[str, str]) -> ColumnarBatch:
    missing = set(renames) - set(batch.schema)
    if missing:
        raise ExecutorError(f"cannot rename unknown attributes {sorted(missing)}")
    schema = tuple(renames.get(name, name) for name in batch.schema)
    return ColumnarBatch(
        batch.name,
        schema,
        batch._columns,
        batch.counts,
        batch._ones,
        rows=batch._rows,
    )


def _union(left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"union-incompatible schemas {left.schema} and {right.schema}"
        )
    ones = True if left._ones and right._ones else None
    if left._columns is None or right._columns is None:
        # At least one side is row-backed: concatenating entry rows avoids
        # forcing its transpose (and stays lazy for the output).
        return ColumnarBatch(
            "union",
            left.schema,
            None,
            left.counts + right.counts,
            ones,
            rows=left.entry_rows() + right.entry_rows(),
        )
    columns = [
        left_column + right_column
        for left_column, right_column in zip(left.columns, right.columns)
    ]
    return ColumnarBatch(
        "union", left.schema, columns, left.counts + right.counts, ones
    )


def _except_all(left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"difference-incompatible schemas {left.schema} and {right.schema}"
        )
    remaining: Dict[Row, int] = {}
    get = remaining.get
    for row, count in zip(left.entry_rows(), left.counts):
        remaining[row] = get(row, 0) + count
    for row, count in zip(right.entry_rows(), right.counts):
        remaining[row] = get(row, 0) - count
    rows: List[Row] = []
    counts: List[int] = []
    for row, count in remaining.items():
        if count > 0:
            rows.append(row)
            counts.append(count)
    return ColumnarBatch("except_all", left.schema, None, counts, rows=rows)


def _distinct(batch: ColumnarBatch) -> ColumnarBatch:
    rows = list(dict.fromkeys(batch.entry_rows()))
    return ColumnarBatch.from_rows("distinct", batch.schema, rows)


def _aggregate(
    batch: ColumnarBatch, group_by: Tuple[str, ...], aggregates
) -> ColumnarBatch:
    unknown = set(group_by) - set(batch.schema)
    if unknown:
        raise ExecutorError(f"unknown group-by attributes {sorted(unknown)}")
    n = len(batch.counts)
    key_columns = [batch.columns[batch.column_index(a)] for a in group_by]
    if key_columns:
        keys: List[Tuple[Any, ...]] = list(zip(*key_columns))
    else:
        keys = [()] * n
    argument_columns = [
        None
        if spec.argument is None
        else spec.argument.compile_batch(batch.schema)(batch.columns, n)
        for spec in aggregates
    ]

    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    if not group_by and not groups:
        groups[()] = []

    counts = batch.counts
    rows: List[Row] = []
    for key, positions in groups.items():
        values: List[Any] = []
        for spec, column in zip(aggregates, argument_columns):
            # Weighted flavour of the row engine's _aggregate_members: each
            # batch entry contributes its multiplicity, so counts>1 rows
            # aggregate exactly like their expanded duplicates would.
            if spec.func == "count":
                if column is None:
                    values.append(sum(counts[p] for p in positions))
                else:
                    values.append(
                        sum(counts[p] for p in positions if column[p] is not None)
                    )
            else:
                values.append(
                    aggregate_values(
                        spec.func,
                        [
                            (column[p], counts[p])
                            for p in positions
                            if column[p] is not None
                        ],
                    )
                )
        rows.append(key + tuple(values))
    schema = tuple(group_by) + tuple(spec.alias for spec in aggregates)
    return ColumnarBatch.from_rows("aggregation", schema, rows)


# -- join -----------------------------------------------------------------------------


def _join(
    left: ColumnarBatch,
    right: ColumnarBatch,
    predicate: Optional[Expression],
    context: ExecutionContext,
    node: Optional[Join] = None,
) -> ColumnarBatch:
    overlap = set(left.schema) & set(right.schema)
    if overlap:
        raise ExecutorError(
            f"join inputs share attributes {sorted(overlap)}; rename first"
        )
    schema = left.schema + right.schema

    # Obey a cost-planner strategy hint exactly like the row executor:
    # skipped pattern parts stay in the residual / full predicate, so the
    # output bag is identical for every strategy.
    hint = node.strategy if node is not None else None
    equi_keys, residual_conjuncts = _split_join_predicate(predicate, left, right)
    interval = None
    if hint in (None, "interval"):
        interval, residual_conjuncts = _extract_interval_pattern(
            residual_conjuncts, left, right
        )
    residual = _combine_residual(residual_conjuncts)
    if hint == "nested_loop":
        interval = None
        equi_keys = []
    elif hint == "hash":
        interval = None

    chosen = "nested_loop"
    if interval is not None:
        chosen = "interval"
        context.count("join_strategy.interval")
        result = _interval_join(
            left, right, schema, equi_keys, interval, residual, context
        )
    else:
        left_rows = left.expanded_rows()
        right_rows = right.expanded_rows()
        out: List[Row] = []
        if equi_keys:
            chosen = "hash"
            context.count("join_strategy.hash")
            _hash_join(left_rows, right_rows, schema, equi_keys, residual, out, context)
        else:
            context.count("join_strategy.nested_loop")
            _nested_loop_join(left_rows, right_rows, schema, predicate, out, context)
        result = ColumnarBatch.from_rows("join", schema, out)
    if context.observations is not None and node is not None:
        context.observations.setdefault(id(node), {})["join_strategy"] = chosen
    return result


def _interval_join(
    left: ColumnarBatch,
    right: ColumnarBatch,
    schema: Tuple[str, ...],
    keys: List[Tuple[int, int]],
    pattern,
    residual: Optional[Expression],
    context: ExecutionContext,
) -> ColumnarBatch:
    """Interval-overlap join: the whole-column kernel, else scalar partitions.

    :func:`repro.engine.kernels.interval_join_vectorized` serves the join --
    equality keys, multiplicities, residual and limits included -- whenever
    the inputs reach the kernel cutover; ``join_strategy.interval_vectorized``
    counts those.  What it declines (see that module) is partitioned by the
    equality conjuncts (one partition per distinct key; a join without any
    is one partition) and every partition runs the bisect sweep.
    ``batch.partitions`` counts the scalar partitions swept.
    """
    keep = residual.compile(schema) if residual is not None else None
    lb, le = pattern.left_begin, pattern.left_end
    rb, re = pattern.right_begin, pattern.right_end

    if _kernels.worthwhile(len(left) + len(right)):
        left_columns, right_columns = left.columns, right.columns
        served = _kernels.interval_join_vectorized(
            [left_columns[index] for index, _ in keys],
            [right_columns[index] for _, index in keys],
            (left_columns[lb], left_columns[le]),
            (right_columns[rb], right_columns[re]),
            left.entry_rows(),
            right.entry_rows(),
            None if left.all_ones() else left.counts,
            None if right.all_ones() else right.counts,
            keep,
            context.stage_checkpoint if context._limited else None,
        )
        if served is not None:
            context.count("join_strategy.interval_vectorized")
            rows, counts = served
            if counts is None:
                return ColumnarBatch.from_rows("join", schema, rows)
            return ColumnarBatch("join", schema, None, counts, rows=rows)

    left_rows = left.expanded_rows()
    right_rows = right.expanded_rows()
    out: List[Row] = []
    checkpoint = context.checkpoint if context._limited else None
    if keys:
        partitions = _sweeps.partition_by_keys(left_rows, right_rows, keys)
    else:
        partitions = [(left_rows, right_rows)]
    context.count("batch.partitions", len(partitions))
    for left_part, right_part in partitions:
        _sweeps.interval_sweep(
            left_part, right_part, lb, le, rb, re, keep, out, checkpoint
        )
    return ColumnarBatch.from_rows("join", schema, out)


def _hash_join(
    left_rows: List[Row],
    right_rows: List[Row],
    schema: Tuple[str, ...],
    keys: List[Tuple[int, int]],
    residual: Optional[Expression],
    out: List[Row],
    context: ExecutionContext,
) -> None:
    left_key = tuple_getter([li for li, _ri in keys])
    right_key = tuple_getter([ri for _li, ri in keys])
    # Same NULL-key exclusion as the row engine's hash join.
    buckets: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in right_rows:
        key = right_key(row)
        if None in key:
            continue
        buckets.setdefault(key, []).append(row)
    keep = residual.compile(schema) if residual is not None else None
    limited = context._limited
    empty: Tuple[Row, ...] = ()
    for left_row in left_rows:
        if limited:
            context.checkpoint(len(out))
        key = left_key(left_row)
        if None in key:
            continue
        matches = buckets.get(key, empty)
        if not matches:
            continue
        if keep is None:
            out.extend([left_row + right_row for right_row in matches])
        else:
            out.extend(
                [
                    combined
                    for right_row in matches
                    if keep(combined := left_row + right_row)
                ]
            )


def _nested_loop_join(
    left_rows: List[Row],
    right_rows: List[Row],
    schema: Tuple[str, ...],
    predicate: Optional[Expression],
    out: List[Row],
    context: ExecutionContext,
) -> None:
    limited = context._limited
    if predicate is None:
        for left_row in left_rows:
            if limited:
                context.checkpoint(len(out))
            out.extend([left_row + right_row for right_row in right_rows])
        return
    keep = predicate.compile(schema)
    for left_row in left_rows:
        if limited:
            context.checkpoint(len(out))
        out.extend(
            [
                combined
                for right_row in right_rows
                if keep(combined := left_row + right_row)
            ]
        )
