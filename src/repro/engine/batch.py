"""Columnar batch execution: the in-memory engine's operators.

Every plan :func:`repro.engine.executor.execute` is handed runs here.  Where
the row reference of :mod:`repro.engine.executor` moves tables of row
tuples, every multiplicity expanded, this module pushes whole
:class:`ColumnarBatch` objects -- one typed
:class:`~repro.engine.kernels.Column` per attribute plus a multiplicity
column -- from operator to operator.  A column is its values list (all that
scalar code sees, as ``batch.columns[i]``) and, once a kernel has asked, an
int64 array or dictionary codes that the next kernel finds already there;
either half may be missing until someone reads it.

* the interval join, split, all five temporal aggregates and coalescing run
  as whole-column ``searchsorted`` sweeps over one packed ``(key code,
  time)`` array per input (:mod:`repro.engine.kernels`; numpy, optional),
  equality keys and multiplicities included.  They read the columns' typed
  forms and hand their output arrays on as columns; the join returns index
  pairs, and each output attribute is gathered when -- and only if -- it is
  read (REWR's projection drops the duplicate key and all four raw end
  points unread);
* bag difference and distinct over column-backed inputs run on the columns'
  codes -- one factorisation, one integer tally per input
  (:func:`~repro.engine.kernels.consolidate`) -- and are their input
  gathered at the surviving rows;
* the operators that only move rows carry the forms along: projections of
  plain attribute references and renames are **zero-copy** (the output
  batch shares the input's column objects), REWR's period intersection
  (``greatest``/``least`` of two int columns) is one array operation and
  an ``int`` constant (REWR's ``1`` under ``count(*)``) one array fill, a
  filtering selection gathers every column at the kept rows' index, and a
  union of column-backed inputs lays their columns end to end;
* everything else drops to lists: selections and other projections
  evaluate their expression once per batch via
  :meth:`~repro.algebra.expressions.Expression.compile_batch` over the
  value lists, and emit plain columns whose forms the next kernel derives
  afresh;
* what the kernels decline -- inputs below their cutover, NULL or non-int
  end points, ``bool``/float aggregate arguments, no numpy -- and what has
  no kernel (hash and nested-loop joins, non-temporal aggregation, the set
  operators over row-backed inputs) runs the one scalar definition of the
  algorithm in :mod:`repro.engine.sweeps`, weighted by the counts column;
  the row reference calls the very same functions.  Below the cutover, and
  without numpy, no column ever has a typed form;
* coalescing emits one output row per maximal interval with a multiplicity
  instead of duplicating tuples; over a monus sweep or a temporal
  aggregate, which emit that encoding themselves, it passes its input on;
* a node held by more than one parent runs once per execution -- the
  planner makes equal sub-plans one object (REWR's two split inputs, a
  sub-plan a query names twice) -- and its batch is kept, keyed on
  ``id()``, until its last parent has it (``batch.shared_reuse`` counts
  each parent served so).  Nothing is stored on a node and nothing
  outlives the call, so a held plan run again after a write reads the
  write.

The output here is bag-equal with the row reference's for every plan
(pinned by the reference differential suite, and by the delta-differential
sweep step by step), and with the abstract model's (the conformance sweep).
Since both executors share the scalar algorithms, the reference
differential now checks the kernels and the plan plumbing; the scalar
algorithms themselves are checked by the conformance oracle and the SQLite
differential (``tests/conformance/test_sweep_mutants.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..algebra.expressions import Attribute, Expression, FunctionCall, Literal
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
from .kernels import Column
from .executor import ExecutionContext, ExecutorError, PhysicalOperator, _plan_join
from .table import Table, TableVersion

__all__ = ["ColumnarBatch", "execute_batch_plan"]

Row = Tuple[Any, ...]


class _ValueLists:
    """``batch.columns``: per-attribute value lists, each produced when first read."""

    __slots__ = ("_typed",)

    def __init__(self, typed: List[Column]) -> None:
        self._typed = typed

    def __len__(self) -> int:
        return len(self._typed)

    def __getitem__(self, position: int) -> List[Any]:
        return self._typed[position].values

    def __iter__(self) -> Iterator[List[Any]]:
        return (column.values for column in self._typed)


class ColumnarBatch:
    """A batch of rows stored column-wise, with per-row multiplicities.

    ``typed`` holds one :class:`~repro.engine.kernels.Column` per schema
    attribute -- the values list plus whatever typed form a kernel derived
    or handed over -- and ``columns`` shows the same attributes as plain
    value lists, which is all scalar code ever sees; ``counts`` holds how
    many copies of each (logical) row the batch represents.  All have the
    same length.  A batch is built from lists *or* from columns
    (``typed=True``: base-table scans, kernel outputs, whatever passes
    those on), never a mix, and wraps its lists into columns only if a
    kernel asks for ``typed``: a plan below the cutover moves bare lists.
    Operators that only reorder or merge intervals (the step-function
    sweep of coalescing and temporal difference above all) emit one entry
    with ``counts[i] > 1`` instead of materialising duplicate tuples; everything else keeps counts at 1 and takes the
    all-ones fast paths.

    Columns are shared between batches (projection is zero-copy, base-table
    columns live on the table version), so nothing may mutate a column or its values
    list in place -- always build a new one.  A column's values list may not
    exist yet (a kernel's output array, a join side gathered at the pair
    indexes): reading ``columns[i]`` produces it, and an attribute nobody
    reads is never built.

    A batch holds its entries in one or both of two layouts -- per-attribute
    columns and row tuples (``entry_rows``) -- and transposes lazily from
    whichever it has when the other is first asked for.  Operators that emit
    row tuples (hash and nested-loop joins, set difference) build row-backed
    batches, so a plan that never reads the output column-wise skips the
    transpose entirely.  ``rows`` may also be a zero-argument callable that
    builds them when first asked: a kernel-served join hands over gathered
    columns *and* a faster way to its row tuples than transposing those.
    """

    __slots__ = (
        "name", "schema", "_columns", "_is_typed", "counts", "_index", "_ones", "_rows",
    )

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        columns: Union[List[List[Any]], List[Column], None],
        counts: List[int],
        all_ones: Optional[bool] = None,
        rows: Union[List[Row], Callable[[], List[Row]], None] = None,
        typed: bool = False,
    ) -> None:
        if columns is None and rows is None:
            raise ExecutorError("a ColumnarBatch needs columns or rows")
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        self._columns = columns
        self._is_typed = typed
        self._rows = rows
        self.counts = counts
        # Tri-state all-ones cache: constructors that know the counts shape
        # pass it; otherwise the first all_ones() call settles it.
        self._ones = all_ones
        self._index: Dict[str, int] = {a: i for i, a in enumerate(self.schema)}

    @property
    def columns(self) -> Sequence[List[Any]]:
        """Per-attribute value lists (what scalar code reads).

        The batch's own lists, transposed from the rows on demand -- or,
        over typed columns, a view that produces each list when indexed.
        """
        columns = self._columns
        if columns is None:
            rows = self._rows
            assert rows is not None
            if rows:
                columns = [list(column) for column in zip(*rows)]
            else:
                columns = [[] for _ in self.schema]
            self._columns = columns
        return _ValueLists(columns) if self._is_typed else columns

    @property
    def typed(self) -> List[Column]:
        """One :class:`Column` per attribute (what kernels read), wrapped on demand."""
        if not self._is_typed:
            self._columns = [Column(values) for values in self.columns]
            self._is_typed = True
        return self._columns

    def relabelled(self, name: str, schema: Sequence[str]) -> "ColumnarBatch":
        """The same entries -- columns, rows and counts shared -- under another name and schema."""
        return ColumnarBatch(
            name, schema, self._columns, self.counts, self._ones, self._rows, self._is_typed
        )

    def taken(
        self, name: str, at: Any, counts: List[int], all_ones: Optional[bool]
    ) -> "ColumnarBatch":
        """The entries at the int64 index array ``at``, under new multiplicities.

        Columns are gathered late and bring their typed forms; the row view
        is picked out of this batch's rows when it has (a way to) them.
        """
        return ColumnarBatch(
            name,
            self.schema,
            [Column.gathered(column, at) for column in self.typed],
            counts,
            all_ones,
            rows=None
            if self._rows is None
            else lambda: _kernels.gather(self.entry_rows(), at.tolist()),
            typed=True,
        )

    # -- conversion -------------------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, name: Optional[str] = None) -> "ColumnarBatch":
        """Columnarise a table as it is now: :meth:`from_version` of its current version."""
        return cls.from_version(table.version, name)

    @classmethod
    def from_version(
        cls, version: TableVersion, name: Optional[str] = None
    ) -> "ColumnarBatch":
        """A scan of one table version.

        The transposed columns are the engine's storage layout, so they live
        on the version: transposed on its first scan, an attribute read from
        then on.  Kernels never mutate columns in place, which makes sharing
        safe.  The typed forms live on those same :class:`Column` objects --
        derived the first time a kernel asks, or carried over from the
        version DML built this one from -- and die with the version.  The
        batch's row view is the version's rows, copied if someone asks.
        """
        columns = version.columns()
        # A table below the cutover scans as bare lists, like everything
        # else in a small plan; should a kernel want it after all (joined
        # with a big table), wrapping and scanning it afresh costs nothing.
        typed = _kernels.worthwhile(version.count)
        return cls(
            name or version.name,
            version.schema,
            columns if typed else [column.values for column in columns],
            [1] * version.count,
            all_ones=True,
            rows=version.rows,
            typed=typed,
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
            columns = self.columns
            if len(columns):
                rows = list(zip(*columns))
            else:
                rows = [()] * len(self.counts)
            self._rows = rows
        elif callable(rows):
            rows = self._rows = rows()
        return rows

    def expanded_rows(self) -> List[Row]:
        """The batch as row tuples, with multiplicities expanded (shared)."""
        rows = self.entry_rows()
        if self.all_ones():
            return rows
        return _sweeps.expand(rows, self.counts)

    def to_table(self, name: Optional[str] = None) -> Table:
        table = Table(name or self.name, self.schema)
        # Copy: expanded_rows may return the shared entry-rows list (possibly
        # the source table's very rows), and tables own their rows lists.
        table.rows = list(self.expanded_rows())
        return table

    # -- introspection ----------------------------------------------------------------
    #
    # Same lookup surface as Table, so the join-predicate analysis and the
    # temporal operators' scalar routes work on either representation.

    def __len__(self) -> int:
        return len(self.counts)

    def all_ones(self) -> bool:
        """Whether every multiplicity is 1 (cached after the first scan)."""
        ones = self._ones
        if ones is None:
            ones = self._ones = self.counts.count(1) == len(self.counts)
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

    def column(self, attribute: str) -> List[Any]:
        """One attribute's value list (shared: never mutate)."""
        return self.columns[self.column_index(attribute)]

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch({self.name!r}, {list(self.schema)}, "
            f"{len(self.counts)} rows, weight {self.weight()})"
        )


# -- dispatch -------------------------------------------------------------------------


def execute_batch_plan(plan: Operator, context: ExecutionContext) -> ColumnarBatch:
    """Run a plan batch-at-a-time; its output batch (``.to_table()`` materialises it)."""
    return _execute(plan, context, _Run(plan))


class _Run:
    """What one execution shares between its nodes; nothing outlives the call.

    ``scans``: one batch per table read (its row view, its wrapped lists),
    however many ``RelationAccess`` nodes name the table.  ``shared``: per
    node held by more than one parent, ``[parents not yet served, batch]``
    -- the batch is kept from the node's one execution until its last
    parent has it.
    """

    __slots__ = ("scans", "shared")

    def __init__(self, plan: Operator) -> None:
        self.scans: Dict[str, ColumnarBatch] = {}
        parents: Dict[int, int] = {}
        stack = [plan]
        while stack:
            for child in stack.pop().children():
                seen = parents.get(id(child), 0)
                parents[id(child)] = seen + 1
                if not seen:
                    stack.append(child)
        self.shared: Dict[int, List[Any]] = {
            node: [count, None] for node, count in parents.items() if count > 1
        }


def _execute(plan: Operator, context: ExecutionContext, run: _Run) -> ColumnarBatch:
    entry = run.shared.get(id(plan)) if run.shared else None
    if entry is not None:
        entry[0] -= 1
        if entry[1] is not None:
            if not entry[0]:
                del run.shared[id(plan)]
            context.count("batch.shared_reuse")
            return entry[1]
    context.checkpoint()
    result = _execute_node(plan, context, run)
    if context._limited:
        context.checkpoint(result.weight())
    if context.observations is not None:
        context.observations.setdefault(id(plan), {})["actual_rows"] = (
            result.weight()
        )
    if entry is not None:
        entry[1] = result
    return result


def _execute_node(plan: Operator, context: ExecutionContext, run: _Run) -> ColumnarBatch:
    if isinstance(plan, PhysicalOperator):
        children = [_execute(child, context, run) for child in plan.children()]
        context.count(type(plan).__name__.lower())
        return plan.execute_batch(children, context)

    if isinstance(plan, RelationAccess):
        # Plans produced by the snapshot rewrite scan the same table several
        # times: one batch (its row view, its wrapped lists) per table and run.
        batch = run.scans.get(plan.name)
        if batch is None:
            batch = run.scans[plan.name] = ColumnarBatch.from_version(
                context.snapshot[plan.name]
            )
        return batch.relabelled(plan.alias, batch.schema) if plan.alias else batch

    if isinstance(plan, ConstantRelation):
        return ColumnarBatch.from_rows("constant", plan.schema, plan.rows)

    if isinstance(plan, Selection):
        return _selection(_execute(plan.child, context, run), plan.predicate, context)

    if isinstance(plan, Projection):
        return _projection(_execute(plan.child, context, run), plan.columns)

    if isinstance(plan, Rename):
        return _rename(_execute(plan.child, context, run), dict(plan.renames))

    if isinstance(plan, Join):
        left = _execute(plan.left, context, run)
        right = _execute(plan.right, context, run)
        return _join(left, right, plan.predicate, context, plan)

    if isinstance(plan, Union):
        left = _execute(plan.left, context, run)
        right = _execute(plan.right, context, run)
        return _union(left, right, context)

    if isinstance(plan, Difference):
        left = _execute(plan.left, context, run)
        right = _execute(plan.right, context, run)
        return _except_all(left, right, context)

    if isinstance(plan, Aggregation):
        return _aggregate(
            _execute(plan.child, context, run), plan.group_by, plan.aggregates
        )

    if isinstance(plan, Distinct):
        return _distinct(_execute(plan.child, context, run), context)

    raise ExecutorError(f"unsupported operator {type(plan).__name__}")


# -- columnar operators ---------------------------------------------------------------


def _selection(
    batch: ColumnarBatch, predicate: Expression, context: ExecutionContext
) -> ColumnarBatch:
    mask = predicate.compile_batch(batch.schema)(batch.columns, len(batch.counts))
    if all(mask):
        context.count("rows_filtered", 0)
        return batch.relabelled("selection", batch.schema)
    # Above the kernel cutover every column is gathered at the kept rows'
    # index -- its typed forms follow and its values list is filtered only
    # if someone reads it; below it, one zipped comprehension per column.
    columns: Union[List[Column], List[List[Any]]]
    typed = _kernels.worthwhile(len(mask))
    if typed:
        kept = _kernels.kept_rows(mask)
        columns = [Column.gathered(column, kept) for column in batch.typed]
    else:
        columns = [
            [value for value, keep in zip(column, mask) if keep]
            for column in batch.columns
        ]
    counts = [count for count, keep in zip(batch.counts, mask) if keep]
    context.count("rows_filtered", len(batch.counts) - len(counts))
    # A subset of an all-ones counts column stays all ones; otherwise unknown.
    return ColumnarBatch(
        "selection",
        batch.schema,
        columns,
        counts,
        True if batch._ones else None,
        typed=typed,
    )


def _projection(
    batch: ColumnarBatch, columns: Tuple[Tuple[Expression, str], ...]
) -> ColumnarBatch:
    schema = tuple(name for _, name in columns)
    n = len(batch.counts)
    # From the cutover on REWR's period intersection runs on (and hands on)
    # arrays and an int constant is born as one; typed in is typed out in
    # any case.
    arrays = _kernels.worthwhile(n)
    typed = arrays or batch._is_typed
    source = batch.typed if typed else batch.columns
    out_columns: List[Any] = []
    for expression, _name in columns:
        if isinstance(expression, Attribute):
            # Zero-copy: reuse the input column object, typed forms and all.
            out_columns.append(source[batch.column_index(expression.name)])
            continue
        column = None
        if arrays:
            column = (
                _kernels.constant_ints(expression.value, n)
                if isinstance(expression, Literal)
                else _period_bound(expression, batch)
            )
        if column is None:
            column = expression.compile_batch(batch.schema)(batch.columns, n)
            if typed:
                column = Column(column)
        out_columns.append(column)
    return ColumnarBatch(
        "projection", schema, out_columns, batch.counts, batch._ones, typed=typed
    )


def _period_bound(expression: Expression, batch: ColumnarBatch) -> Optional[Column]:
    """REWR's ``greatest(a, b)`` / ``least(a, b)`` over two int columns, as one array op."""
    if (
        isinstance(expression, FunctionCall)
        and expression.name in ("greatest", "least")
        and len(expression.args) == 2
        and all(isinstance(argument, Attribute) for argument in expression.args)
    ):
        first, second = (
            batch.typed[batch.column_index(argument.name)] for argument in expression.args
        )
        return _kernels.period_bound(expression.name == "greatest", first, second)
    return None


def _rename(batch: ColumnarBatch, renames: Dict[str, str]) -> ColumnarBatch:
    missing = set(renames) - set(batch.schema)
    if missing:
        raise ExecutorError(f"cannot rename unknown attributes {sorted(missing)}")
    return batch.relabelled(
        batch.name, tuple(renames.get(name, name) for name in batch.schema)
    )


def _union(
    left: ColumnarBatch, right: ColumnarBatch, context: ExecutionContext
) -> ColumnarBatch:
    """Bag union: the right input's entries after the left's.

    Row-backed inputs add their row lists, column-backed ones their value
    lists; from the kernel cutover on two column-backed inputs are laid end
    to end as :meth:`Column.concatenated <repro.engine.kernels.Column
    .concatenated>` columns (``batch.union_vectorized``) -- int arrays
    joined, the right dictionary mapped into the left's, a values list added
    only if someone reads it -- so typed inputs stay typed through a union.
    """
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"union-incompatible schemas {left.schema} and {right.schema}"
        )
    ones = True if left._ones and right._ones else None
    counts = left.counts + right.counts
    if left._columns is None or right._columns is None:
        # At least one side is row-backed: concatenating entry rows avoids
        # forcing its transpose (and stays lazy for the output).
        return ColumnarBatch(
            "union",
            left.schema,
            None,
            counts,
            ones,
            rows=left.entry_rows() + right.entry_rows(),
        )
    columns: List[Any]
    typed = _kernels.worthwhile(len(counts))
    if typed:
        context.count("batch.union_vectorized")
        columns = [
            Column.concatenated(left_column, right_column)
            for left_column, right_column in zip(left.typed, right.typed)
        ]
    else:
        columns = [
            left_column + right_column
            for left_column, right_column in zip(left.columns, right.columns)
        ]
    return ColumnarBatch("union", left.schema, columns, counts, ones, typed=typed)


def _except_all(
    left: ColumnarBatch, right: ColumnarBatch, context: ExecutionContext
) -> ColumnarBatch:
    """Bag difference (``EXCEPT ALL``): per distinct row, left count minus right count.

    :func:`repro.engine.sweeps.except_all` -- a ``dict`` of row tuples --
    defines the result: one entry per distinct left row whose net
    multiplicity is positive, in first-seen order, printed as the left input
    first holds it.  From the kernel
    cutover on, a left input that arrives as columns (a scan, a split, a
    kernel-served join: what REWR puts under a difference) is consolidated
    by :func:`repro.engine.kernels.consolidate` over the columns' codes
    (``batch.except_all_vectorized``) -- the same entries -- and the output
    is that input :meth:`~ColumnarBatch.taken` at the surviving rows, forms
    included: a coalesce above it (the ablation's split-based difference
    has one) derives nothing.
    One that arrives as row tuples only (a constant, a hash join) keeps the
    ``dict``: over tuples already built it is the cheaper pass at every size
    (``benchmarks/kernel_cutover.py``).
    """
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"difference-incompatible schemas {left.schema} and {right.schema}"
        )
    if left._columns is not None and _kernels.worthwhile(len(left) + len(right)):
        at, net = _kernels.consolidate(
            (left.typed, right.typed),
            (len(left), len(right)),
            (
                None if left.all_ones() else left.counts,
                None if right.all_ones() else right.counts,
            ),
        )
        context.count("batch.except_all_vectorized")
        return left.taken("except_all", at, [1] * len(at) if net is None else net, net is None)
    rows, counts = _sweeps.except_all(
        left.entry_rows(), left.counts, right.entry_rows(), right.counts
    )
    return ColumnarBatch(
        "except_all", left.schema, None, counts, counts.count(1) == len(counts), rows=rows
    )


def _distinct(batch: ColumnarBatch, context: ExecutionContext) -> ColumnarBatch:
    """One entry per distinct row, in first-seen order, multiplicities dropped.

    The twin of :func:`_except_all` with nothing to subtract, routed the same
    way: a column-backed input at the kernel cutover is the rows
    :func:`repro.engine.kernels.consolidate` finds over the columns' codes
    (``batch.distinct_vectorized``), a row-backed one ``dict.fromkeys``.
    """
    if batch._columns is not None and _kernels.worthwhile(len(batch)):
        at, _net = _kernels.consolidate((batch.typed,), (len(batch),), (None,))
        context.count("batch.distinct_vectorized")
        return batch.taken("distinct", at, [1] * len(at), True)
    rows = list(dict.fromkeys(batch.entry_rows()))
    return ColumnarBatch.from_rows("distinct", batch.schema, rows)


def _aggregate(
    batch: ColumnarBatch, group_by: Tuple[str, ...], aggregates
) -> ColumnarBatch:
    unknown = set(group_by) - set(batch.schema)
    if unknown:
        raise ExecutorError(f"unknown group-by attributes {sorted(unknown)}")
    n = len(batch.counts)
    rows = _sweeps.aggregate(
        [batch.column(a) for a in group_by],
        batch.counts,
        [
            (
                spec.func,
                None
                if spec.argument is None
                else spec.argument.compile_batch(batch.schema)(batch.columns, n),
            )
            for spec in aggregates
        ],
    )
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
    """The join: an interval join's kernel when worthwhile, else the scalar join of :mod:`repro.engine.sweeps`.

    What the kernel declines, and every hash or nested-loop join, runs
    :func:`repro.engine.sweeps.join` over the inputs' expanded row tuples;
    ``batch.partitions`` counts the equality-key partitions a scalar
    interval join swept.
    """
    keys, interval, condition = _plan_join(left, right, predicate, context, node)
    schema = left.schema + right.schema
    if interval is not None and _kernels.worthwhile(len(left) + len(right)):
        served = _interval_join_vectorized(left, right, schema, keys, interval, condition, context)
        if served is not None:
            return served
    rows, partitions = _sweeps.join(
        left.expanded_rows(),
        right.expanded_rows(),
        keys,
        interval,
        None if condition is None else condition.compile(schema),
        context.checkpoint if context._limited else None,
    )
    if interval is not None:
        context.count("batch.partitions", partitions)
    return ColumnarBatch.from_rows("join", schema, rows)


def _interval_join_vectorized(
    left: ColumnarBatch,
    right: ColumnarBatch,
    schema: Tuple[str, ...],
    keys: List[Tuple[int, int]],
    pattern: Tuple[int, int, int, int],
    residual: Optional[Expression],
    context: ExecutionContext,
) -> Optional[ColumnarBatch]:
    """Interval-overlap join on the whole-column kernel, or ``None`` where it declines.

    :func:`repro.engine.kernels.interval_join_vectorized` serves the join --
    equality keys, multiplicities, residual and limits included;
    ``join_strategy.interval_vectorized`` counts those.  It answers with
    index pairs: the output batch's columns are the inputs' gathered at
    them, late, and its row tuples -- should a parent ask for rows instead
    -- one :func:`~repro.engine.kernels.paired_rows` call.
    """
    lb, le, rb, re = pattern
    left_typed, right_typed = left.typed, right.typed

    def gathered(left_index: Any, right_index: Any) -> List[Column]:
        columns = [Column.gathered(column, left_index) for column in left_typed]
        columns += [Column.gathered(column, right_index) for column in right_typed]
        return columns

    keep = None
    if residual is not None:
        # Evaluated column-wise on one block of candidate pairs at a
        # time: only the attributes the residual names are gathered.
        evaluate = residual.compile_batch(schema)

        def keep(left_index: Any, right_index: Any) -> Sequence[Any]:
            columns = _ValueLists(gathered(left_index, right_index))
            return evaluate(columns, len(left_index))

    served = _kernels.interval_join_vectorized(
        [left_typed[index] for index, _ in keys],
        [right_typed[index] for _, index in keys],
        (left_typed[lb], left_typed[le]),
        (right_typed[rb], right_typed[re]),
        None if left.all_ones() else left.counts,
        None if right.all_ones() else right.counts,
        keep,
        context.stage_checkpoint if context._limited else None,
    )
    if served is None:
        return None
    context.count("join_strategy.interval_vectorized")
    left_index, right_index, counts = served
    return ColumnarBatch(
        "join",
        schema,
        gathered(left_index, right_index),
        [1] * len(left_index) if counts is None else counts,
        True if counts is None else None,
        rows=lambda: _kernels.paired_rows(
            left.entry_rows(), left_index, right.entry_rows(), right_index
        ),
        typed=True,
    )
