"""Plan execution over multiset tables: the engine's entry point and its row reference.

This is the substrate standing in for PostgreSQL/DBX/DBY in the paper's
experiments.  :func:`execute` is the one entry point of the in-memory
engine; queries run on the columnar operators of :mod:`repro.engine.batch`.
The plan dispatch below -- over :class:`~repro.engine.table.Table` objects
holding row tuples, every multiplicity expanded, no ``ColumnarBatch`` ever
built -- is the *reference* the engine is checked against:
``execute(..., executor="row")`` is named by the reference differential
suite and the benchmark's digest gate, and is nothing a session, DSN or
wire frame can select.

The reference has no operator algorithm of its own.  Joins, bag
difference and grouping -- and, through the ``execute`` methods of
:mod:`repro.rewriter.operators`, split, coalescing and temporal aggregation
-- call the one scalar definition of each in :mod:`repro.engine.sweeps`,
which the engine runs wherever its kernels decline.  What the reference
keeps apart is the plan plumbing (a table per node, multiplicities
expanded) and row-at-a-time expression evaluation
(:meth:`~repro.algebra.expressions.Expression.compile`, where the engine
uses ``compile_batch``).  It also runs every occurrence of a sub-plan the
plan holds twice, where the engine runs a shared node once and hands its
batch to each parent: sharing one batch between parents is checked by the
reference differential only because the reference does not share.

Shared with the engine: :class:`ExecutionContext`, :class:`PhysicalOperator`
(the rewriter's coalesce, split, temporal aggregation and monus sweep
subclass it, with an ``execute`` for the reference and an ``execute_batch``
for the engine)
and the join-predicate analysis of :func:`_plan_join`.  A join whose
predicate contains the interval-overlap pattern -- a pair of
opposite-direction strict comparisons across the inputs, i.e. ``l.begin <
r.end AND r.begin < l.end`` as emitted by the snapshot rewrite -- runs as
an interval join; other joins hash on their equality conjuncts, or loop
when there are none.  The strategy is reported under
``join_strategy.interval`` / ``join_strategy.hash`` /
``join_strategy.nested_loop``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..execution import Deadline, QueryLimits

from ..errors import ResourceLimitError
from ..algebra.expressions import Attribute, BooleanOp, Comparison, Expression
from ..algebra.operators import (
    Aggregation,
    AlgebraError,
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
from . import sweeps as _sweeps
from .catalog import Database
from .table import Table, TableVersion, tuple_getter

__all__ = ["ENGINE_NAME", "ExecutionContext", "PhysicalOperator", "execute", "ExecutorError"]

#: The name of the engine that runs queries (what ``Session.executor``
#: reports); ``"row"`` names the reference operators of this module.
ENGINE_NAME = "batch"


class ExecutorError(AlgebraError):
    """Raised when a plan cannot be executed."""


@dataclass
class ExecutionContext:
    """Carries the catalog and execution statistics through a plan run.

    ``statistics`` is kept as a :class:`collections.Counter` internally so
    counting is a single ``+=`` without per-call ``dict.get`` probing; a
    plain mapping passed to the constructor is coerced (its entries are
    seeded into the counter).  :func:`execute` folds the counts back into
    whatever mapping the caller supplied.
    """

    database: Database
    statistics: Counter | None = None
    #: Per-node execution observations keyed by ``id(plan node)``:
    #: ``actual_rows`` for every node, plus ``join_strategy`` on joins.
    #: ``None`` (the default) disables recording; ``explain()`` passes a
    #: dict here to line actuals up against the estimated row counts.
    observations: Optional[Dict[int, Dict[str, Any]]] = None
    #: Cooperative fault-tolerance limits (see :class:`repro.execution
    #: .ExecutionPolicy`): a wall-clock :class:`~repro.execution.Deadline`
    #: polled inside operator and sweep loops, and a per-operator output-row
    #: budget bounding runaway plans.
    deadline: "Optional[Deadline]" = None
    row_budget: Optional[int] = None
    #: The table versions every ``RelationAccess`` of this run reads: the
    #: catalog's :meth:`~repro.engine.catalog.Database.snapshot`, taken once,
    #: here -- writes that land while the plan runs are the next query's.
    snapshot: Optional[Mapping[str, TableVersion]] = None

    def __post_init__(self) -> None:
        if self.statistics is not None and not isinstance(self.statistics, Counter):
            self.statistics = Counter(self.statistics)
        if self.snapshot is None:
            self.snapshot = self.database.snapshot()
        # Precomputed so the unlimited (default) checkpoint is one branch.
        self._limited = self.deadline is not None or self.row_budget is not None

    def count(self, key: str, amount: int = 1) -> None:
        if self.statistics is not None:
            self.statistics[key] += amount

    def checkpoint(self, produced: int = 0) -> None:
        """Cooperative limit check, called from operator and sweep loops.

        ``produced`` is the number of rows the current operator has emitted
        so far; exceeding the row budget raises
        :class:`~repro.errors.ResourceLimitError`, an expired deadline
        raises :class:`~repro.errors.QueryTimeoutError` (amortised through
        :meth:`~repro.execution.Deadline.poll`).
        """
        if not self._limited:
            return
        if self.deadline is not None:
            self.deadline.poll()
        self._check_budget(produced)

    def stage_checkpoint(self, produced: int = 0) -> None:
        """:meth:`checkpoint` for the boundaries between whole-column kernel stages.

        A stage runs for milliseconds and an operator has a handful of them,
        so the deadline's clock is read on every call rather than once per
        ``Deadline.POLL_INTERVAL`` polls; ``produced`` may be a row count
        the kernel is *about* to materialise.
        """
        if self.deadline is not None:
            self.deadline.check()
        self._check_budget(produced)

    def _check_budget(self, produced: int) -> None:
        if self.row_budget is not None and produced > self.row_budget:
            raise ResourceLimitError(
                f"operator produced {produced} rows, exceeding the "
                f"{self.row_budget}-row budget"
            )


class PhysicalOperator(Operator):
    """Extension hook: an operator that executes itself over its children's results.

    The snapshot middleware adds coalesce, split, temporal aggregation and
    the monus sweep this way -- the integration path Section 10.5 of the paper sketches.  A
    subclass implements both methods: :meth:`execute` for the row reference
    and :meth:`execute_batch` for the engine.
    """

    def execute(self, children: Sequence[Table], context: ExecutionContext) -> Table:
        """The row reference: run over the children's tables."""
        raise NotImplementedError

    def execute_batch(self, children: Sequence[Any], context: ExecutionContext) -> Any:
        """The engine: run over the children's ``ColumnarBatch`` objects."""
        raise NotImplementedError


def execute(
    plan: Operator,
    database: Database,
    statistics: Dict[str, int] | None = None,
    limits: "Optional[QueryLimits]" = None,
    executor: str = ENGINE_NAME,
    observations: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Table:
    """Execute a logical plan against the catalog and return a result table.

    This is the in-process engine only; other execution hosts are reached
    through :class:`~repro.rewriter.pipeline.QueryPipeline` or by calling a
    :mod:`repro.backends` instance directly.  The engine takes no tuning
    option: which join strategy runs follows from the predicate, and
    whether a temporal operator runs its whole-column kernel or its scalar
    twin from :func:`repro.engine.kernels.worthwhile`.  ``limits``
    carries a per-execution deadline and row budget (see
    :class:`repro.execution.QueryLimits`), enforced cooperatively inside
    the operator loops.  ``executor`` is the reference door, not a tuning
    knob: ``"batch"`` (the default) is the engine, columnar batches in
    :mod:`repro.engine.batch`; ``"row"`` runs this module's tuple-streaming
    reference operators, for differential checks.  ``observations`` -- when
    a dict is passed -- collects per-node ``actual_rows`` /
    ``join_strategy`` readouts for ``explain()``.
    """
    if executor not in ("row", "batch"):
        raise ExecutorError(
            f"unknown executor {executor!r}; expected 'row' or 'batch'"
        )
    counter = None if statistics is None else Counter()
    context = ExecutionContext(
        database=database,
        statistics=counter,
        deadline=limits.deadline if limits is not None else None,
        row_budget=limits.row_budget if limits is not None else None,
        observations=observations,
    )
    context.count(f"executor.{executor}")
    try:
        if executor == "batch":
            from .batch import execute_batch_plan

            return execute_batch_plan(plan, context).to_table()
        return _execute(plan, context)
    finally:
        # Fold counts back even when a plan raises mid-execution, so the
        # caller keeps the partial statistics of the stages that did run.
        if statistics is not None:
            for key, amount in counter.items():
                statistics[key] = statistics.get(key, 0) + amount


def _execute(plan: Operator, context: ExecutionContext) -> Table:
    context.checkpoint()
    result = _execute_node(plan, context)
    if context._limited:
        context.checkpoint(len(result.rows))
    if context.observations is not None:
        context.observations.setdefault(id(plan), {})["actual_rows"] = len(
            result.rows
        )
    return result


def _execute_node(plan: Operator, context: ExecutionContext) -> Table:
    if isinstance(plan, PhysicalOperator):
        children = [_execute(child, context) for child in plan.children()]
        context.count(type(plan).__name__.lower())
        return plan.execute(children, context)

    if isinstance(plan, RelationAccess):
        return context.snapshot[plan.name].as_table(plan.alias)

    if isinstance(plan, ConstantRelation):
        return Table("constant", plan.schema, plan.rows)

    if isinstance(plan, Selection):
        return _selection(_execute(plan.child, context), plan.predicate, context)

    if isinstance(plan, Projection):
        return _projection(_execute(plan.child, context), plan.columns, context)

    if isinstance(plan, Rename):
        return _rename(_execute(plan.child, context), dict(plan.renames))

    if isinstance(plan, Join):
        left = _execute(plan.left, context)
        right = _execute(plan.right, context)
        return _join(left, right, plan.predicate, context, plan)

    if isinstance(plan, Union):
        left = _execute(plan.left, context)
        right = _execute(plan.right, context)
        return _union(left, right)

    if isinstance(plan, Difference):
        left = _execute(plan.left, context)
        right = _execute(plan.right, context)
        return _except_all(left, right)

    if isinstance(plan, Aggregation):
        return _aggregate(
            _execute(plan.child, context), plan.group_by, plan.aggregates
        )

    if isinstance(plan, Distinct):
        child = _execute(plan.child, context)
        result = child.empty_copy("distinct")
        result.extend(dict.fromkeys(child.rows))
        return result

    raise ExecutorError(f"unsupported operator {type(plan).__name__}")


# -- individual physical operators ---------------------------------------------------------------


def _selection(table: Table, predicate: Expression, context: ExecutionContext) -> Table:
    result = table.empty_copy("selection")
    keep = predicate.compile(table.schema)
    result.rows = [row for row in table.rows if keep(row)]
    context.count("rows_filtered", len(table) - len(result))
    return result


def _projection(
    table: Table, columns: Tuple[Tuple[Expression, str], ...], context: ExecutionContext
) -> Table:
    result = Table("projection", tuple(name for _, name in columns))
    simple_indexes = _simple_attribute_indexes(table, columns)
    if simple_indexes is not None:
        getter = tuple_getter(simple_indexes)
        result.rows = [getter(row) for row in table.rows]
        return result
    compiled = tuple(expr.compile(table.schema) for expr, _ in columns)
    if len(compiled) == 1:
        (only,) = compiled
        result.rows = [(only(row),) for row in table.rows]
    elif len(compiled) == 2:
        first, second = compiled
        result.rows = [(first(row), second(row)) for row in table.rows]
    elif len(compiled) == 3:
        first, second, third = compiled
        result.rows = [(first(row), second(row), third(row)) for row in table.rows]
    else:
        result.rows = [tuple(fn(row) for fn in compiled) for row in table.rows]
    return result


def _simple_attribute_indexes(
    table: Table, columns: Tuple[Tuple[Expression, str], ...]
) -> Optional[List[int]]:
    """Positional fast path when every projection expression is an attribute."""
    indexes: List[int] = []
    for expr, _name in columns:
        if not isinstance(expr, Attribute):
            return None
        indexes.append(table.column_index(expr.name))
    return indexes


def _rename(table: Table, renames: Dict[str, str]) -> Table:
    missing = set(renames) - set(table.schema)
    if missing:
        raise ExecutorError(f"cannot rename unknown attributes {sorted(missing)}")
    schema = tuple(renames.get(name, name) for name in table.schema)
    return Table(table.name, schema, table.rows)


def _union(left: Table, right: Table) -> Table:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"union-incompatible schemas {left.schema} and {right.schema}"
        )
    result = left.empty_copy("union")
    result.rows = list(left.rows)
    result.rows.extend(right.rows)
    return result


def _except_all(left: Table, right: Table) -> Table:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"difference-incompatible schemas {left.schema} and {right.schema}"
        )
    rows, counts = _sweeps.except_all(
        left.rows, [1] * len(left), right.rows, [1] * len(right)
    )
    result = left.empty_copy("except_all")
    result.rows = _sweeps.expand(rows, counts)
    return result


def _aggregate(table: Table, group_by: Tuple[str, ...], aggregates) -> Table:
    unknown = set(group_by) - set(table.schema)
    if unknown:
        raise ExecutorError(f"unknown group-by attributes {sorted(unknown)}")
    result = Table(
        "aggregation", tuple(group_by) + tuple(spec.alias for spec in aggregates)
    )
    result.rows = _sweeps.aggregate(
        [table.column(a) for a in group_by],
        [1] * len(table),
        [
            (
                spec.func,
                None
                if spec.argument is None
                else list(map(spec.argument.compile(table.schema), table.rows)),
            )
            for spec in aggregates
        ],
    )
    return result


# -- join -----------------------------------------------------------------------------------------


def _join(
    left: Table,
    right: Table,
    predicate: Optional[Expression],
    context: ExecutionContext,
    node: Optional[Join] = None,
) -> Table:
    keys, interval, condition = _plan_join(left, right, predicate, context, node)
    schema = left.schema + right.schema
    result = Table("join", schema)
    result.rows, _partitions = _sweeps.join(
        left.rows,
        right.rows,
        keys,
        interval,
        None if condition is None else condition.compile(schema),
        context.checkpoint if context._limited else None,
    )
    return result


def _plan_join(
    left: Any,
    right: Any,
    predicate: Optional[Expression],
    context: ExecutionContext,
    node: Optional[Join],
) -> Tuple[List[Tuple[int, int]], Optional["_IntervalPattern"], Optional[Expression]]:
    """Read a join's algorithm off its predicate, for either executor's inputs.

    Rejects inputs that share attributes, counts the strategy -- interval
    when the overlap pattern is there, else hash on the equality conjuncts,
    else nested loop -- and records it for ``explain()``.  Returns the
    equality key pairs, the overlap pattern and the condition left to test
    on a candidate pair: the residual conjuncts, or for a nested loop the
    whole predicate.
    """
    overlap = set(left.schema) & set(right.schema)
    if overlap:
        raise ExecutorError(
            f"join inputs share attributes {sorted(overlap)}; rename first"
        )
    keys, residual = _split_join_predicate(predicate, left, right)
    interval, residual = _extract_interval_pattern(residual, left, right)
    strategy = "interval" if interval is not None else "hash" if keys else "nested_loop"
    context.count(f"join_strategy.{strategy}")
    if context.observations is not None and node is not None:
        context.observations.setdefault(id(node), {})["join_strategy"] = strategy
    condition = predicate if strategy == "nested_loop" else _combine_residual(residual)
    return keys, interval, condition


def _split_join_predicate(
    predicate: Optional[Expression], left: Table, right: Table
) -> Tuple[List[Tuple[int, int]], List[Expression]]:
    """Split a predicate into hashable equi-join key pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair is (left column index,
    right column index).  Conjuncts that are not attribute equalities across
    the two inputs stay in the residual list.
    """
    if predicate is None:
        return [], []
    conjuncts = _flatten_conjuncts(predicate)
    pairs: List[Tuple[int, int]] = []
    residual: List[Expression] = []
    for conjunct in conjuncts:
        pair = _equi_pair(conjunct, left, right)
        if pair is None:
            residual.append(conjunct)
        else:
            pairs.append(pair)
    return pairs, residual


def _combine_residual(conjuncts: List[Expression]) -> Optional[Expression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanOp("and", tuple(conjuncts))


def _flatten_conjuncts(predicate: Expression) -> List[Expression]:
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        result: List[Expression] = []
        for operand in predicate.operands:
            result.extend(_flatten_conjuncts(operand))
        return result
    return [predicate]


def _equi_pair(
    conjunct: Expression, left: Table, right: Table
) -> Optional[Tuple[int, int]]:
    if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
        return None
    lhs, rhs = conjunct.left, conjunct.right
    if not (isinstance(lhs, Attribute) and isinstance(rhs, Attribute)):
        return None
    if left.has_attribute(lhs.name) and right.has_attribute(rhs.name):
        return left.column_index(lhs.name), right.column_index(rhs.name)
    if left.has_attribute(rhs.name) and right.has_attribute(lhs.name):
        return left.column_index(rhs.name), right.column_index(lhs.name)
    return None


class _IntervalPattern(NamedTuple):
    """Column indexes of a detected overlap predicate.

    The predicate ``left[begin] < right[end] AND right[begin] < left[end]``
    is exactly the strict-overlap test of the intervals
    ``[left.begin, left.end)`` and ``[right.begin, right.end)`` -- the shape
    every REWR join carries.
    """

    left_begin: int
    left_end: int
    right_begin: int
    right_end: int


def _extract_interval_pattern(
    conjuncts: List[Expression], left: Table, right: Table
) -> Tuple[Optional[_IntervalPattern], List[Expression]]:
    """Find an overlap pattern among residual conjuncts.

    Looks for one strict attribute comparison in each direction across the
    inputs (``l.a < r.b`` and ``r.c < l.d``, with ``>`` normalised); together
    they state that interval ``(a, d)`` on the left overlaps ``(c, b)`` on
    the right.  Returns the pattern (or ``None``) plus the leftover
    conjuncts, which the join applies as a filter on matching pairs.
    """
    forward: Optional[Tuple[int, int]] = None  # left column < right column
    backward: Optional[Tuple[int, int]] = None  # right column < left column
    remaining: List[Expression] = []
    for conjunct in conjuncts:
        sides = _strict_cross_comparison(conjunct, left, right)
        if sides is None:
            remaining.append(conjunct)
            continue
        direction, low, high = sides
        if direction == "forward" and forward is None:
            forward = (low, high)
        elif direction == "backward" and backward is None:
            backward = (low, high)
        else:
            remaining.append(conjunct)
    if forward is None or backward is None:
        return None, conjuncts
    pattern = _IntervalPattern(
        left_begin=forward[0],
        left_end=backward[1],
        right_begin=backward[0],
        right_end=forward[1],
    )
    return pattern, remaining


def _strict_cross_comparison(
    conjunct: Expression, left: Table, right: Table
) -> Optional[Tuple[str, int, int]]:
    """Classify a conjunct as a strict ``<`` between the two inputs.

    Returns ``("forward", left index, right index)`` for ``l.a < r.b``,
    ``("backward", right index, left index)`` for ``r.c < l.d`` (both after
    normalising ``>``), or ``None``.
    """
    if not (isinstance(conjunct, Comparison) and conjunct.op in ("<", ">")):
        return None
    lhs, rhs = conjunct.left, conjunct.right
    if conjunct.op == ">":
        lhs, rhs = rhs, lhs
    if not (isinstance(lhs, Attribute) and isinstance(rhs, Attribute)):
        return None
    if left.has_attribute(lhs.name) and right.has_attribute(rhs.name):
        return "forward", left.column_index(lhs.name), right.column_index(rhs.name)
    if right.has_attribute(lhs.name) and left.has_attribute(rhs.name):
        return "backward", right.column_index(lhs.name), left.column_index(rhs.name)
    return None
