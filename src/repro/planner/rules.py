"""Rule-based logical plan rewrites (selection push-down, projection cleanup).

The planner applies classical rewrites until a fixpoint:

* **conjunct splitting** -- ``sigma_{a AND b}`` is treated as two selections
  so each conjunct can move independently;
* **selection push-down** -- conjuncts move below projections (substituting
  the defining expressions), renames (rewritten through the inverse
  mapping, with shadowed names blocked), unions (both sides, rewritten
  positionally for the right side), bag difference (the left side always --
  ``sigma(L - R) = sigma(L) - R = sigma(L) - sigma(R)`` holds for the bag
  monus -- and the right side when its schema is resolvable), grouped
  aggregation (conjuncts over grouping attributes only), ``DISTINCT`` and
  into the matching side of a join;
* **join predicate folding** -- conjuncts above a join that reference both
  sides become part of the join predicate, where the executor can recognise
  equality conjuncts (hash/partition keys) and the interval-overlap pattern
  (sort-merge interval join) instead of re-filtering a nested-loop result;
* **projection simplification** -- adjacent attribute-only projections
  collapse, identity projections disappear, and projections sink through
  the temporal extension operators where their ``planner_projection_pushdown``
  hook allows it;
* **interning** -- last, once: equal sub-plans become one object.  REWR
  hands the same input object to both splits of a difference or distinct,
  and every pass above keeps that sharing: it visits each object once
  (memoised on ``id()``), rebuilds a node only when a child changed, and
  reads schemas from one memo per :func:`optimize` call, so a plan stays a
  DAG and the fixpoint is reached when a round returns its input itself.
  Interning still merges what is equal but distinct: sub-plans the fluent
  API built twice, a query naming one sub-plan twice, and equal nodes the
  rules created.  The engine runs a node once per execution however many
  parents hold it (:mod:`repro.engine.batch`).  :func:`push_selections`
  does not intern: partition-key inference tells equal stubs apart by
  ``id()``.

Operators outside the core algebra (the rewriter's coalesce / split /
temporal aggregation) take part through the planner hooks declared on
:class:`~repro.algebra.operators.Operator`; the planner itself never
imports them.

``optimize`` optionally records how often each rule fired into a statistics
mapping under ``planner.*`` keys, mirroring the executor's ``join_strategy``
counters; a rule fires once per distinct node, however many parents share it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import is_dataclass
from operator import is_not
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..algebra import expressions as e
from ..algebra.expressions import Attribute, BooleanOp, Expression
from ..algebra.operators import (
    Aggregation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    Rename,
    Selection,
    Union,
)
from .schema import _infer_schema, _SchemaMemo

if TYPE_CHECKING:  # duck-typed at runtime (see planner.schema)
    from ..engine.catalog import Database

__all__ = ["optimize", "push_selections", "split_conjuncts", "substitute"]

#: Safety bound on fixpoint rounds (each round is already monotone).
_MAX_ROUNDS = 10


class _Context:
    """One :func:`optimize` call: the rule counter, the schema memo (kept for
    the whole call) and the node memo of the running pass (fresh per pass).

    It lives in the call, never in the module: the server plans on a thread
    pool.
    """

    __slots__ = ("database", "stats", "schemas", "memo")

    def __init__(self, database: "Optional[Database]") -> None:
        self.database = database
        self.stats: Counter = Counter()
        self.schemas: _SchemaMemo = {}
        self.memo: Dict[int, Tuple[Operator, Operator]] = {}

    def schema(self, plan: Operator) -> Optional[Tuple[str, ...]]:
        return _infer_schema(plan, self.database, self.schemas)


_Rule = Callable[[Operator, _Context], Operator]


def _pass(rule: _Rule) -> _Rule:
    """``rule``, applied at one node whose children are done, as a whole pass.

    Bottom up, once per object: a node met again (REWR hands the same
    inputs to both splits of a difference) is answered from the pass's
    memo, and a node is rebuilt only when a child came back as a different
    object, so a pass that changes nothing returns its input itself.
    """

    def visit(node: Operator, ctx: _Context) -> Operator:
        done = ctx.memo.get(id(node))
        if done is not None:
            return done[1]
        children = node.children()
        new = [visit(child, ctx) for child in children]
        changed = any(map(is_not, new, children))
        result = rule(node.with_children(*new) if changed else node, ctx)
        ctx.memo[id(node)] = (node, result)
        return result

    return visit


def optimize(
    plan: Operator,
    database: "Optional[Database]" = None,
    statistics: Optional[Dict[str, int]] = None,
    mode: str = "syntactic",
) -> Operator:
    """Apply the rewrite rules until a fixpoint (bounded number of passes).

    ``statistics``, when given, receives ``planner.<rule>`` counters for
    every rule application, alongside whatever the caller already collected.
    """
    # ``mode`` selects nothing.  It stays, accepting the two strings
    # QueryPipeline.planner_mode returns, because the frozen benchmark suite
    # passes it (benchmarks/suite/harness.py:344, probes.py:89,94); the next
    # ``benchmark`` PR drops the argument there and then this keyword.
    if mode not in ("syntactic", "off"):
        raise ValueError(f"optimize() takes no planner mode, got mode={mode!r}")
    ctx = _Context(database)
    current = plan
    for _round in range(_MAX_ROUNDS):
        previous = current
        for rule_pass in (_push_selections, _simplify_projections):
            ctx.memo = {}
            current = rule_pass(current, ctx)
        if current is previous:
            break
    if statistics is not None:
        for key, amount in ctx.stats.items():
            statistics[key] = statistics.get(key, 0) + amount
    return _intern(current)


def split_conjuncts(predicate: Expression) -> Tuple[Expression, ...]:
    """Split a predicate into its top-level conjuncts."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        result: List[Expression] = []
        for operand in predicate.operands:
            result.extend(split_conjuncts(operand))
        return tuple(result)
    return (predicate,)


def substitute(expression: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace attribute references by expressions (used to cross Projection/Rename)."""
    if isinstance(expression, Attribute):
        return mapping.get(expression.name, expression)
    if isinstance(expression, BooleanOp):
        return BooleanOp(
            expression.op,
            tuple(substitute(operand, mapping) for operand in expression.operands),
        )
    if isinstance(expression, e.Comparison):
        return e.Comparison(
            expression.op,
            substitute(expression.left, mapping),
            substitute(expression.right, mapping),
        )
    if isinstance(expression, e.Arithmetic):
        return e.Arithmetic(
            expression.op,
            substitute(expression.left, mapping),
            substitute(expression.right, mapping),
        )
    if isinstance(expression, e.Not):
        return e.Not(substitute(expression.operand, mapping))
    if isinstance(expression, e.IsNull):
        return e.IsNull(substitute(expression.operand, mapping), expression.negated)
    if isinstance(expression, e.FunctionCall):
        return e.FunctionCall(
            expression.name,
            tuple(substitute(a, mapping) for a in expression.args),
        )
    return expression


# -- selection push-down ---------------------------------------------------------------------


def push_selections(plan: Operator, database: "Optional[Database]" = None) -> Operator:
    """One selection push-down pass on its own (no fixpoint, no projection rules).

    The entry point for code that needs to know *where a selection may go*
    rather than an optimised plan: partition-key inference for materialized
    views (:mod:`repro.incremental.partition`) probes operators through it.
    """
    return _push_selections(plan, _Context(database))


@_pass
def _push_selections(plan: Operator, ctx: _Context) -> Operator:
    if not isinstance(plan, Selection):
        return plan

    child = plan.child
    conjuncts = split_conjuncts(plan.predicate)

    if isinstance(child, Selection):
        # Merge adjacent selections so conjuncts can be pushed individually.
        ctx.stats["planner.selection_merge"] += 1
        merged = _combine(conjuncts + split_conjuncts(child.predicate))
        return _push_selections(Selection(child.child, merged), ctx)

    if isinstance(child, Union):
        return _push_into_union(plan, child, conjuncts, ctx)

    if isinstance(child, Difference):
        return _push_into_difference(plan, child, conjuncts, ctx)

    if isinstance(child, Rename):
        return _push_through_rename(plan, child, conjuncts, ctx)

    if isinstance(child, Projection):
        return _push_through_projection(plan, child, conjuncts, ctx)

    if isinstance(child, Distinct):
        ctx.stats["planner.pushdown_distinct"] += 1
        return Distinct(_push_selections(Selection(child.child, plan.predicate), ctx))

    if isinstance(child, Aggregation):
        return _push_into_aggregation(plan, child, conjuncts, ctx)

    if isinstance(child, Join):
        return _push_into_join(child, conjuncts, ctx)

    return _push_through_extension(plan, child, conjuncts, ctx)


def _push_into_union(
    plan: Selection,
    child: Union,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """sigma(L union-all R) = sigma(L) union-all sigma'(R).

    Union rows flow positionally, so the right-side copy of each conjunct
    must be rebound to the right child's attribute *names* at the same
    positions.  That needs both schemas; with either side unresolvable the
    selection stays above (never push against a half-known schema).
    """
    left_schema = ctx.schema(child.left)
    right_schema = ctx.schema(child.right)
    if left_schema is None or right_schema is None or len(left_schema) != len(right_schema):
        return plan
    pushable: List[Expression] = []
    pushable_right: List[Expression] = []
    blocked: List[Expression] = []
    for conjunct in conjuncts:
        mapped = _positional_rewrite(conjunct, left_schema, right_schema)
        if mapped is None:
            blocked.append(conjunct)
        else:
            pushable.append(conjunct)
            pushable_right.append(mapped)
    if not pushable:
        return plan
    ctx.stats["planner.pushdown_union"] += 1
    pushed: Operator = Union(
        _push_selections(Selection(child.left, _combine(tuple(pushable))), ctx),
        _push_selections(Selection(child.right, _combine(tuple(pushable_right))), ctx),
    )
    if blocked:
        return Selection(pushed, _combine(tuple(blocked)))
    return pushed


def _push_into_difference(
    plan: Selection,
    child: Difference,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """sigma(L except-all R) = sigma(L) except-all sigma'(R).

    Valid for the bag monus with a row-level predicate: multiplicities are
    ``max(m_L(t) - m_R(t), 0)`` for rows satisfying the predicate and 0
    otherwise, on both sides of the equation.  Filtering the left side alone
    is also exact (unmatched right rows subtract nothing), so the left push
    never waits on the right subtree's schema; the right side is filtered
    too when its schema is resolvable (positional rebinding, as for union).
    """
    ctx.stats["planner.pushdown_difference"] += 1
    new_left = _push_selections(Selection(child.left, plan.predicate), ctx)
    left_schema = ctx.schema(child.left)
    right_schema = ctx.schema(child.right)
    new_right = child.right
    if (
        left_schema is not None
        and right_schema is not None
        and len(left_schema) == len(right_schema)
    ):
        mapped = [
            _positional_rewrite(conjunct, left_schema, right_schema)
            for conjunct in conjuncts
        ]
        if all(m is not None for m in mapped):
            new_right = _push_selections(Selection(child.right, _combine(tuple(mapped))), ctx)
    return Difference(new_left, new_right)


def _push_through_rename(
    plan: Selection,
    child: Rename,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    renames = dict(child.renames)
    inverse = {new: old for old, new in renames.items()}
    mapping: Dict[str, Expression] = {new: Attribute(old) for new, old in inverse.items()}
    pushable: List[Expression] = []
    blocked: List[Expression] = []
    for conjunct in conjuncts:
        # An attribute crosses the rename when it is a new name (rewritten
        # through the inverse) or untouched by the mapping.  A name that the
        # rename *shadows* -- an old name renamed away and not reintroduced
        # -- must not be pushed: below the rename it would silently rebind
        # to the pre-rename column.
        if all(a in inverse or a not in renames for a in conjunct.attributes()):
            pushable.append(substitute(conjunct, mapping))
        else:
            blocked.append(conjunct)
    if not pushable:
        return plan
    ctx.stats["planner.pushdown_rename"] += 1
    pushed: Operator = Rename(
        _push_selections(Selection(child.child, _combine(tuple(pushable))), ctx),
        child.renames,
    )
    if blocked:
        return Selection(pushed, _combine(tuple(blocked)))
    return pushed


def _push_through_projection(
    plan: Selection,
    child: Projection,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """sigma_p(Pi_cols(R)) = Pi_cols(sigma_p'(R)) with defining expressions inlined."""
    mapping = {name: expr for expr, name in child.columns}
    pushable: List[Expression] = []
    blocked: List[Expression] = []
    for conjunct in conjuncts:
        if set(conjunct.attributes()) <= mapping.keys():
            pushable.append(substitute(conjunct, mapping))
        else:
            blocked.append(conjunct)
    if not pushable:
        return plan
    ctx.stats["planner.pushdown_projection"] += 1
    pushed: Operator = Projection(
        _push_selections(Selection(child.child, _combine(tuple(pushable))), ctx),
        child.columns,
    )
    if blocked:
        return Selection(pushed, _combine(tuple(blocked)))
    return pushed


def _push_into_aggregation(
    plan: Selection,
    child: Aggregation,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """Conjuncts over grouping attributes filter whole groups; push them below.

    Only for grouped aggregation: with an empty ``group_by`` the aggregation
    emits a row even for empty input, so no conjunct may move below it.
    """
    groups = set(child.group_by)
    pushable: List[Expression] = []
    blocked: List[Expression] = []
    for conjunct in conjuncts:
        attrs = set(conjunct.attributes())
        if attrs and attrs <= groups:
            pushable.append(conjunct)
        else:
            blocked.append(conjunct)
    if not pushable:
        return plan
    ctx.stats["planner.pushdown_aggregation"] += 1
    pushed: Operator = Aggregation(
        _push_selections(Selection(child.child, _combine(tuple(pushable))), ctx),
        child.group_by,
        child.aggregates,
    )
    if blocked:
        return Selection(pushed, _combine(tuple(blocked)))
    return pushed


def _push_into_join(
    child: Join,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """Single-side conjuncts move into the inputs; the rest folds into the
    join predicate, where the executor's join-strategy selection (hash keys,
    interval-overlap pattern) can exploit them."""
    left_attributes, right_attributes = (
        None if schema is None else set(schema)
        for schema in (ctx.schema(child.left), ctx.schema(child.right))
    )
    left_conjuncts: List[Expression] = []
    right_conjuncts: List[Expression] = []
    folded: List[Expression] = []
    for conjunct in conjuncts:
        used = set(conjunct.attributes())
        if left_attributes is not None and used <= left_attributes:
            left_conjuncts.append(conjunct)
        elif right_attributes is not None and used <= right_attributes:
            right_conjuncts.append(conjunct)
        else:
            folded.append(conjunct)
    if left_conjuncts or right_conjuncts:
        ctx.stats["planner.pushdown_join"] += 1
    new_left = (
        Selection(child.left, _combine(tuple(left_conjuncts)))
        if left_conjuncts
        else child.left
    )
    new_right = (
        Selection(child.right, _combine(tuple(right_conjuncts)))
        if right_conjuncts
        else child.right
    )
    predicate_parts: Tuple[Expression, ...] = (
        split_conjuncts(child.predicate) if child.predicate is not None else ()
    )
    if folded:
        ctx.stats["planner.join_predicate_fold"] += 1
    all_parts = predicate_parts + tuple(folded)
    return Join(
        _push_selections(new_left, ctx),
        _push_selections(new_right, ctx),
        _combine(all_parts) if all_parts else None,
    )


def _push_through_extension(
    plan: Selection,
    child: Operator,
    conjuncts: Tuple[Expression, ...],
    ctx: _Context,
) -> Operator:
    """Push through operators outside the core algebra via their planner hook."""
    grandchildren = child.children()
    if not grandchildren:
        return plan
    per_target: Dict[Tuple[int, ...], List[Expression]] = {}
    blocked: List[Expression] = []
    for conjunct in conjuncts:
        targets = child.planner_selection_pushdown(frozenset(conjunct.attributes()))
        if targets and all(0 <= t < len(grandchildren) for t in targets):
            per_target.setdefault(tuple(targets), []).append(conjunct)
        else:
            blocked.append(conjunct)
    if not per_target:
        return plan
    ctx.stats[f"planner.pushdown_{type(child).__name__.lower()}"] += 1
    new_children = list(grandchildren)
    for targets, grouped in per_target.items():
        predicate = _combine(tuple(grouped))
        for index in targets:
            new_children[index] = Selection(new_children[index], predicate)
    pushed = child.with_children(
        *(_push_selections(c, ctx) for c in new_children)
    )
    if blocked:
        return Selection(pushed, _combine(tuple(blocked)))
    return pushed


# -- projection simplification --------------------------------------------------------------


@_pass
def _simplify_projections(plan: Operator, ctx: _Context) -> Operator:
    if not isinstance(plan, Projection):
        return plan
    child = plan.child

    if isinstance(child, Projection):
        inner_map = {name: expr for expr, name in child.columns}
        if all(
            isinstance(expr, Attribute) and expr.name in inner_map
            for expr, _name in plan.columns
        ):
            ctx.stats["planner.projection_collapse"] += 1
            collapsed = tuple(
                (inner_map[expr.name], name) for expr, name in plan.columns
            )
            return _simplify_projections(
                Projection(child.child, collapsed), ctx
            )
        return plan

    # Identity projections (the rewriter's layout-normalising projections
    # frequently are) disappear entirely once the child schema is known.
    child_schema = ctx.schema(child)
    if (
        child_schema is not None
        and plan.output_names == child_schema
        and all(
            isinstance(expr, Attribute) and expr.name == name
            for expr, name in plan.columns
        )
    ):
        ctx.stats["planner.projection_identity"] += 1
        return child

    # Extension operators (coalesce, split, ...) can let a projection sink
    # through them; they own the validity conditions.
    child_schemas = tuple(ctx.schema(c) for c in child.children())
    replacement = child.planner_projection_pushdown(plan.columns, child_schemas)
    if replacement is not None:
        ctx.stats[f"planner.projection_through_{type(child).__name__.lower()}"] += 1
        return replacement
    return plan


# -- interning -------------------------------------------------------------------------------


def _intern(plan: Operator) -> Operator:
    """``plan`` with every set of equal sub-plans made one object.

    Bottom up, a leaf is looked up as itself, and an inner node among the
    nodes of its type over the same (already interned) children, by
    ``id()``; only within that group are its own fields compared.  So the
    pass is a dict lookup per node and never hashes an expression: a hash
    is memoised on the expression, and every cached plan would carry one
    per node.  Only dataclass operators, whose equality is their fields,
    are merged; any other node keeps its identity.
    """
    leaves: Dict[Operator, Operator] = {}
    groups: Dict[Tuple[Any, ...], List[Operator]] = {}

    def merge(node: Operator, _ctx: _Context) -> Operator:
        children = node.children()
        if is_dataclass(node) and not children:
            return leaves.setdefault(node, node)
        if is_dataclass(node):
            group = groups.setdefault((type(node), *map(id, children)), [])
            for equal in group:
                if equal == node:
                    return equal
            group.append(node)
        return node

    return _pass(merge)(plan, _Context(None))


# -- helpers ---------------------------------------------------------------------------------


def _combine(conjuncts: Tuple[Expression, ...]) -> Expression:
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanOp("and", tuple(conjuncts))


def _positional_rewrite(
    conjunct: Expression,
    left_schema: Tuple[str, ...],
    right_schema: Tuple[str, ...],
) -> Optional[Expression]:
    """Rebind a conjunct over the left schema to the right schema by position.

    Returns ``None`` when a referenced attribute is not part of the left
    schema (the conjunct then cannot be pushed into the right side).
    """
    mapping: Dict[str, Expression] = {}
    for name in conjunct.attributes():
        if name in mapping:
            continue
        try:
            position = left_schema.index(name)
        except ValueError:
            return None
        mapping[name] = Attribute(right_schema[position])
    return substitute(conjunct, mapping)
