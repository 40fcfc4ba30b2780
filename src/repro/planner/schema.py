"""Static schema inference for logical plans.

``infer_schema`` derives the *ordered* output attribute tuple of a plan
without executing it; ``available_attributes`` is the set-valued view the
push-down rules consume.  Both return ``None`` when the schema cannot be
resolved statically -- a relation access with no catalog entry, or an
operator that does not implement the ``planner_schema`` hook.  Push-down
decisions are never made against a partially known schema: for the binary
set operators in particular, an unresolvable *right* subtree makes the whole
operator unresolvable, even though only the left child names the output.

The module deliberately imports nothing outside :mod:`repro.algebra`; the
catalog argument is duck-typed (``name in database`` /
``database.table(name).schema``) so the planner can sit below both the
engine and the SQL backends without import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

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

if TYPE_CHECKING:  # duck-typed at runtime to keep the planner import-light
    from ..engine.catalog import Database

__all__ = ["infer_schema", "available_attributes"]

#: ``id(node)`` -> ``(node, schema)``; holding the node keeps its ``id`` from
#: being reused while the memo lives.
_SchemaMemo = Dict[int, Tuple[Operator, Optional[Tuple[str, ...]]]]


def infer_schema(
    plan: Operator, database: "Optional[Database]" = None
) -> Optional[Tuple[str, ...]]:
    """The ordered output schema of a plan, or ``None`` if not statically known."""
    return _infer_schema(plan, database, {})


def _infer_schema(
    plan: Operator, database: "Optional[Database]", memo: _SchemaMemo
) -> Optional[Tuple[str, ...]]:
    """:func:`infer_schema` through ``memo``: a caller that asks about many
    nodes of one plan (the planner's rules, partition-key inference) derives
    each node's schema once."""
    done = memo.get(id(plan))
    if done is not None:
        return done[1]
    schema = _derive(plan, database, memo)
    memo[id(plan)] = (plan, schema)
    return schema


def _derive(
    plan: Operator, database: "Optional[Database]", memo: _SchemaMemo
) -> Optional[Tuple[str, ...]]:
    def infer(child: Operator) -> Optional[Tuple[str, ...]]:
        return _infer_schema(child, database, memo)

    if isinstance(plan, RelationAccess):
        if database is None or plan.name not in database:
            return None
        return tuple(database.table(plan.name).schema)
    if isinstance(plan, ConstantRelation):
        return tuple(plan.schema)
    if isinstance(plan, Projection):
        return plan.output_names
    if isinstance(plan, (Selection, Distinct)):
        return infer(plan.child)
    if isinstance(plan, Rename):
        child = infer(plan.child)
        if child is None:
            return None
        renames = dict(plan.renames)
        return tuple(renames.get(name, name) for name in child)
    if isinstance(plan, Join):
        left = infer(plan.left)
        right = infer(plan.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(plan, (Union, Difference)):
        # The left child names the output, but a decision based on it is only
        # sound when the right subtree is resolvable too (and compatible):
        # rows of the right child flow through positionally.
        left = infer(plan.left)
        right = infer(plan.right)
        if left is None or right is None or len(left) != len(right):
            return None
        return left
    if isinstance(plan, Aggregation):
        return plan.output_names
    # Extension operators (coalesce/split/temporal aggregation, custom
    # physical operators) answer through the planner hook.
    return plan.planner_schema(tuple(map(infer, plan.children())))


def available_attributes(
    plan: Operator, database: "Optional[Database]" = None
) -> Optional[Set[str]]:
    """The set of output attribute names of a plan, if statically known."""
    schema = infer_schema(plan, database)
    return None if schema is None else set(schema)
