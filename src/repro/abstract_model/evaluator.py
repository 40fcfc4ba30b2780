"""Evaluation of logical algebra plans over K-relations, for any semiring K.

This is the one recursive interpreter mapping the operator AST of
:mod:`repro.algebra.operators` to the K-relation operations of
:mod:`repro.abstract_model.krelation`.  It serves both models of the paper:

* the *abstract model*: over the plain K-relation of a single snapshot,
  which :func:`repro.abstract_model.snapshot.evaluate_snapshot_query`
  applies at every time point -- the ground truth against which the logical
  model and the SQL-period-relation implementation are verified;
* the *logical model*: over period K-relations
  (:class:`~repro.logical_model.PeriodKRelation`, K-relations over ``K^T``,
  e.g. a :class:`~repro.logical_model.PeriodDatabase`), whose operators
  return period K-relations again.
"""

from __future__ import annotations

from typing import Mapping

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
from ..semirings.base import Semiring
from .krelation import KRelation

__all__ = ["evaluate"]


def evaluate(
    plan: Operator,
    database: Mapping[str, KRelation],
    semiring: Semiring | None = None,
) -> KRelation:
    """Evaluate ``plan`` against a database of K-relations.

    ``semiring`` is only needed when the plan can be a pure
    :class:`ConstantRelation` tree over an empty database (otherwise it is
    taken from the first base relation).  A constant is built with the
    class of the database's relations, so over ``K^T`` each of its rows
    carries ``1_{K^T}``, the element valid at every time point.
    """
    if isinstance(plan, RelationAccess):
        try:
            relation = database[plan.name]
        except KeyError as exc:
            raise AlgebraError(f"unknown relation {plan.name!r}") from exc
        return relation

    if isinstance(plan, ConstantRelation):
        template = next(iter(database.values()), None)
        if semiring is None:
            if template is None:
                raise AlgebraError("cannot infer semiring from an empty database")
            semiring = template.semiring
        relation_class = KRelation if template is None else type(template)
        return relation_class.from_rows(semiring, plan.schema, plan.rows)

    if isinstance(plan, Selection):
        return evaluate(plan.child, database, semiring).select(plan.predicate)

    if isinstance(plan, Projection):
        return evaluate(plan.child, database, semiring).project(plan.columns)

    if isinstance(plan, Rename):
        return evaluate(plan.child, database, semiring).rename(dict(plan.renames))

    if isinstance(plan, Join):
        left = evaluate(plan.left, database, semiring)
        right = evaluate(plan.right, database, semiring)
        return left.join(right, plan.predicate)

    if isinstance(plan, Union):
        left = evaluate(plan.left, database, semiring)
        right = evaluate(plan.right, database, semiring)
        return left.union(right)

    if isinstance(plan, Difference):
        left = evaluate(plan.left, database, semiring)
        right = evaluate(plan.right, database, semiring)
        return left.difference(right)

    if isinstance(plan, Aggregation):
        child = evaluate(plan.child, database, semiring)
        return child.aggregate(plan.group_by, plan.aggregates)

    if isinstance(plan, Distinct):
        return evaluate(plan.child, database, semiring).distinct()

    raise AlgebraError(f"unsupported operator {type(plan).__name__}")
