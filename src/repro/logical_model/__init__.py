"""Logical model: K-relations over the period semiring ``K^T``.

Plans are evaluated over a :class:`PeriodDatabase` by the same interpreter
as the abstract model, :func:`repro.abstract_model.evaluate`.
"""

from .database import PeriodDatabase
from .period_relation import PeriodKRelation

__all__ = ["PeriodKRelation", "PeriodDatabase"]
