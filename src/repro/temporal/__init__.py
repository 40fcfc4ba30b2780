"""Temporal core: time domains, intervals, temporal K-elements and the period
semiring construction ``K^T``.

K-coalescing (``CK``) and annotation changepoints (``CP``) of Section 5.2
are methods of :class:`TemporalElement`: ``element.coalesce()`` and
``element.changepoints()``.
"""

from .elements import TemporalElement
from .intervals import Interval, elementary_intervals, merge_adjacent
from .period_semiring import PeriodSemiring, timeslice_homomorphism
from .timedomain import DAY_HOURS, TimeDomain

__all__ = [
    "TimeDomain",
    "DAY_HOURS",
    "Interval",
    "elementary_intervals",
    "merge_adjacent",
    "TemporalElement",
    "PeriodSemiring",
    "timeslice_homomorphism",
]
