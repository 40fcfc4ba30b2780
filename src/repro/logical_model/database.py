"""Period K-databases: named period K-relations over one period semiring.

A :class:`PeriodDatabase` is a read-only ``Mapping`` from relation names to
:class:`~repro.logical_model.period_relation.PeriodKRelation`, so plans are
evaluated over it by the one K-relation interpreter,
:func:`repro.abstract_model.evaluate`: over ``K^T`` annotations the result
is an interval-encoded (and uniquely coalesced) temporal relation, which by
Theorems 6.6 / 7.3 of the paper is snapshot-equivalent to evaluating the
same plan under snapshot semantics on the abstract model.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, Tuple

from ..abstract_model.snapshot import SnapshotDatabase
from ..algebra.operators import AlgebraError
from ..semirings.base import Semiring
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain
from .period_relation import PeriodKRelation

__all__ = ["PeriodDatabase"]


class PeriodDatabase(Mapping[str, PeriodKRelation]):
    """A named collection of period K-relations over one period semiring."""

    def __init__(self, base_semiring: Semiring, domain: TimeDomain) -> None:
        self.period_semiring = PeriodSemiring(base_semiring, domain)
        self._relations: Dict[str, PeriodKRelation] = {}

    @property
    def base_semiring(self) -> Semiring:
        return self.period_semiring.base

    @property
    def domain(self) -> TimeDomain:
        return self.period_semiring.domain

    # -- population ---------------------------------------------------------------------------

    def add_relation(self, name: str, relation: PeriodKRelation) -> None:
        if relation.semiring != self.period_semiring:
            raise ValueError("relation period semiring does not match the database's")
        self._relations[name] = relation

    def create_relation(
        self, name: str, schema: Iterable[str], facts
    ) -> PeriodKRelation:
        """Create and register a relation from ``(row, begin, end, annotation)`` facts."""
        relation = PeriodKRelation.from_periods(self.period_semiring, schema, facts)
        self.add_relation(name, relation)
        return relation

    # -- access ---------------------------------------------------------------------------------

    def relation(self, name: str) -> PeriodKRelation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise AlgebraError(f"unknown relation {name!r}") from exc

    def names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def __getitem__(self, name: str) -> PeriodKRelation:
        return self._relations[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    # -- conversions ------------------------------------------------------------------------------

    def to_snapshot_database(self) -> SnapshotDatabase:
        """Expand every relation to its snapshots (for oracle comparisons)."""
        database = SnapshotDatabase(self.base_semiring, self.domain)
        for name, relation in self._relations.items():
            database.add_relation(name, relation.to_snapshot())
        return database
