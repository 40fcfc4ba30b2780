"""Snapshot K-relations and snapshot semantics (paper Sections 4.2-4.3).

A snapshot K-relation assigns a K-relation to every time point; a snapshot
K-database is a named collection of them.  Snapshot semantics evaluates a
non-temporal query at every snapshot independently (Definition 4.4), so
snapshot-reducibility -- ``tau_T(Q(D)) = Q(tau_T(D))`` -- holds trivially.

This model is verbose (it materialises one relation per time point) and is
therefore *not* the implementation; it is the specification.  The logical
model (period K-relations) and the SQL-period-relation middleware are tested
against the results produced here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from ..algebra.operators import Operator
from ..semirings.base import Semiring
from ..temporal.timedomain import TimeDomain
from .evaluator import evaluate
from .krelation import KRelation, Row

__all__ = [
    "SnapshotKRelation",
    "SnapshotDatabase",
    "evaluate_snapshot_query",
]


class SnapshotKRelation:
    """A function from time points to K-relations over a fixed schema."""

    def __init__(
        self,
        semiring: Semiring,
        domain: TimeDomain,
        schema: Iterable[str],
        snapshots: Mapping[int, KRelation] | None = None,
    ) -> None:
        self.semiring = semiring
        self.domain = domain
        self.schema: Tuple[str, ...] = tuple(schema)
        self._snapshots: Dict[int, KRelation] = {}
        for point, relation in (snapshots or {}).items():
            self.set_snapshot(point, relation)

    # -- construction ----------------------------------------------------------------------

    @classmethod
    def from_periods(
        cls,
        semiring: Semiring,
        domain: TimeDomain,
        schema: Iterable[str],
        facts: Iterable[Tuple[Row, Any, Any, Any]],
    ) -> "SnapshotKRelation":
        """Build from interval-stamped facts ``(row, begin, end, annotation)``.

        Each fact contributes its annotation to every snapshot in
        ``[begin, end)`` -- the natural reading of an SQL period relation.
        A fact with a NULL end point holds at no point and is skipped.
        """
        relation = cls(semiring, domain, schema)
        for row, begin, end, annotation in facts:
            if begin is None or end is None:
                continue
            begin, end = domain.clamp(begin, end)
            for point in range(begin, end):
                relation.snapshot(point).add(row, annotation)
        return relation

    # -- access ----------------------------------------------------------------------------------

    def snapshot(self, point: int) -> KRelation:
        """The timeslice ``tau_T``: the K-relation valid at ``point``.

        Snapshots are created lazily; a point never written to holds the
        empty relation.
        """
        self.domain.validate_point(point)
        if point not in self._snapshots:
            self._snapshots[point] = KRelation(self.semiring, self.schema)
        return self._snapshots[point]

    def set_snapshot(self, point: int, relation: KRelation) -> None:
        self.domain.validate_point(point)
        if relation.schema != self.schema:
            raise ValueError(
                f"snapshot schema {relation.schema} does not match {self.schema}"
            )
        self._snapshots[point] = relation

    def populated(self) -> Iterator[Tuple[int, KRelation]]:
        """``(point, snapshot)`` for every non-empty snapshot, in time order."""
        for point in sorted(self._snapshots):
            snapshot = self._snapshots[point]
            if len(snapshot):
                yield point, snapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotKRelation):
            return NotImplemented
        if (
            self.semiring != other.semiring
            or self.domain != other.domain
            or self.schema != other.schema
        ):
            return False
        return all(
            self.snapshot(point) == other.snapshot(point)
            for point in self.domain.points()
        )

    def __repr__(self) -> str:
        populated = sum(1 for r in self._snapshots.values() if len(r))
        return (
            f"SnapshotKRelation({self.semiring.name}, {list(self.schema)}, "
            f"{populated}/{len(self.domain)} populated snapshots)"
        )


class SnapshotDatabase:
    """A named collection of snapshot K-relations over one time domain."""

    def __init__(self, semiring: Semiring, domain: TimeDomain) -> None:
        self.semiring = semiring
        self.domain = domain
        self._relations: Dict[str, SnapshotKRelation] = {}

    def add_relation(self, name: str, relation: SnapshotKRelation) -> None:
        if relation.domain != self.domain:
            raise ValueError("relation time domain does not match the database's")
        if relation.semiring != self.semiring:
            raise ValueError("relation semiring does not match the database's")
        self._relations[name] = relation

    def relation(self, name: str) -> SnapshotKRelation:
        return self._relations[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def timeslice(self, point: int) -> Dict[str, KRelation]:
        """The non-temporal K-database valid at ``point``."""
        return {
            name: relation.snapshot(point)
            for name, relation in self._relations.items()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._relations


def evaluate_snapshot_query(
    query: Operator, database: SnapshotDatabase
) -> SnapshotKRelation:
    """Evaluate ``query`` under snapshot semantics (Definition 4.4).

    The query is evaluated independently over the timeslice at every point of
    the database's time domain; the results are collected into a snapshot
    K-relation.  This is the reference ("oracle") evaluation: correct by
    construction, and O(|T|) slower than the interval-based evaluators.
    """
    domain = database.domain
    semiring = database.semiring
    result_schema: Tuple[str, ...] | None = None
    snapshots: Dict[int, KRelation] = {}
    for point in domain.points():
        snapshot_result = evaluate(query, database.timeslice(point), semiring)
        snapshots[point] = snapshot_result
        if result_schema is None:
            result_schema = snapshot_result.schema
    assert result_schema is not None  # the time domain is never empty
    result = SnapshotKRelation(semiring, domain, result_schema)
    for point, relation in snapshots.items():
        result.set_snapshot(point, relation)
    return result

