"""Period K-relations: the paper's logical model (Sections 6 and 7).

A period K-relation is a K-relation whose annotations come from the period
semiring ``K^T``: every tuple carries a *coalesced temporal K-element*.
Queries are evaluated with ordinary K-relation semantics, just over ``K^T``
annotations, so :class:`PeriodKRelation` inherits selection, projection,
renaming, join, union and difference from
:class:`~repro.abstract_model.krelation.KRelation` (join multiplies temporal
elements, projection/union add them, difference applies the monus) and
:func:`repro.abstract_model.evaluate` interprets plans over it.  Because
``K^T`` arithmetic returns coalesced elements, every annotation stays in the
unique normal form.

What this class adds is what Sections 6-7 add on top of K-relations:

* the two directions of ``ENC_K`` (Definition 6.3): :meth:`encode` builds
  the unique period K-relation representing a snapshot K-relation,
  :meth:`to_snapshot` expands back; :meth:`from_periods` reads
  interval-stamped facts;
* the timeslice homomorphism :meth:`timeslice` and
  :meth:`snapshot_equivalent`;
* the two operators whose ``K^T`` form is not the K-relation one: duplicate
  elimination is point-wise (:meth:`distinct`), and aggregation uses the
  changepoint definition of Section 7.2 (:meth:`aggregate`, evaluated
  interval-wise rather than per time point).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ..abstract_model.krelation import KRelation, Row, aggregate_rows
from ..abstract_model.snapshot import SnapshotKRelation
from ..semirings.base import Semiring, SemiringError
from ..semirings.standard import BOOLEAN, NATURAL
from ..temporal.elements import TemporalElement
from ..temporal.intervals import Interval
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain

__all__ = ["PeriodKRelation"]


class PeriodKRelation(KRelation):
    """A K-relation over ``K^T``: tuples annotated with coalesced temporal K-elements."""

    __slots__ = ()

    semiring: PeriodSemiring

    @property
    def base_semiring(self) -> Semiring:
        return self.semiring.base

    @property
    def domain(self) -> TimeDomain:
        return self.semiring.domain

    # -- construction -----------------------------------------------------------------------

    @classmethod
    def from_periods(
        cls,
        period_semiring: PeriodSemiring,
        schema: Iterable[str],
        facts: Iterable[Tuple[Row, Any, Any, Any]],
    ) -> "PeriodKRelation":
        """Build from interval-stamped facts ``(row, begin, end, annotation)``.

        Facts for the same row accumulate (their temporal elements are
        added), so a SQL period relation with duplicate rows maps to the
        expected multiplicities per snapshot.  A fact with a NULL end point
        holds at no point (SQL comparison semantics) and is skipped.
        """
        relation = cls(period_semiring, schema)
        base = period_semiring.base
        domain = period_semiring.domain
        for row, begin, end, annotation in facts:
            if begin is None or end is None:
                continue
            begin, end = domain.clamp(begin, end)
            if begin >= end or base.is_zero(annotation):
                continue
            element = TemporalElement.singleton(
                base, domain, Interval(begin, end), annotation
            )
            relation.add(row, element)
        return relation

    @classmethod
    def encode(
        cls, period_semiring: PeriodSemiring, snapshot_relation: SnapshotKRelation
    ) -> "PeriodKRelation":
        """``ENC_K``: the unique period K-relation encoding a snapshot K-relation.

        One pass over the populated snapshots collects each row's
        point -> annotation history; each history becomes one coalesced
        temporal element.
        """
        if snapshot_relation.semiring != period_semiring.base:
            raise SemiringError("snapshot relation semiring does not match K^T base")
        if snapshot_relation.domain != period_semiring.domain:
            raise SemiringError("snapshot relation time domain does not match K^T")
        histories: Dict[Row, Dict[int, Any]] = {}
        for point, snapshot in snapshot_relation.populated():
            for row, annotation in snapshot:
                histories.setdefault(row, {})[point] = annotation
        base = period_semiring.base
        domain = period_semiring.domain
        return cls(
            period_semiring,
            snapshot_relation.schema,
            {
                row: TemporalElement.from_points(base, domain, history)
                for row, history in histories.items()
            },
        )

    # -- model conversions ------------------------------------------------------------------------

    def timeslice(self, point: int) -> KRelation:
        """``tau_T``: the K-relation valid at ``point`` (Definition 6.2)."""
        return KRelation(
            self.base_semiring,
            self.schema,
            ((row, element.at(point)) for row, element in self._data.items()),
        )

    def to_snapshot(self) -> SnapshotKRelation:
        """Expand to the snapshot K-relation this period K-relation encodes."""
        relation = SnapshotKRelation(self.base_semiring, self.domain, self.schema)
        for point in self.domain.points():
            relation.set_snapshot(point, self.timeslice(point))
        return relation

    def snapshot_equivalent(self, other: "PeriodKRelation") -> bool:
        """True iff both relations encode the same snapshot K-relation."""
        if self.schema != other.schema:
            return False
        rows = set(self._data) | set(other._data)
        return all(
            self.annotation(row).snapshot_equivalent(other.annotation(row))
            for row in rows
        )

    # -- the operators whose K^T form differs from the K-relation one -----------------------------

    def distinct(self) -> "PeriodKRelation":
        """Duplicate elimination: every non-zero snapshot annotation becomes 1_K."""
        one = self.base_semiring.one
        result = self.empty_like()
        for row, element in self._data.items():
            result.add(row, element.map_values(lambda _value: one))
        return result

    def aggregate(self, group_by: Iterable[str], aggregates) -> "PeriodKRelation":
        """Snapshot-reducible grouping aggregation (Section 7.2).

        Result tuples are annotated with temporal elements built from the
        intervals between *annotation changepoints* of the relevant input
        tuples: within such an interval the snapshot (restricted to the
        group) is constant, so the aggregation result is too.  Aggregation
        without group-by additionally covers the gaps ``[Tmin, Tmax)`` where
        the input is empty, producing e.g. ``count = 0`` rows (the AG-bug
        fix).
        """
        if self.base_semiring not in (NATURAL, BOOLEAN):
            raise SemiringError(
                "aggregation is defined for N and B only, "
                f"not {self.base_semiring.name}"
            )
        group_by = tuple(group_by)
        aggregates = tuple(aggregates)
        unknown = set(group_by) - set(self.schema)
        if unknown:
            raise ValueError(f"unknown group-by attributes {sorted(unknown)}")

        # Partition input tuples by group key.
        groups: Dict[Row, List[Tuple[Dict[str, Any], TemporalElement]]] = {}
        for row, element in self._data.items():
            row_dict = self.to_row_dict(row)
            key = tuple(row_dict[g] for g in group_by)
            groups.setdefault(key, []).append((row_dict, element))
        if not group_by and not groups:
            groups[()] = []

        result = self.empty_like(group_by + tuple(spec.alias for spec in aggregates))
        for key, members in groups.items():
            self._aggregate_group(key, members, group_by, aggregates, result)
        return result

    def _aggregate_group(
        self,
        key: Row,
        members: List[Tuple[Dict[str, Any], TemporalElement]],
        group_by: Tuple[str, ...],
        aggregates,
        result: "PeriodKRelation",
    ) -> None:
        domain = self.domain
        cover_gaps = not group_by
        # Segment boundaries: every changepoint of every member's annotation.
        boundaries = {domain.min_point, domain.max_point}
        for _row, element in members:
            for interval in element.coalesce().intervals():
                boundaries.add(interval.begin)
                boundaries.add(interval.end)
        ordered = sorted(boundaries)

        accumulated: Dict[Row, List[Tuple[Interval, Any]]] = {}
        for begin, end in zip(ordered, ordered[1:]):
            segment = Interval(begin, end)
            weighted_rows: List[Tuple[Dict[str, Any], int]] = []
            for row_dict, element in members:
                value = element.at(begin)
                if self.base_semiring.is_zero(value):
                    continue
                weight = int(value) if self.base_semiring == NATURAL else 1
                weighted_rows.append((row_dict, weight))
            if not weighted_rows and not cover_gaps:
                continue
            values = tuple(
                aggregate_rows(spec.func, spec.argument, weighted_rows)
                for spec in aggregates
            )
            out_row = key + values
            accumulated.setdefault(out_row, []).append(
                (segment, self.base_semiring.one)
            )
        for out_row, entries in accumulated.items():
            element = TemporalElement(self.base_semiring, domain, entries).coalesce()
            if not element.is_empty():
                result.add(out_row, element)
