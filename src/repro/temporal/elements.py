"""Temporal K-elements: interval-indexed annotation histories (paper Section 5).

A *temporal K-element* is a function from intervals to semiring values; it
records how the K-annotation of one tuple evolves over time.  The annotation
valid at a time point ``T`` is the semiring *sum* over all intervals
containing ``T`` (the paper's timeslice operator for temporal elements), so
overlapping intervals are meaningful and the representation of a history is
not unique -- which is exactly why the paper introduces the K-coalescing
normal form (Definition 5.3) implemented by :meth:`TemporalElement.coalesce`.

Design notes
------------
* Elements are immutable and hashable; the period semiring ``K^T`` uses them
  as annotation values and relies on structural equality of the normal form.
* The point-wise operations (+, *, monus) are evaluated interval-wise: both
  operands are first reduced to their annotation changepoints, the union of
  changepoints induces elementary segments on which both operands are
  constant, and the K-operation is applied per segment.  By distributivity
  this coincides with the paper's point-wise definitions followed by
  coalescing, but costs O(n log n) instead of O(|T|).
* All segment enumeration runs through one **event-sweep kernel**
  (:func:`_event_sweep`): the begin/end points of every interval are sorted
  once, a running multiset of the active annotations per operand is
  maintained across the sweep, and each elementary segment's annotation is
  the semiring sum of the active multiset.  Cost: one O(E log E) sort of
  the E interval endpoints plus, per endpoint, a re-fold of the multisets
  that changed there (semiring sums cannot be decremented generically) --
  O(E log E) total when interval overlap is bounded, degrading gracefully
  towards the naive O(n * m) only when many intervals cover a common range,
  instead of paying the per-segment full rescan always.  Coalesced normal
  forms are memoised per element, so repeated ``is_zero``/``coalesce``
  calls (the period semiring makes many) are free after the first.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..semirings.base import Semiring, SemiringError
from .intervals import Interval
from .timedomain import TimeDomain

__all__ = ["TemporalElement"]


Entries = Tuple[Tuple[Interval, Any], ...]


def _multiset_sum(active: Counter, semiring: Semiring) -> Any:
    """Semiring sum of a multiset of annotation values."""
    if not active:
        return semiring.zero
    return semiring.sum(
        value for value, count in active.items() for _ in range(count)
    )


def _event_sweep(
    operands: Sequence[Entries], semiring: Semiring, domain: TimeDomain
) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
    """Sweep the intervals of one or more entry lists in a single pass.

    Yields ``(begin, end, sums)`` for every elementary segment induced by
    the union of all interval endpoints, covering the whole time domain
    ``[Tmin, Tmax)`` (segments where nothing is active carry ``0_K``).
    ``sums[i]`` is the semiring sum of operand ``i``'s annotations active on
    the segment, maintained via a running multiset per operand -- intervals
    enter at their begin point and leave at their end point.  The total
    cost is one sort of the events plus a re-fold of the multisets that
    changed at each endpoint (worst case O(n) per endpoint when many
    intervals overlap; O(1)-ish for the mostly-disjoint entry lists the
    engine produces).
    """
    arity = len(operands)
    events: List[Tuple[int, int, int, Any]] = []
    for position, entries in enumerate(operands):
        for interval, value in entries:
            events.append((interval.begin, 1, position, value))
            events.append((interval.end, -1, position, value))
    # Sort by time point only; events at the same point are all applied
    # before the next segment is emitted, so their relative order is
    # irrelevant (and annotation values need not be orderable).
    events.sort(key=itemgetter(0))

    active: List[Counter] = [Counter() for _ in range(arity)]
    sums: List[Any] = [semiring.zero] * arity
    changed: List[bool] = [False] * arity
    previous = domain.min_point
    position = 0
    total = len(events)
    while position < total:
        point = events[position][0]
        if point > previous:
            yield previous, point, tuple(sums)
            previous = point
        while position < total and events[position][0] == point:
            _, delta, operand, value = events[position]
            counter = active[operand]
            remaining = counter[value] + delta
            if remaining:
                counter[value] = remaining
            else:
                del counter[value]
            changed[operand] = True
            position += 1
        for operand in range(arity):
            if changed[operand]:
                sums[operand] = _multiset_sum(active[operand], semiring)
                changed[operand] = False
    if previous < domain.max_point:
        yield previous, domain.max_point, tuple(sums)


class TemporalElement:
    """An immutable mapping from intervals to non-zero K-values.

    Parameters
    ----------
    semiring:
        The annotation semiring K.
    domain:
        The time domain T; intervals are clamped to it.
    mapping:
        Interval -> K value.  Intervals mapped to ``0_K`` are dropped.
    """

    __slots__ = ("semiring", "domain", "_entries", "_hash", "_coalesced")

    def __init__(
        self,
        semiring: Semiring,
        domain: TimeDomain,
        mapping: Mapping[Interval, Any] | Iterable[Tuple[Interval, Any]] = (),
    ) -> None:
        self.semiring = semiring
        self.domain = domain
        entries: Dict[Interval, Any] = {}
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        for interval, value in items:
            begin, end = domain.clamp(interval.begin, interval.end)
            if begin >= end:
                continue
            clamped = Interval(begin, end)
            if clamped in entries:
                value = semiring.plus(entries[clamped], value)
            if semiring.is_zero(value):
                entries.pop(clamped, None)
                continue
            entries[clamped] = value
        self._entries: Entries = tuple(
            sorted(entries.items(), key=lambda item: (item[0].begin, item[0].end))
        )
        self._hash: Optional[int] = None
        self._coalesced: Optional["TemporalElement"] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls, semiring: Semiring, domain: TimeDomain) -> "TemporalElement":
        """The temporal element mapping every interval to ``0_K``."""
        return cls(semiring, domain, ())

    @classmethod
    def universe(cls, semiring: Semiring, domain: TimeDomain) -> "TemporalElement":
        """The element mapping ``[Tmin, Tmax)`` to ``1_K`` (the ``1`` of K^T)."""
        return cls(semiring, domain, {Interval(*domain.universe()): semiring.one})

    @classmethod
    def singleton(
        cls,
        semiring: Semiring,
        domain: TimeDomain,
        interval: Interval,
        value: Any | None = None,
    ) -> "TemporalElement":
        """An element assigning ``value`` (default ``1_K``) to one interval."""
        if value is None:
            value = semiring.one
        return cls(semiring, domain, {interval: value})

    @classmethod
    def from_points(
        cls,
        semiring: Semiring,
        domain: TimeDomain,
        point_values: Mapping[int, Any],
    ) -> "TemporalElement":
        """Build a coalesced element from per-time-point annotations.

        This is the temporal-element half of the paper's ``ENC_K`` mapping
        (Definition 6.3): each point ``T`` with annotation ``k`` contributes
        the singleton interval ``[T, T+1) -> k``; the result is coalesced.
        """
        element = cls(
            semiring,
            domain,
            {
                Interval(point, domain.successor(point)): value
                for point, value in point_values.items()
                if not semiring.is_zero(value)
            },
        )
        return element.coalesce()

    # -- basic accessors -----------------------------------------------------------

    @property
    def mapping(self) -> Dict[Interval, Any]:
        """A copy of the interval -> value mapping (non-zero entries only)."""
        return dict(self._entries)

    def items(self) -> Iterator[Tuple[Interval, Any]]:
        return iter(self._entries)

    def intervals(self) -> List[Interval]:
        return [interval for interval, _ in self._entries]

    def is_empty(self) -> bool:
        """True iff the element annotates every time point with ``0_K``."""
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # -- the timeslice operator ------------------------------------------------------

    def at(self, point: int) -> Any:
        """The annotation valid at ``point``: sum over covering intervals.

        This is the paper's timeslice operator ``tau_T`` for temporal
        K-elements.  Entries are kept sorted by begin point, so the scan
        stops at the first interval starting after ``point``.
        """
        self.domain.validate_point(point)

        def covering() -> Iterator[Any]:
            for interval, value in self._entries:
                if interval.begin > point:
                    break
                if point < interval.end:
                    yield value

        return self.semiring.sum(covering())

    def snapshot_equivalent(self, other: "TemporalElement") -> bool:
        """True iff both elements encode the same annotation at every point."""
        self._check_compatible(other)
        for _begin, _end, (left, right) in _event_sweep(
            (self._entries, other._entries), self.semiring, self.domain
        ):
            if left != right:
                return False
        return True

    # -- changepoints and coalescing ------------------------------------------------

    def changepoints(self) -> List[int]:
        """Annotation changepoints per Definition 5.2 (always includes Tmin)."""
        points = [self.domain.min_point]
        previous = None
        for segment, value in self._segments():
            if previous is None:
                previous_value = self.semiring.zero
            else:
                previous_value = previous
            if segment.begin != self.domain.min_point and value != previous_value:
                points.append(segment.begin)
            previous = value
        return points

    def _segments(self) -> Iterator[Tuple[Interval, Any]]:
        """Yield (elementary interval, annotation) covering the whole domain.

        Consecutive segments may carry equal annotations; coalescing merges
        them.  Segments whose annotation is ``0_K`` are still yielded so the
        caller can see gaps (needed e.g. for aggregation over gaps).
        """
        for begin, end, (value,) in _event_sweep(
            (self._entries,), self.semiring, self.domain
        ):
            yield Interval(begin, end), value

    def _merged_segments(
        self, operands: Sequence[Entries], combine
    ) -> List[Tuple[Interval, Any]]:
        """Sweep ``operands``, combine per-segment sums, merge adjacent runs.

        The output is a coalesced entry list: maximal intervals of constant
        non-zero combined annotation.
        """
        merged: List[Tuple[Interval, Any]] = []
        is_zero = self.semiring.is_zero
        for begin, end, sums in _event_sweep(operands, self.semiring, self.domain):
            value = combine(sums)
            if is_zero(value):
                continue
            if merged:
                last_interval, last_value = merged[-1]
                if last_interval.end == begin and last_value == value:
                    merged[-1] = (Interval(last_interval.begin, end), value)
                    continue
            merged.append((Interval(begin, end), value))
        return merged

    def _coalesced_from_segments(
        self, segments: List[Tuple[Interval, Any]]
    ) -> "TemporalElement":
        """Build an element from already-coalesced segments, memoising it."""
        element = TemporalElement(self.semiring, self.domain, segments)
        element._coalesced = element
        return element

    def coalesce(self) -> "TemporalElement":
        """K-coalescing (Definition 5.3): the unique normal form.

        Produces maximal intervals of constant, non-zero annotation; the
        result has no overlapping intervals and no adjacent intervals with
        equal annotation.  One event sweep over the entries; the normal
        form is memoised per element.
        """
        if self._coalesced is None:
            self._coalesced = self._coalesced_from_segments(
                self._merged_segments((self._entries,), lambda sums: sums[0])
            )
        return self._coalesced

    def is_coalesced(self) -> bool:
        """True iff the element already is in K-coalesced normal form."""
        return self == self.coalesce()

    # -- point-wise semiring operations (evaluated interval-wise) ----------------------

    def plus(self, other: "TemporalElement") -> "TemporalElement":
        """Coalesced point-wise addition (the ``+`` of the period semiring)."""
        self._check_compatible(other)
        plus = self.semiring.plus
        return self._coalesced_from_segments(
            self._merged_segments(
                (self._entries, other._entries),
                lambda sums: plus(sums[0], sums[1]),
            )
        )

    def times(self, other: "TemporalElement") -> "TemporalElement":
        """Coalesced point-wise multiplication (the ``*`` of the period semiring)."""
        self._check_compatible(other)
        times = self.semiring.times
        return self._coalesced_from_segments(
            self._merged_segments(
                (self._entries, other._entries),
                lambda sums: times(sums[0], sums[1]),
            )
        )

    def monus(self, other: "TemporalElement") -> "TemporalElement":
        """Coalesced point-wise monus (the difference of the period semiring)."""
        self._check_compatible(other)
        if not self.semiring.has_monus:
            raise SemiringError(
                f"semiring {self.semiring.name} has no monus; "
                "difference queries are undefined for it"
            )
        monus = self.semiring.monus
        return self._coalesced_from_segments(
            self._merged_segments(
                (self._entries, other._entries),
                lambda sums: monus(sums[0], sums[1]),
            )
        )

    def natural_leq(self, other: "TemporalElement") -> bool:
        """Point-wise natural order, the natural order of ``K^T`` (Theorem 7.1)."""
        self._check_compatible(other)
        for _begin, _end, (left, right) in _event_sweep(
            (self._entries, other._entries), self.semiring, self.domain
        ):
            if not self.semiring.natural_leq(left, right):
                return False
        return True

    def scale(self, value: Any) -> "TemporalElement":
        """Multiply every annotation by a constant K-value."""
        if self.semiring.is_zero(value):
            return TemporalElement.empty(self.semiring, self.domain)
        return TemporalElement(
            self.semiring,
            self.domain,
            [(interval, self.semiring.times(v, value)) for interval, v in self._entries],
        ).coalesce()

    def map_values(self, mapping, target: Semiring | None = None) -> "TemporalElement":
        """Apply a function to every annotation (e.g. a semiring homomorphism)."""
        semiring = target or self.semiring
        return TemporalElement(
            semiring,
            self.domain,
            [(interval, mapping(v)) for interval, v in self._entries],
        ).coalesce()

    # -- support -----------------------------------------------------------------------

    def support(self) -> List[Interval]:
        """Maximal intervals during which the annotation is non-zero.

        Unlike :meth:`coalesce`, adjacent intervals with *different* non-zero
        annotations are merged here: only coverage matters.
        """
        merged: List[Interval] = []
        for interval in (i for i, _ in self.coalesce()._entries):
            if merged and merged[-1].end == interval.begin:
                merged[-1] = Interval(merged[-1].begin, interval.end)
            else:
                merged.append(interval)
        return merged

    def _check_compatible(self, other: "TemporalElement") -> None:
        if self.semiring != other.semiring:
            raise SemiringError(
                f"cannot combine temporal elements over {self.semiring.name} "
                f"and {other.semiring.name}"
            )
        if self.domain != other.domain:
            raise SemiringError(
                f"cannot combine temporal elements over different time domains "
                f"{self.domain} and {other.domain}"
            )

    # -- dunder plumbing ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalElement):
            return NotImplemented
        return (
            self.semiring == other.semiring
            and self.domain == other.domain
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.semiring, self.domain, self._entries))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{interval} -> {value!r}" for interval, value in self._entries)
        return f"{{{body}}}"
