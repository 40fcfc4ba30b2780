"""Half-open time intervals ``[begin, end)`` over the integer time domain.

Intervals are the building block of temporal K-elements (Section 5.1 of the
paper) and of the SQL period encoding, where every tuple carries an
``Abegin``/``Aend`` pair.  The operations here mirror the paper's notation:
``I+`` is :attr:`Interval.begin`, ``I-`` is :attr:`Interval.end`,
``adj(I1, I2)`` is :meth:`Interval.adjacent`, and intersection/union carry
the paper's partiality (the union of two disjoint, non-adjacent intervals is
undefined and represented as ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

__all__ = ["Interval", "elementary_intervals", "merge_adjacent"]


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A non-empty half-open interval ``[begin, end)`` of integer time points."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if self.begin >= self.end:
            raise ValueError(f"empty or inverted interval [{self.begin}, {self.end})")

    # -- point membership and size ---------------------------------------------

    def __contains__(self, point: int) -> bool:
        return self.begin <= point < self.end

    def __len__(self) -> int:
        return self.end - self.begin

    def points(self) -> Iterator[int]:
        """Iterate over the time points covered by the interval."""
        return iter(range(self.begin, self.end))

    # -- relationships ------------------------------------------------------------

    def overlaps(self, other: "Interval") -> bool:
        """True iff the two intervals share at least one time point."""
        return self.begin < other.end and other.begin < self.end

    def adjacent(self, other: "Interval") -> bool:
        """True iff the intervals meet end-to-end without overlapping."""
        return self.end == other.begin or other.end == self.begin

    # -- constructive operations ----------------------------------------------------

    def union(self, other: "Interval") -> Optional["Interval"]:
        """The covering interval if the two overlap or are adjacent, else None.

        Mirrors the paper's convention that the union of disjoint,
        non-adjacent intervals is undefined.
        """
        if not (self.overlaps(other) or self.adjacent(other)):
            return None
        return Interval(min(self.begin, other.begin), max(self.end, other.end))

    def shifted(self, offset: int) -> "Interval":
        """The interval translated by ``offset`` time points."""
        return Interval(self.begin + offset, self.end + offset)

    def __repr__(self) -> str:
        return f"[{self.begin}, {self.end})"


def elementary_intervals(endpoints: Iterable[int]) -> List[Interval]:
    """Build the ordered list of elementary intervals between consecutive endpoints.

    Given a set of endpoints ``{t1 < t2 < ... < tn}``, returns
    ``[[t1, t2), [t2, t3), ...]``.  This is the core of the sweep used by
    K-coalescing and the split operator: within each elementary interval no
    input interval starts or ends, so all derived annotations are constant.
    """
    ordered = sorted(set(endpoints))
    return [Interval(b, e) for b, e in zip(ordered, ordered[1:])]


def merge_adjacent(intervals: Sequence[Interval]) -> List[Interval]:
    """Merge overlapping or adjacent intervals into maximal intervals.

    The input does not need to be sorted.  Used when only coverage matters
    (e.g. set-semantics coalescing of identical annotations).
    """
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda i: (i.begin, i.end))
    merged = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.begin <= last.end:
            if interval.end > last.end:
                merged[-1] = Interval(last.begin, interval.end)
        else:
            merged.append(interval)
    return merged
