"""The finite, totally ordered time domain T.

The paper assumes a finite, totally ordered domain of time points
(Section 4.2): ``Tmin`` is the smallest point and ``Tmax`` the exclusive
upper bound.  Time points are modelled as integers, which matches the
paper's running example (hours 00..23 of a single day) and is what SQL
period relations store after mapping dates/timestamps to a discrete
granularity.

:class:`TimeDomain` is a small value object carrying the bounds; it is
threaded through temporal elements, period semirings and relations so that
the "universe interval" ``[Tmin, Tmax)`` needed by coalescing, aggregation
gaps and the multiplicative identity of ``K^T`` is always available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["TimeDomain"]


@dataclass(frozen=True, slots=True)
class TimeDomain:
    """A finite integer time domain ``{min_point, ..., max_point - 1}``.

    ``max_point`` is exclusive, mirroring the half-open intervals used
    everywhere else in the library.
    """

    min_point: int
    max_point: int

    def __post_init__(self) -> None:
        if self.min_point >= self.max_point:
            raise ValueError(
                f"empty time domain: [{self.min_point}, {self.max_point})"
            )

    # -- basic queries ---------------------------------------------------------

    def __contains__(self, point: int) -> bool:
        return self.min_point <= point < self.max_point

    def __len__(self) -> int:
        return self.max_point - self.min_point

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.min_point, self.max_point))

    def points(self) -> Iterator[int]:
        """Iterate over every time point in ascending order."""
        return iter(self)

    def successor(self, point: int) -> int:
        """``T + 1`` in the paper's notation."""
        return point + 1

    def predecessor(self, point: int) -> int:
        """``T - 1`` in the paper's notation."""
        return point - 1

    def validate_point(self, point: int) -> int:
        """Return ``point`` if it lies in the domain, raise otherwise."""
        if point not in self:
            raise ValueError(
                f"time point {point} outside domain [{self.min_point}, {self.max_point})"
            )
        return point

    def clamp(self, begin: int, end: int) -> tuple[int, int]:
        """Clamp an arbitrary half-open range to the domain bounds."""
        return max(begin, self.min_point), min(end, self.max_point)

    def universe(self) -> tuple[int, int]:
        """The pair ``(Tmin, Tmax)`` covering the whole domain."""
        return self.min_point, self.max_point

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TimeDomain([{self.min_point}, {self.max_point}))"


#: Convenience domain used by the paper's running example (hours of a day).
DAY_HOURS = TimeDomain(0, 24)
