"""Statistics model: what ``ANALYZE`` collects and the estimator consumes.

Everything here is deliberately small and deterministic: one pass over the
rows for counts/distincts, one sort for the histograms and quantiles, and
one plane sweep over (at most :data:`SWEEP_SAMPLE`) intervals for the
overlap density.  No randomness -- sampling uses a fixed stride so repeated
``analyze()`` calls over the same table produce identical statistics, and
with them identical estimates (:mod:`repro.planner.estimate`) and SQL.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..engine.table import Table

__all__ = [
    "ColumnStatistics",
    "EndpointHistogram",
    "TableStatistics",
    "collect_table_statistics",
    "HISTOGRAM_BUCKETS",
    "SWEEP_SAMPLE",
]

#: Equi-width bucket count for the period begin/end histograms.
HISTOGRAM_BUCKETS = 16

#: Cap on the number of intervals fed to the overlap-density sweep.
SWEEP_SAMPLE = 512


@dataclass(frozen=True)
class ColumnStatistics:
    """Distinct count and NULL fraction of one column."""

    distinct: int
    null_fraction: float

    def to_dict(self) -> Dict[str, Any]:
        return {"distinct": self.distinct, "null_fraction": self.null_fraction}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ColumnStatistics":
        return cls(
            distinct=int(payload["distinct"]),
            null_fraction=float(payload["null_fraction"]),
        )


@dataclass(frozen=True)
class EndpointHistogram:
    """Equi-width histogram over one period endpoint column.

    ``counts[i]`` holds the endpoints falling into
    ``[lo + i*width, lo + (i+1)*width)`` (the last bucket is closed).  The
    estimator reads it through :meth:`fraction_below`, which interpolates
    linearly inside a bucket -- the standard equi-width estimator.
    """

    lo: float
    hi: float
    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of endpoints strictly below ``value``."""
        total = self.total
        if total == 0:
            return 0.0
        if value <= self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / len(self.counts)
        if width <= 0:
            return 0.0
        position = (value - self.lo) / width
        bucket = min(int(position), len(self.counts) - 1)
        below = sum(self.counts[:bucket])
        within = self.counts[bucket] * (position - bucket)
        return min(1.0, (below + within) / total)

    def to_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi, "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EndpointHistogram":
        return cls(
            lo=float(payload["lo"]),
            hi=float(payload["hi"]),
            counts=tuple(int(count) for count in payload["counts"]),
        )


@dataclass(frozen=True)
class TableStatistics:
    """Everything ``ANALYZE`` knows about one catalog table.

    ``length_quantiles`` is the 5-point summary (min, p25, median, p75,
    max) of the interval lengths ``t_end - t_begin``; ``overlap_density``
    is the estimated probability that two rows drawn at random strictly
    overlap in time.  Both are ``None``-free but only meaningful when
    ``period`` is set and the table has at least one proper interval.
    """

    table: str
    row_count: int
    columns: Mapping[str, ColumnStatistics] = field(default_factory=dict)
    period: Optional[Tuple[str, str]] = None
    begin_histogram: Optional[EndpointHistogram] = None
    end_histogram: Optional[EndpointHistogram] = None
    length_quantiles: Tuple[float, ...] = ()
    overlap_density: float = 0.0

    # -- estimator accessors ----------------------------------------------

    def distinct(self, column: str) -> Optional[int]:
        stats = self.columns.get(column)
        return stats.distinct if stats is not None else None

    def null_fraction(self, column: str) -> float:
        stats = self.columns.get(column)
        return stats.null_fraction if stats is not None else 0.0

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "columns": {
                name: stats.to_dict() for name, stats in self.columns.items()
            },
            "period": list(self.period) if self.period else None,
            "begin_histogram": (
                self.begin_histogram.to_dict() if self.begin_histogram else None
            ),
            "end_histogram": (
                self.end_histogram.to_dict() if self.end_histogram else None
            ),
            "length_quantiles": list(self.length_quantiles),
            "overlap_density": self.overlap_density,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TableStatistics":
        period = payload.get("period")
        begin = payload.get("begin_histogram")
        end = payload.get("end_histogram")
        return cls(
            table=str(payload["table"]),
            row_count=int(payload["row_count"]),
            columns={
                name: ColumnStatistics.from_dict(column)
                for name, column in payload.get("columns", {}).items()
            },
            period=(period[0], period[1]) if period else None,
            begin_histogram=EndpointHistogram.from_dict(begin) if begin else None,
            end_histogram=EndpointHistogram.from_dict(end) if end else None,
            length_quantiles=tuple(
                float(q) for q in payload.get("length_quantiles", ())
            ),
            overlap_density=float(payload.get("overlap_density", 0.0)),
        )


# -- collection ------------------------------------------------------------------------------------


def _histogram(values: Sequence[float], buckets: int) -> Optional[EndpointHistogram]:
    if not values:
        return None
    lo, hi = float(min(values)), float(max(values))
    if hi <= lo:
        return EndpointHistogram(lo=lo, hi=hi, counts=(len(values),))
    counts = [0] * buckets
    width = (hi - lo) / buckets
    for value in values:
        bucket = min(int((value - lo) / width), buckets - 1)
        counts[bucket] += 1
    return EndpointHistogram(lo=lo, hi=hi, counts=tuple(counts))


def _quantiles(sorted_lengths: Sequence[float]) -> Tuple[float, ...]:
    if not sorted_lengths:
        return ()
    last = len(sorted_lengths) - 1
    return tuple(
        float(sorted_lengths[min(last, round(last * q))])
        for q in (0.0, 0.25, 0.5, 0.75, 1.0)
    )


def _overlap_density(
    intervals: Sequence[Tuple[float, float]], sample: int
) -> float:
    """Fraction of interval pairs that strictly overlap, via a plane sweep.

    Degenerate intervals (``end <= begin``) never overlap anything under
    the half-open semantics and are dropped first.  With more than
    ``sample`` intervals a fixed-stride subsample keeps the sweep (and its
    ``O(k log k)`` sort) bounded.
    """
    proper = [pair for pair in intervals if pair[1] > pair[0]]
    if len(proper) > sample:
        stride = len(proper) / sample
        proper = [proper[int(i * stride)] for i in range(sample)]
    k = len(proper)
    if k < 2:
        return 0.0
    proper.sort()
    active_ends: list = []
    pairs = 0
    for begin, end in proper:
        cut = bisect.bisect_right(active_ends, begin)
        del active_ends[:cut]
        pairs += len(active_ends)
        bisect.insort(active_ends, end)
    return min(1.0, pairs / (k * (k - 1) / 2))


def collect_table_statistics(
    table: Table,
    period: Optional[Tuple[str, str]] = None,
    buckets: int = HISTOGRAM_BUCKETS,
    sample: int = SWEEP_SAMPLE,
) -> TableStatistics:
    """One ``ANALYZE`` pass over ``table``."""
    rows = table.rows
    row_count = len(rows)
    columns: Dict[str, ColumnStatistics] = {}
    for index, name in enumerate(table.schema):
        values = [row[index] for row in rows]
        nulls = sum(1 for value in values if value is None)
        distinct = len({value for value in values if value is not None})
        columns[name] = ColumnStatistics(
            distinct=distinct,
            null_fraction=(nulls / row_count) if row_count else 0.0,
        )

    begin_histogram = end_histogram = None
    length_quantiles: Tuple[float, ...] = ()
    overlap_density = 0.0
    if period is not None and period[0] in table.schema and period[1] in table.schema:
        begin_index = table.schema.index(period[0])
        end_index = table.schema.index(period[1])
        intervals = [
            (float(row[begin_index]), float(row[end_index]))
            for row in rows
            if row[begin_index] is not None and row[end_index] is not None
        ]
        begin_histogram = _histogram([pair[0] for pair in intervals], buckets)
        end_histogram = _histogram([pair[1] for pair in intervals], buckets)
        length_quantiles = _quantiles(
            sorted(max(0.0, end - begin) for begin, end in intervals)
        )
        overlap_density = _overlap_density(intervals, sample)

    return TableStatistics(
        table=table.name,
        row_count=row_count,
        columns=columns,
        period=period,
        begin_histogram=begin_histogram,
        end_histogram=end_histogram,
        length_quantiles=length_quantiles,
        overlap_density=overlap_density,
    )
