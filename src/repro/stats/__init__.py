"""repro.stats: per-table interval statistics for cardinality estimates.

What :func:`repro.planner.estimate_plan` reads -- on behalf of its two
readers, the ``CROSS JOIN`` order :mod:`repro.backends.sqlcompile` pins and
the ``estimated_rows`` ``explain()`` prints: one :class:`TableStatistics`
per catalog table summarising

* the row count,
* per-column distinct counts and NULL fractions,
* equi-width histograms over the period begin/end points,
* interval-length quantiles (min / p25 / median / p75 / max), and
* an **overlap density** -- the fraction of interval pairs that strictly
  overlap, estimated by one plane sweep over (sampled) endpoints.

Statistics are collected by :meth:`repro.engine.catalog.Database.analyze`
(surfaced as ``session.analyze()`` and the query server's ``analyze``
frame), stored in the catalog and dropped when DML touches their table.
They cross the wire as their dataclass fields (:mod:`repro.server.codec`),
so remote sessions see the same numbers the server estimates with.
"""

from .model import (
    ColumnStatistics,
    EndpointHistogram,
    TableStatistics,
    collect_table_statistics,
)

__all__ = [
    "ColumnStatistics",
    "EndpointHistogram",
    "TableStatistics",
    "collect_table_statistics",
]
