"""The stats-driven parallel-engage threshold, end to end (satellite of PR 10).

The batch executor's worker pool historically engaged at a hard-coded 4096
combined join-input rows.  The pipeline now asks
:func:`repro.planner.cost.parallel_engage_threshold`: without ANALYZE
statistics that returns exactly the historical constant (pinned here), with
dense-overlap statistics it drops low enough that the same mid-sized join
fans out across the pool (also pinned here, via the executor's own
counters).  The decision is executor-level: it applies in every planner
mode, not just ``"cost"``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.algebra.expressions import Comparison, attr
from repro.algebra.operators import Join, RelationAccess
from repro.api import connect

ROWS = 2000
KEYS = 400


def _session():
    session = connect(domain=(0, 128), parallel_workers=2)
    # Every interval spans the whole domain: overlap density 1.0, the
    # densest (and most parallel-worthy) shape there is.
    session.load(
        "fact", ["fk"], [("k%d" % (i % KEYS), 0, 100) for i in range(ROWS)]
    )
    session.load("dim", ["dk"], [("k%d" % k, 0, 100) for k in range(KEYS)])
    return session


def _join():
    return Join(
        RelationAccess("fact"),
        RelationAccess("dim"),
        Comparison("=", attr("fk"), attr("dk")),
    )


def test_without_statistics_the_pool_stays_at_the_4096_default():
    session = _session()
    statistics: Dict[str, int] = {}
    session.execute(_join(), statistics)
    # 2000 + 400 combined input rows < 4096: the historical constant keeps
    # the join serial even though two workers were configured.
    assert statistics.get("executor.batch") == 1
    assert "join_strategy.interval_parallel" not in statistics
    assert "batch.parallel_partitions" not in statistics


def test_dense_statistics_engage_the_pool_below_the_default():
    session = _session()
    baseline = session.execute(_join())
    session.analyze()
    statistics: Dict[str, int] = {}
    result = session.execute(_join(), statistics)
    # Density 1.0 over 2000 rows estimates ~500 rows of input as enough
    # work to pay for the pool: the same query now runs partitioned.
    assert statistics.get("join_strategy.interval_parallel") == 1
    assert statistics.get("batch.parallel_partitions", 0) >= 2
    # Parallelism never changes the answer.
    assert Counter(result.rows) == Counter(baseline.rows)
