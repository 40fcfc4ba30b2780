"""The engine's partitioned interval join, serial and across a worker pool.

The in-memory engine pushes whole per-attribute columns through vectorised
kernels.  A snapshot join with an equality conjunct runs as a sort-merge
interval join partitioned by the key values; with ``parallel_workers >= 2``
the partitions fan out across a ``multiprocessing`` pool once the combined
join input crosses the engage threshold (4096 rows, or the stats-driven
estimate after ``session.analyze()``).

This script shows:

1. ``explain()`` reporting the join strategy and the ``batch.*`` partition
   counters of a serial run,
2. the same join across two worker processes (``parallel_workers=2`` as a
   DSN parameter; the ``connect()`` keyword does the same).

Run from the repository root::

    PYTHONPATH=src python examples/parallel_join_quickstart.py
"""

from __future__ import annotations

import random

from repro import connect

SALARIES = [
    # emp_no, salary, validity period (months); note the overlaps: Ann's
    # 52k rows coalesce into one longer period under snapshot semantics.
    ("Ann", 52000, 0, 10),
    ("Ann", 52000, 8, 16),
    ("Ann", 60000, 16, 24),
    ("Joe", 48000, 2, 12),
    ("Joe", 48000, 12, 20),
    ("Sam", 55000, 4, 18),
]


def explain_reports_the_partitions() -> None:
    """``explain()`` shows the join strategy and the partition counters."""
    print("== explain(): join strategy and partition counters ==")
    session = connect("memory://?domain=0:24")
    salaries = session.load("salaries", ["emp_no", "salary"], SALARIES)
    grants = session.load(
        "grants",
        ["g_emp_no", "amount"],
        [("Ann", 500, 6, 14), ("Joe", 250, 10, 22), ("Sam", 100, 0, 9)],
    )
    # An equality conjunct plus snapshot semantics: the engine partitions
    # the sort-merge interval join by the key values.
    joined = salaries.join(grants, on="emp_no = g_emp_no")
    text = joined.explain()
    print(text)
    assert "join_strategy.interval" in text
    assert "batch.partitions" in text
    print()


def parallel_partitioned_join() -> None:
    """Force the pool: >= 2 worker processes over the key partitions."""
    print("== parallel partitioned interval join (2 workers) ==")
    rng = random.Random(11)

    def intervals(count: int, prefix: str):
        rows = []
        for i in range(count):
            begin = rng.randrange(0, 2032)
            rows.append(
                (f"{prefix}{i}", rng.randrange(6), begin, begin + rng.randint(1, 16))
            )
        return rows

    # The pool engages once the combined join input crosses the engine's
    # size threshold (4096 rows) and the session asks for >= 2 workers;
    # below that the partitions run serially in-process.
    session = connect("memory://?domain=0:2048&parallel_workers=2")
    left = session.load("L", ["l_id", "l_key"], intervals(2400, "l"))
    right = session.load("R", ["r_id", "r_key"], intervals(2400, "r"))
    joined = left.join(right, on="l_key = r_key")
    text = joined.explain()
    print(text)
    assert "join_strategy.interval_parallel" in text
    assert "batch.parallel_workers" in text
    assert "batch.parallel_partitions" in text
    print()


if __name__ == "__main__":
    explain_reports_the_partitions()
    parallel_partitioned_join()
    print("done.")
