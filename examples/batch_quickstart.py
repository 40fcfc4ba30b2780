"""The columnar batch executor: same answers, column kernels, worker pools.

The physical layer has two interchangeable engines.  The row executor
streams Python tuples through per-row closures; the columnar batch executor
(``executor="batch"``) pushes whole per-attribute columns through
vectorised kernels and can fan the partitioned interval join out across a
``multiprocessing`` pool.  Both are bag-equal on every plan -- the batch
differential suite and the conformance sweep pin that -- so switching is a
pure performance decision.

This script shows:

1. selecting the executor per session (DSN parameter or keyword),
2. that row and batch sessions return identical results,
3. ``explain()`` reporting which executor ran and its partition counters,
4. the parallel partitioned interval join across two worker processes.

Run from the repository root::

    PYTHONPATH=src python examples/batch_quickstart.py
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


def identical_results() -> None:
    """One dataset, both executors: the answers must match exactly."""
    print("== row vs. batch: identical answers ==")
    tables = {}
    for executor in ("row", "batch"):
        # The executor is a session-level switch; ``memory://?executor=batch``
        # in the DSN does the same thing as the keyword used below.
        session = connect(domain=(0, 24), executor=executor)
        salaries = session.load(
            "salaries", ["emp_no", "salary"], SALARIES
        )
        query = salaries.group_by("emp_no").agg(total="count(*)")
        tables[executor] = query.table()
    row_rows = sorted(tables["row"].rows, key=repr)
    batch_rows = sorted(tables["batch"].rows, key=repr)
    assert row_rows == batch_rows, (row_rows, batch_rows)
    print(tables["batch"].pretty())
    print("row == batch:", row_rows == batch_rows)
    print()


def explain_reports_the_executor() -> None:
    """``explain()`` names the executor that ran and its batch counters."""
    print("== explain(): executor and partition counters ==")
    session = connect("memory://?domain=0:24&executor=batch")
    salaries = session.load("salaries", ["emp_no", "salary"], SALARIES)
    grants = session.load(
        "grants",
        ["g_emp_no", "amount"],
        [("Ann", 500, 6, 14), ("Joe", 250, 10, 22), ("Sam", 100, 0, 9)],
    )
    # An equality conjunct plus snapshot semantics: the batch executor
    # partitions the sort-merge interval join by the key values.
    joined = salaries.join(grants, on="emp_no = g_emp_no")
    text = joined.explain()
    print(text)
    assert "executor: batch" in text
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

    # The pool engages once the combined join input crosses the batch
    # executor's size threshold (4096 rows) and the session asks for >= 2
    # workers; below that the partitions run serially in-process.
    session = connect("memory://?domain=0:2048&executor=batch&parallel_workers=2")
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
    identical_results()
    explain_reports_the_executor()
    parallel_partitioned_join()
    print("done.")
