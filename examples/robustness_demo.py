"""Fault-tolerant execution: policies, fault injection, graceful degradation.

Every query in the library runs under an optional
:class:`~repro.ExecutionPolicy`: a wall-clock deadline, a result-row budget,
retry-with-backoff for transient backend faults, and an opt-in fallback
backend for permanent ones.  This script walks the whole surface:

1. the structured error taxonomy (`ReproError` and friends) that every
   public entry point raises;
2. a deadline cancelling a runaway query with ``QueryTimeoutError``;
3. a row budget tripping ``ResourceLimitError`` before a huge result
   reaches the caller;
4. the seeded fault-injection harness (:class:`~repro.FaultSchedule` /
   :class:`~repro.FaultInjectingBackend`) with a retry policy recovering a
   fault-free answer from a flaky backend, counters and all;
5. graceful degradation to a fallback backend when SQLite stays down;
6. the uniform closed-session contract.

Run from the repository root::

    PYTHONPATH=src python examples/robustness_demo.py
"""

from collections import Counter

from repro import (
    BackendError,
    BackendUnavailableError,
    ExecutionPolicy,
    FaultInjectingBackend,
    FaultSchedule,
    QueryTimeoutError,
    ReproError,
    ResourceLimitError,
    connect,
)

WORKS_ROWS = [
    ("Ann", "SP", 3, 10),
    ("Joe", "NS", 8, 16),
    ("Sam", "SP", 8, 16),
    ("Ann", "SP", 18, 20),
]


def fresh_session(backend="memory", **kwargs):
    session = connect(domain=(0, 24), backend=backend, **kwargs)
    session.load("works", ["name", "skill"], WORKS_ROWS)
    return session


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One taxonomy for every failure: ``except ReproError`` is enough.
    # ------------------------------------------------------------------
    print("=== error taxonomy " + "=" * 40)
    session = fresh_session()
    for broken in (
        lambda: session.table("never_loaded"),
        lambda: session.table("works").where("skill ="),
    ):
        try:
            broken()
        except ReproError as error:
            print(f"caught {type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # 2. Deadlines: a policy's timeout cancels execution cooperatively on
    #    the in-memory engine and via interrupt() on SQLite.
    # ------------------------------------------------------------------
    print("\n=== deadlines " + "=" * 40)
    slow_session = connect(domain=(0, 100))
    n = 1200  # ~n^2 candidate pairs; far slower than the 20ms budget
    left = slow_session.load("l", ["a"], [(i, 0, 50) for i in range(n)])
    right = slow_session.load("r", ["b"], [(i, 0, 50) for i in range(n)])
    runaway = left.join(right, on="a + b < -1").with_policy(
        ExecutionPolicy(timeout_seconds=0.02)
    )
    try:
        runaway.rows()
        raise AssertionError("the deadline should have fired")
    except QueryTimeoutError as error:
        print(f"caught {type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # 3. Row budgets: bound the result size, not just the wall clock.
    # ------------------------------------------------------------------
    print("\n=== row budgets " + "=" * 40)
    capped = session.table("works").with_policy(ExecutionPolicy(max_result_rows=1))
    try:
        capped.rows()
        raise AssertionError("the row budget should have tripped")
    except ResourceLimitError as error:
        print(f"caught {type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # 4. Seeded fault injection + retry-with-backoff: two injected
    #    transients (think "database is locked"), then recovery.  The
    #    recovered result is identical to a fault-free run.
    # ------------------------------------------------------------------
    print("\n=== retries over injected transients " + "=" * 40)
    expected = Counter(fresh_session().table("works").rows())
    schedule = FaultSchedule(["transient", "transient", "ok"])
    flaky = fresh_session(
        backend=FaultInjectingBackend("memory", schedule),
        policy=ExecutionPolicy(retries=3, backoff_base_seconds=0.001, seed=42),
    )
    statistics = {}
    recovered = Counter(flaky.table("works").rows(statistics))
    assert recovered == expected, "recovery must be bag-equal to fault-free"
    print(f"injected faults     : {dict(schedule.injected)}")
    print(f"execution statistics: "
          f"{ {k: v for k, v in statistics.items() if k.startswith('execution.')} }")
    print(f"session counters    : {flaky.execution_info()}")
    assert statistics["execution.retries"] == 2
    assert flaky.execution_info().retries == 2

    # ------------------------------------------------------------------
    # 5. Graceful degradation: SQLite permanently down, so the policy's
    #    fallback re-runs the rewritten plan on the in-memory engine.
    # ------------------------------------------------------------------
    print("\n=== fallback backend " + "=" * 40)
    outage = fresh_session(
        backend=FaultInjectingBackend("sqlite", FaultSchedule(["hard"])),
        policy=ExecutionPolicy(fallback_backend="memory"),
    )
    statistics = {}
    degraded = Counter(outage.table("works").rows(statistics))
    assert degraded == expected
    print(f"result recovered on fallback; fallbacks={statistics['execution.fallbacks']}")

    # ------------------------------------------------------------------
    # 6. Closed sessions fail fast and uniformly.
    # ------------------------------------------------------------------
    print("\n=== closed sessions " + "=" * 40)
    with fresh_session() as scoped:
        works = scoped.table("works")
        print(f"open session rows: {len(works.rows())}")
    try:
        works.rows()
        raise AssertionError("a closed session must not execute")
    except BackendUnavailableError as error:
        print(f"caught {type(error).__name__}: {error}")
        assert isinstance(error, BackendError)  # one except covers both

    print("\nAll robustness behaviours verified.")


if __name__ == "__main__":
    main()
