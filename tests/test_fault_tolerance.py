"""End-to-end fault tolerance: deadlines, budgets, retries, failover.

Exercises the policy enforcement of the query pipeline on both built-in
backends, plus the seeded fault-injection harness at tier-1 scale (the
full conformance sweep lives in ``tests/conformance/test_fault_injection.py``
behind the ``faults`` marker).
"""

import sqlite3
import threading
import time

import pytest

import repro
from repro import ExecutionPolicy, FaultInjectingBackend, FaultSchedule, connect
from repro.backends import SQLiteBackend
from repro.errors import (
    BackendError,
    QueryTimeoutError,
    ResourceLimitError,
)

ROWS = [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16), ("Sam", "SP", 8, 16)]


def _session(backend="memory", **kwargs):
    session = connect(domain=(0, 24), backend=backend, **kwargs)
    session.load("works", ["name", "skill"], ROWS)
    return session


def _slow_relation(backend, n):
    """An all-overlapping self join with a residual no row satisfies.

    The planner cannot prune ``a + b < -1`` statically, so every backend
    grinds through ~n^2 candidate pairs -- reliably slower than the small
    deadlines used below, on both the memory engine and SQLite.
    """
    session = connect(domain=(0, 100), backend=backend)
    left = session.load("l", ["a"], [(i, 0, 50) for i in range(n)])
    right = session.load("r", ["b"], [(i, 0, 50) for i in range(n)])
    return left.join(right, on="a + b < -1")


class TestDeadlines:
    @pytest.mark.parametrize(
        "backend,n", [("memory", 1500), ("sqlite", 3000)]
    )
    def test_deadline_cancels_within_twice_the_budget(self, backend, n):
        deadline = 0.15
        query = _slow_relation(backend, n).with_policy(
            ExecutionPolicy(timeout_seconds=deadline)
        )
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            query.rows()
        elapsed = time.perf_counter() - started
        assert elapsed < 2 * deadline, f"cancelled only after {elapsed:.3f}s"

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_zero_timeout_fails_fast(self, backend):
        session = _session(backend)
        query = session.table("works").with_policy(
            ExecutionPolicy(timeout_seconds=0.0)
        )
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            query.rows()
        assert time.perf_counter() - started < 0.5

    def test_timeout_counted_in_statistics_and_session(self):
        session = _session(policy=ExecutionPolicy(timeout_seconds=0.0))
        statistics = {}
        with pytest.raises(QueryTimeoutError):
            session.table("works").rows(statistics)
        assert statistics["execution.timeouts"] == 1
        assert session.execution_info().timeouts == 1

    def test_timeout_is_not_retried(self):
        schedule = FaultSchedule([("delay", 30.0)])
        backend = FaultInjectingBackend("memory", schedule)
        session = _session(
            backend=backend,
            policy=ExecutionPolicy(timeout_seconds=0.05, retries=5),
        )
        statistics = {}
        with pytest.raises(QueryTimeoutError):
            session.table("works").rows(statistics)
        assert "execution.retries" not in statistics
        assert schedule.injected["delay"] == 1


class TestRowBudget:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_one_row_budget_trips_on_multirow_result(self, backend):
        session = _session(backend)
        query = session.table("works").with_policy(
            ExecutionPolicy(max_result_rows=1)
        )
        with pytest.raises(ResourceLimitError):
            query.rows()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_budget_at_least_result_size_passes(self, backend):
        session = _session(backend)
        relaxed = session.table("works").with_policy(
            ExecutionPolicy(max_result_rows=10_000)
        )
        assert sorted(relaxed.rows()) == sorted(session.table("works").rows())


class TestRetries:
    def test_transients_cleared_by_retry_give_faultfree_result(self):
        expected = sorted(_session().table("works").rows())
        schedule = FaultSchedule(["transient", "transient", "ok"])
        session = _session(
            backend=FaultInjectingBackend("memory", schedule),
            policy=ExecutionPolicy(retries=2, backoff_base_seconds=0.001),
        )
        statistics = {}
        assert sorted(session.table("works").rows(statistics)) == expected
        assert statistics["execution.retries"] == 2
        assert schedule.injected == {"transient": 2, "ok": 1}
        assert session.execution_info().retries == 2

    def test_zero_retry_policy_fails_on_first_transient(self):
        schedule = FaultSchedule(["transient", "ok"])
        session = _session(
            backend=FaultInjectingBackend("memory", schedule),
            policy=ExecutionPolicy(retries=0),
        )
        with pytest.raises(BackendError):
            session.table("works").rows()
        assert schedule.injected == {"transient": 1}

    def test_retry_budget_exhausted_raises_the_transient_error(self):
        schedule = FaultSchedule(["transient"] * 5)
        session = _session(
            backend=FaultInjectingBackend("memory", schedule),
            policy=ExecutionPolicy(retries=2, backoff_base_seconds=0.001),
        )
        with pytest.raises(BackendError):
            session.table("works").rows()
        assert schedule.injected["transient"] == 3  # initial try + 2 retries

    def test_permanent_error_is_never_retried(self):
        schedule = FaultSchedule(["hard", "ok"])
        session = _session(
            backend=FaultInjectingBackend("memory", schedule),
            policy=ExecutionPolicy(retries=5),
        )
        statistics = {}
        with pytest.raises(BackendError):
            session.table("works").rows(statistics)
        assert "execution.retries" not in statistics
        assert schedule.injected == {"hard": 1}


class TestFallback:
    def test_permanent_failure_degrades_to_fallback_backend(self):
        expected = sorted(_session().table("works").rows())
        schedule = FaultSchedule(["hard"])
        session = _session(
            backend=FaultInjectingBackend("sqlite", schedule),
            policy=ExecutionPolicy(fallback_backend="memory"),
        )
        statistics = {}
        assert sorted(session.table("works").rows(statistics)) == expected
        assert statistics["execution.fallbacks"] == 1
        assert session.execution_info().fallbacks == 1

    def test_exhausted_retries_then_fallback(self):
        expected = sorted(_session().table("works").rows())
        schedule = FaultSchedule(["transient"] * 10)
        session = _session(
            backend=FaultInjectingBackend("memory", schedule),
            policy=ExecutionPolicy(
                retries=2,
                backoff_base_seconds=0.001,
                fallback_backend="memory",
            ),
        )
        statistics = {}
        assert sorted(session.table("works").rows(statistics)) == expected
        assert statistics["execution.retries"] == 2
        assert statistics["execution.fallbacks"] == 1

    def test_fallback_to_same_faulty_backend_can_still_fail(self):
        """Degenerate but legal: the fallback is the failing backend itself."""
        schedule = FaultSchedule(["hard", "hard"])
        faulty = FaultInjectingBackend("memory", schedule)
        session = _session(
            backend=faulty,
            policy=ExecutionPolicy(fallback_backend=faulty),
        )
        with pytest.raises(BackendError):
            session.table("works").rows()
        assert schedule.injected == {"hard": 2}

    def test_fallback_to_same_faulty_backend_can_recover(self):
        expected = sorted(_session().table("works").rows())
        schedule = FaultSchedule(["hard", "ok"])
        faulty = FaultInjectingBackend("memory", schedule)
        session = _session(
            backend=faulty,
            policy=ExecutionPolicy(fallback_backend=faulty),
        )
        assert sorted(session.table("works").rows()) == expected
        assert schedule.injected == {"hard": 1, "ok": 1}

    def test_plan_errors_never_fall_back(self):
        """Only the BackendError family triggers failover."""

        class PlanErrorBackend:
            name = "planfail"

            def execute(self, plan, database, statistics=None, limits=None):
                raise repro.PlanError("unsupported operator")

        session = _session(
            backend=PlanErrorBackend(),
            policy=ExecutionPolicy(retries=3, fallback_backend="memory"),
        )
        statistics = {}
        with pytest.raises(repro.PlanError):
            session.table("works").rows(statistics)
        assert "execution.fallbacks" not in statistics
        assert "execution.retries" not in statistics


class TestSQLiteFaultMapping:
    class _FailingConnection:
        def __init__(self, message):
            self.message = message

        def execute(self, sql):
            raise sqlite3.OperationalError(self.message)

        def set_progress_handler(self, handler, n):
            pass

    def test_locked_and_busy_map_to_transient_backend_error(self):
        backend = SQLiteBackend()
        for message in ("database is locked", "database table is busy"):
            with pytest.raises(BackendError) as info:
                backend._run(self._FailingConnection(message), "SELECT 1")
            assert info.value.transient, message

    def test_other_operational_errors_stay_permanent(self):
        backend = SQLiteBackend()
        with pytest.raises(BackendError) as info:
            backend._run(self._FailingConnection("no such table: nope"), "SELECT 1")
        assert not info.value.transient

    def test_interrupt_cancels_inflight_query(self):
        n = 3000
        session = connect(domain=(0, 100), backend="sqlite")
        left = session.load("l", ["a"], [(i, 0, 50) for i in range(n)])
        right = session.load("r", ["b"], [(i, 0, 50) for i in range(n)])
        backend = SQLiteBackend.for_database(session.database, optimize=False)
        plan = session.pipeline.rewrite(left.join(right, on="a + b < -1").plan)

        canceller = threading.Timer(0.05, backend.interrupt)
        canceller.start()
        try:
            with pytest.raises(QueryTimeoutError, match="cancelled"):
                backend.execute(plan, session.database)
        finally:
            canceller.cancel()
            backend.close()


class TestFaultSchedule:
    def test_from_seed_is_replayable(self):
        a = FaultSchedule.from_seed(7, length=50, transient_rate=0.4, hard_rate=0.1)
        b = FaultSchedule.from_seed(7, length=50, transient_rate=0.4, hard_rate=0.1)
        assert a.actions == b.actions

    def test_exhausted_schedule_behaves_healthy(self):
        schedule = FaultSchedule(["transient"])
        assert schedule.next_action() == "transient"
        for _ in range(5):
            assert schedule.next_action() == "ok"
        assert schedule.injected == {"transient": 1, "ok": 5}

    def test_reset_rewinds_and_clears_counters(self):
        schedule = FaultSchedule(["transient", "ok"])
        schedule.next_action()
        schedule.reset()
        assert schedule.position == 0
        assert not schedule.injected
        assert schedule.next_action() == "transient"

    def test_rejects_unknown_actions(self):
        with pytest.raises(ValueError):
            FaultSchedule(["flaky"])
        with pytest.raises(ValueError):
            FaultSchedule([("delay", -1.0)])

    def test_scripted_counts(self):
        schedule = FaultSchedule(["transient", "ok", ("delay", 0.1), "transient"])
        assert schedule.scripted_counts() == {"transient": 2, "ok": 1, "delay": 1}
