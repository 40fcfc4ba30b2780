"""ExecutionPolicy, Deadline and QueryLimits unit behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import Table
from repro.errors import QueryTimeoutError
from repro.execution import Deadline, ExecutionPolicy


class TestDeadline:
    def test_zero_deadline_fails_on_first_poll(self):
        deadline = Deadline(0.0)
        with pytest.raises(QueryTimeoutError):
            deadline.poll()

    def test_generous_deadline_does_not_fire(self):
        deadline = Deadline(60.0)
        for _ in range(1000):
            deadline.poll()
        assert deadline.remaining > 0
        assert not deadline.expired

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_error_message_names_the_budget(self):
        deadline = Deadline(0.25)
        deadline.expires_at = 0.0  # force-expire without sleeping
        with pytest.raises(QueryTimeoutError, match="0.25s deadline"):
            deadline.check()


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_seconds": -1.0},
            {"max_result_rows": -1},
            {"retries": -1},
            {"backoff_base_seconds": -0.1},
            {"backoff_max_seconds": -0.1},
            {"backoff_multiplier": 0.5},
            {"backoff_jitter": 1.5},
            {"backoff_jitter": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_default_policy_is_unconstrained(self):
        assert ExecutionPolicy().start_limits() is None

    def test_start_limits_builds_fresh_deadline(self):
        policy = ExecutionPolicy(timeout_seconds=5.0, max_result_rows=10)
        limits = policy.start_limits()
        assert limits.row_budget == 10
        assert limits.deadline.seconds == 5.0
        # Each call is a fresh budget, not a shared clock.
        assert policy.start_limits().deadline is not limits.deadline

    def test_policy_is_hashable_and_reusable(self):
        a = ExecutionPolicy(timeout_seconds=1.0, retries=2)
        b = ExecutionPolicy(timeout_seconds=1.0, retries=2)
        assert a == b
        assert hash(a) == hash(b)


class TestBackoffDeterminism:
    def test_same_policy_same_delays(self):
        policy = ExecutionPolicy(retries=5, seed=7)
        assert policy.backoff_delays() == policy.backoff_delays()
        assert (
            ExecutionPolicy(retries=5, seed=7).backoff_delays()
            == policy.backoff_delays()
        )

    def test_different_seed_different_jitter(self):
        a = ExecutionPolicy(retries=5, seed=1, backoff_jitter=0.5)
        b = ExecutionPolicy(retries=5, seed=2, backoff_jitter=0.5)
        assert a.backoff_delays() != b.backoff_delays()

    def test_delays_grow_exponentially_up_to_cap(self):
        policy = ExecutionPolicy(
            retries=10,
            backoff_base_seconds=0.01,
            backoff_multiplier=2.0,
            backoff_max_seconds=0.05,
            backoff_jitter=0.0,
        )
        delays = policy.backoff_delays()
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert all(d == 0.05 for d in delays[3:])

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        retries=st.integers(min_value=0, max_value=8),
        base=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        multiplier=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        cap=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_backoff_is_pure_function_of_policy_fields(
        self, seed, retries, base, multiplier, cap, jitter
    ):
        """Equal fields => bit-identical delays, bounded by cap * (1 + jitter)."""
        make = lambda: ExecutionPolicy(
            retries=retries,
            backoff_base_seconds=base,
            backoff_multiplier=multiplier,
            backoff_max_seconds=cap,
            backoff_jitter=jitter,
            seed=seed,
        )
        delays = make().backoff_delays()
        assert delays == make().backoff_delays()
        assert len(delays) == retries
        for delay in delays:
            assert 0.0 <= delay <= cap * (1.0 + jitter) + 1e-12


class TestBackendAcceptsLimits:
    def test_builtin_backends_accept_limits(self):
        import inspect

        from repro.backends import InMemoryBackend, SQLiteBackend

        for backend in (InMemoryBackend(), SQLiteBackend()):
            assert "limits" in inspect.signature(backend.execute).parameters

    def test_every_backend_receives_limits_as_a_keyword(self):
        """With or without a policy, ``execute`` is called with ``limits=``."""
        import repro

        received = []

        class Recording:
            name = "recording"

            def execute(self, plan, database, statistics=None, **keywords):
                received.append(keywords)
                return Table("t", ("x", "t_begin", "t_end"))

        with repro.connect(domain=(0, 8), backend=Recording()) as session:
            session.load("r", ["x"], [(1, 0, 4)])
            session.table("r").rows()
            session.table("r").with_policy(ExecutionPolicy(max_result_rows=5)).rows()
        assert received[0] == {"limits": None}
        assert received[1]["limits"].row_budget == 5
