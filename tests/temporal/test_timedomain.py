"""Unit tests for the finite time domain."""

import pytest

from repro.temporal import TimeDomain
from repro.temporal.timedomain import DAY_HOURS


class TestConstruction:
    def test_bounds(self):
        domain = TimeDomain(0, 24)
        assert domain.min_point == 0
        assert domain.max_point == 24
        assert len(domain) == 24

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            TimeDomain(5, 5)
        with pytest.raises(ValueError):
            TimeDomain(7, 3)

    def test_day_hours_constant(self):
        assert len(DAY_HOURS) == 24

    def test_negative_origin_allowed(self):
        domain = TimeDomain(-5, 5)
        assert -3 in domain
        assert len(domain) == 10


class TestMembershipAndIteration:
    def test_contains(self):
        domain = TimeDomain(0, 10)
        assert 0 in domain
        assert 9 in domain
        assert 10 not in domain
        assert -1 not in domain

    def test_iteration_order(self):
        assert list(TimeDomain(3, 6)) == [3, 4, 5]
        assert list(TimeDomain(3, 6).points()) == [3, 4, 5]

    def test_successor_predecessor(self):
        domain = TimeDomain(0, 10)
        assert domain.successor(4) == 5
        assert domain.predecessor(4) == 3


class TestValidation:
    def test_validate_point(self):
        domain = TimeDomain(0, 10)
        assert domain.validate_point(0) == 0
        with pytest.raises(ValueError):
            domain.validate_point(10)
        with pytest.raises(ValueError):
            domain.validate_point(-1)

    def test_clamp(self):
        domain = TimeDomain(0, 10)
        assert domain.clamp(-5, 20) == (0, 10)
        assert domain.clamp(3, 7) == (3, 7)
        # clamping may produce an empty range, caller decides what to do
        assert domain.clamp(15, 20) == (15, 10)

    def test_universe(self):
        assert TimeDomain(2, 9).universe() == (2, 9)


class TestEqualityAndHashing:
    def test_value_semantics(self):
        assert TimeDomain(0, 10) == TimeDomain(0, 10)
        assert TimeDomain(0, 10) != TimeDomain(0, 11)
        assert hash(TimeDomain(0, 10)) == hash(TimeDomain(0, 10))

    def test_repr(self):
        assert "0" in repr(TimeDomain(0, 10))
