"""Unit tests for the period semiring ``K^T`` and the timeslice homomorphism."""

import pytest

from repro.semirings import BOOLEAN, NATURAL, SemiringError, TROPICAL
from repro.temporal import (
    Interval,
    PeriodSemiring,
    TemporalElement,
    TimeDomain,
    timeslice_homomorphism,
)

DOMAIN = TimeDomain(0, 24)
NT = PeriodSemiring(NATURAL, DOMAIN)


class TestStructure:
    def test_identities(self):
        assert NT.zero.is_empty()
        assert NT.one.mapping == {Interval(0, 24): 1}
        assert NT.name == "N^T"

    def test_plus_is_coalesced_pointwise_addition(self):
        a = NT.singleton(Interval(3, 10))
        b = NT.singleton(Interval(8, 16))
        assert NT.plus(a, b).mapping == {
            Interval(3, 8): 1,
            Interval(8, 10): 2,
            Interval(10, 16): 1,
        }

    def test_times_restricts_to_overlap(self):
        a = NT.singleton(Interval(0, 10), 2)
        b = NT.singleton(Interval(5, 15), 3)
        assert NT.times(a, b).mapping == {Interval(5, 10): 6}

    def test_one_is_multiplicative_identity(self):
        a = NT.singleton(Interval(3, 10), 4)
        assert NT.times(a, NT.one) == a

    def test_zero_annihilates(self):
        a = NT.singleton(Interval(3, 10), 4)
        assert NT.times(a, NT.zero) == NT.zero
        assert NT.is_zero(NT.times(a, NT.zero))

    def test_monus(self):
        a = NT.element({Interval(0, 10): 2})
        b = NT.element({Interval(5, 15): 1})
        assert NT.monus(a, b).mapping == {Interval(0, 5): 2, Interval(5, 10): 1}

    def test_monus_requires_base_monus(self):
        tropical_t = PeriodSemiring(TROPICAL, DOMAIN)
        assert not tropical_t.has_monus
        with pytest.raises(SemiringError):
            tropical_t.monus(tropical_t.one, tropical_t.one)

    def test_natural_order(self):
        small = NT.singleton(Interval(0, 5))
        large = NT.element({Interval(0, 10): 2})
        assert NT.natural_leq(small, large)
        assert not NT.natural_leq(large, small)

    def test_from_int(self):
        assert NT.from_int(0) == NT.zero
        assert NT.from_int(3).mapping == {Interval(0, 24): 3}
        with pytest.raises(SemiringError):
            NT.from_int(-1)


class TestValueValidation:
    def test_rejects_non_temporal_values(self):
        with pytest.raises(SemiringError):
            NT.plus(1, NT.one)

    def test_rejects_foreign_domain_elements(self):
        foreign = TemporalElement(NATURAL, TimeDomain(0, 10), {Interval(0, 5): 1})
        with pytest.raises(SemiringError):
            NT.plus(foreign, NT.one)

    def test_rejects_foreign_semiring_elements(self):
        boolean_element = TemporalElement(BOOLEAN, DOMAIN, {Interval(0, 5): True})
        with pytest.raises(SemiringError):
            NT.plus(boolean_element, NT.one)

    def test_is_member(self):
        assert NT.is_member(NT.one)
        assert not NT.is_member(1)


class TestIdentitySemantics:
    def test_equality_by_base_and_domain(self):
        assert NT == PeriodSemiring(NATURAL, DOMAIN)
        assert NT != PeriodSemiring(BOOLEAN, DOMAIN)
        assert NT != PeriodSemiring(NATURAL, TimeDomain(0, 10))

    def test_hashable(self):
        assert len({NT, PeriodSemiring(NATURAL, DOMAIN)}) == 1

    def test_repr(self):
        assert "N^T" in repr(NT)


class TestTimesliceHomomorphism:
    def test_maps_identities(self):
        tau = timeslice_homomorphism(NT, 8)
        assert tau(NT.zero) == 0
        assert tau(NT.one) == 1

    def test_commutes_with_operations(self):
        tau = timeslice_homomorphism(NT, 8)
        a = NT.element({Interval(3, 10): 2})
        b = NT.element({Interval(8, 16): 3})
        assert tau(NT.plus(a, b)) == tau(a) + tau(b)
        assert tau(NT.times(a, b)) == tau(a) * tau(b)
        assert tau(NT.monus(a, b)) == max(0, tau(a) - tau(b))

    def test_check_on_samples(self):
        tau = timeslice_homomorphism(NT, 4)
        samples = [NT.singleton(Interval(0, 10), 2), NT.singleton(Interval(5, 12), 1), NT.zero]
        assert tau.check_on(samples)

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            timeslice_homomorphism(NT, 24)


class TestPeriodSemiringOverBoolean:
    def test_bt_behaves_like_set_semantics(self):
        bt = PeriodSemiring(BOOLEAN, DOMAIN)
        a = bt.singleton(Interval(0, 10))
        b = bt.singleton(Interval(5, 15))
        assert bt.plus(a, b).mapping == {Interval(0, 15): True}
        assert bt.times(a, b).mapping == {Interval(5, 10): True}
        assert bt.monus(a, b).mapping == {Interval(0, 5): True}
