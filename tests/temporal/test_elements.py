"""Unit tests for temporal K-elements (construction, timeslice, operations)."""

import pytest

from repro.semirings import BOOLEAN, NATURAL, SemiringError, TROPICAL
from repro.temporal import Interval, TemporalElement, TimeDomain

DOMAIN = TimeDomain(0, 24)


def element(mapping):
    return TemporalElement(NATURAL, DOMAIN, mapping)


class TestConstruction:
    def test_zero_values_dropped(self):
        assert element({Interval(0, 5): 0}).is_empty()

    def test_duplicate_intervals_summed(self):
        built = TemporalElement(NATURAL, DOMAIN, [(Interval(0, 5), 1), (Interval(0, 5), 2)])
        assert built.at(2) == 3

    def test_clamped_to_domain(self):
        built = element({Interval(-5, 30): 1})
        assert built.intervals() == [Interval(0, 24)]

    def test_interval_outside_domain_dropped(self):
        small = TimeDomain(0, 10)
        built = TemporalElement(NATURAL, small, {Interval(15, 20): 2})
        assert built.is_empty()

    def test_empty_and_universe(self):
        assert TemporalElement.empty(NATURAL, DOMAIN).is_empty()
        universe = TemporalElement.universe(NATURAL, DOMAIN)
        assert universe.at(0) == 1 and universe.at(23) == 1

    def test_singleton_defaults_to_one(self):
        single = TemporalElement.singleton(NATURAL, DOMAIN, Interval(3, 10))
        assert single.at(5) == 1 and single.at(12) == 0

    def test_from_points_coalesces(self):
        built = TemporalElement.from_points(NATURAL, DOMAIN, {3: 1, 4: 1, 5: 1, 8: 2})
        assert built.mapping == {Interval(3, 6): 1, Interval(8, 9): 2}


class TestTimeslice:
    def test_example_from_paper_section_5(self):
        # T = {[00,05) -> 2, [04,05) -> 1}: the annotation at 04 is 2 + 1 = 3.
        built = element({Interval(0, 5): 2, Interval(4, 5): 1})
        assert built.at(4) == 3
        assert built.at(3) == 2
        assert built.at(5) == 0

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            element({Interval(0, 5): 1}).at(24)

    def test_snapshot_equivalence(self):
        # Example 5.2 of the paper: three equivalent encodings of T1.
        t1 = element({Interval(3, 9): 3, Interval(18, 20): 2})
        t2 = element(
            [(Interval(3, 9), 1), (Interval(3, 6), 2), (Interval(6, 9), 2), (Interval(18, 20), 2)]
        )
        t3 = element({Interval(3, 5): 3, Interval(5, 9): 3, Interval(18, 20): 2})
        assert t1.snapshot_equivalent(t2)
        assert t1.snapshot_equivalent(t3)
        assert not t1.snapshot_equivalent(element({Interval(3, 9): 3}))


class TestChangepoints:
    def test_tmin_always_included(self):
        assert TemporalElement.empty(NATURAL, DOMAIN).changepoints() == [0]

    def test_changepoints_of_overlapping_intervals(self):
        # Figure 3 of the paper: T30k = {[3,10) -> 1, [3,13) -> 1}.
        domain = TimeDomain(0, 14)
        t30k = TemporalElement(
            NATURAL, domain, [(Interval(3, 10), 1), (Interval(3, 13), 1)]
        )
        assert t30k.changepoints() == [0, 3, 10, 13]

    def test_changepoint_on_annotation_change_not_interval_bound(self):
        built = element({Interval(0, 5): 2, Interval(5, 10): 2})
        # annotation is constant 2 across the bound at 5: not a changepoint
        assert built.changepoints() == [0, 10]


class TestOperations:
    def test_plus_matches_paper_example_6_1(self):
        t1 = element({Interval(3, 10): 1, Interval(18, 20): 1})
        t2 = element({Interval(8, 16): 1})
        total = t1.plus(t2)
        assert total.mapping == {
            Interval(3, 8): 1,
            Interval(8, 10): 2,
            Interval(10, 16): 1,
            Interval(18, 20): 1,
        }

    def test_times_intersects_supports(self):
        t1 = element({Interval(0, 10): 2})
        t2 = element({Interval(5, 15): 3})
        assert t1.times(t2).mapping == {Interval(5, 10): 6}

    def test_times_with_empty_is_empty(self):
        t1 = element({Interval(0, 10): 2})
        assert t1.times(TemporalElement.empty(NATURAL, DOMAIN)).is_empty()

    def test_monus_matches_paper_section_7_example(self):
        required = element({Interval(3, 6): 1, Interval(6, 12): 2, Interval(12, 14): 1})
        available = element(
            {Interval(3, 8): 1, Interval(8, 10): 2, Interval(10, 16): 1, Interval(18, 20): 1}
        )
        assert required.monus(available).mapping == {
            Interval(6, 8): 1,
            Interval(10, 12): 1,
        }

    def test_monus_requires_m_semiring(self):
        tropical = TemporalElement(TROPICAL, DOMAIN, {Interval(0, 5): 3})
        with pytest.raises(SemiringError):
            tropical.monus(TemporalElement.empty(TROPICAL, DOMAIN))

    def test_natural_order_pointwise(self):
        small = element({Interval(0, 5): 1})
        large = element({Interval(0, 10): 2})
        assert small.natural_leq(large)
        assert not large.natural_leq(small)

    def test_scale(self):
        scaled = element({Interval(0, 5): 2}).scale(3)
        assert scaled.mapping == {Interval(0, 5): 6}
        assert element({Interval(0, 5): 2}).scale(0).is_empty()

    def test_map_values_to_other_semiring(self):
        boolean = element({Interval(0, 5): 2}).map_values(lambda v: v > 0, BOOLEAN)
        assert boolean.semiring == BOOLEAN
        assert boolean.at(3) is True

    def test_mixed_semiring_operands_rejected(self):
        n_elem = element({Interval(0, 5): 1})
        b_elem = TemporalElement(BOOLEAN, DOMAIN, {Interval(0, 5): True})
        with pytest.raises(SemiringError):
            n_elem.plus(b_elem)

    def test_mixed_domain_operands_rejected(self):
        other = TemporalElement(NATURAL, TimeDomain(0, 10), {Interval(0, 5): 1})
        with pytest.raises(SemiringError):
            element({Interval(0, 5): 1}).plus(other)


class TestSupport:
    def test_support(self):
        built = element({Interval(0, 5): 1, Interval(3, 8): 1, Interval(10, 12): 4})
        assert built.support() == [Interval(0, 8), Interval(10, 12)]

    def test_len_and_bool(self):
        assert len(element({Interval(0, 5): 1, Interval(7, 9): 1})) == 2
        assert not TemporalElement.empty(NATURAL, DOMAIN)
        assert element({Interval(0, 5): 1})


class TestEqualityAndHashing:
    def test_structural_equality(self):
        assert element({Interval(0, 5): 1}) == element({Interval(0, 5): 1})
        assert element({Interval(0, 5): 1}) != element({Interval(0, 5): 2})

    def test_hash_consistency(self):
        assert hash(element({Interval(0, 5): 1})) == hash(element({Interval(0, 5): 1}))

    def test_repr_shows_mapping(self):
        assert "[0, 5) -> 1" in repr(element({Interval(0, 5): 1}))
