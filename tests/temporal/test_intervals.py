"""Unit tests for half-open intervals and interval utilities."""

import pytest

from repro.temporal import Interval, elementary_intervals, merge_adjacent


class TestConstruction:
    def test_valid_interval(self):
        interval = Interval(3, 10)
        assert interval.begin == 3
        assert interval.end == 10
        assert len(interval) == 7

    def test_empty_or_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5)
        with pytest.raises(ValueError):
            Interval(7, 3)

    def test_ordering_is_lexicographic(self):
        assert Interval(1, 5) < Interval(2, 3)
        assert Interval(1, 3) < Interval(1, 5)


class TestMembership:
    def test_contains_points_half_open(self):
        interval = Interval(3, 6)
        assert 3 in interval
        assert 5 in interval
        assert 6 not in interval

    def test_points_iteration(self):
        assert list(Interval(3, 6).points()) == [3, 4, 5]


class TestRelationships:
    def test_overlaps(self):
        assert Interval(0, 5).overlaps(Interval(4, 8))
        assert not Interval(0, 5).overlaps(Interval(5, 8))
        assert Interval(0, 10).overlaps(Interval(2, 3))

    def test_adjacent(self):
        assert Interval(0, 5).adjacent(Interval(5, 8))
        assert Interval(5, 8).adjacent(Interval(0, 5))
        assert not Interval(0, 5).adjacent(Interval(6, 8))
        assert not Interval(0, 5).adjacent(Interval(4, 8))


class TestConstructiveOperations:
    def test_union_of_overlapping(self):
        assert Interval(0, 5).union(Interval(3, 8)) == Interval(0, 8)

    def test_union_of_adjacent(self):
        assert Interval(0, 5).union(Interval(5, 8)) == Interval(0, 8)

    def test_union_of_disjoint_is_undefined(self):
        assert Interval(0, 3).union(Interval(5, 8)) is None

    def test_shifted(self):
        assert Interval(2, 5).shifted(3) == Interval(5, 8)

    def test_repr(self):
        assert repr(Interval(3, 10)) == "[3, 10)"


class TestElementaryIntervals:
    def test_from_sorted_endpoints(self):
        assert elementary_intervals([0, 3, 7]) == [Interval(0, 3), Interval(3, 7)]

    def test_deduplicates_and_sorts(self):
        assert elementary_intervals([7, 0, 3, 3]) == [Interval(0, 3), Interval(3, 7)]

    def test_single_endpoint_yields_nothing(self):
        assert elementary_intervals([5]) == []
        assert elementary_intervals([]) == []


class TestMergeAdjacent:
    def test_merges_overlapping_and_adjacent(self):
        merged = merge_adjacent([Interval(5, 8), Interval(0, 3), Interval(3, 6)])
        assert merged == [Interval(0, 8)]

    def test_keeps_gaps(self):
        merged = merge_adjacent([Interval(0, 2), Interval(5, 7)])
        assert merged == [Interval(0, 2), Interval(5, 7)]

    def test_empty_input(self):
        assert merge_adjacent([]) == []

    def test_contained_intervals_absorbed(self):
        assert merge_adjacent([Interval(0, 10), Interval(2, 4)]) == [Interval(0, 10)]
