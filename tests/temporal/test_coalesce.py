"""Unit tests for K-coalescing (Definition 5.3 and Example 5.3 of the paper).

``CK`` is ``TemporalElement.coalesce()``, ``CP`` is
``TemporalElement.changepoints()``; a period K-relation built from a
tuple -> element mapping holds the coalesced, non-empty annotations.
"""

from repro.logical_model import PeriodKRelation
from repro.semirings import BOOLEAN, NATURAL
from repro.temporal import Interval, PeriodSemiring, TemporalElement, TimeDomain

DOMAIN = TimeDomain(0, 14)


class TestPaperExample53:
    """Figure 3 / Example 5.3: the salary relation's 30k tuple."""

    def test_n_coalesce(self):
        t30k = TemporalElement(
            NATURAL, DOMAIN, [(Interval(3, 10), 1), (Interval(3, 13), 1)]
        )
        assert t30k.coalesce().mapping == {Interval(3, 10): 2, Interval(10, 13): 1}

    def test_b_coalesce(self):
        t30k_set = TemporalElement(
            BOOLEAN, DOMAIN, [(Interval(3, 10), True), (Interval(3, 13), True)]
        )
        assert t30k_set.coalesce().mapping == {Interval(3, 13): True}

    def test_changepoints_of_30k(self):
        t30k = TemporalElement(
            NATURAL, DOMAIN, [(Interval(3, 10), 1), (Interval(3, 13), 1)]
        )
        assert t30k.changepoints() == [0, 3, 10, 13]


class TestCoalescedShape:
    def test_no_overlaps_in_output(self):
        element = TemporalElement(
            NATURAL, DOMAIN, [(Interval(0, 8), 1), (Interval(4, 12), 1)]
        )
        coalesced = element.coalesce()
        intervals = coalesced.intervals()
        for i, a in enumerate(intervals):
            for b in intervals[i + 1:]:
                assert not a.overlaps(b)

    def test_adjacent_outputs_have_different_annotations(self):
        element = TemporalElement(
            NATURAL, DOMAIN, [(Interval(0, 5), 2), (Interval(5, 10), 2), (Interval(10, 12), 3)]
        )
        coalesced = element.coalesce()
        assert coalesced.mapping == {Interval(0, 10): 2, Interval(10, 12): 3}

    def test_gaps_are_preserved(self):
        element = TemporalElement(
            NATURAL, DOMAIN, [(Interval(0, 3), 1), (Interval(6, 9), 1)]
        )
        assert element.coalesce().mapping == {Interval(0, 3): 1, Interval(6, 9): 1}

    def test_is_coalesced_predicate(self):
        raw = TemporalElement(NATURAL, DOMAIN, [(Interval(0, 5), 1), (Interval(5, 9), 1)])
        assert not raw.is_coalesced()
        assert raw.coalesce().is_coalesced()

    def test_empty_element_is_coalesced(self):
        assert TemporalElement.empty(NATURAL, DOMAIN).is_coalesced()


class TestCoalesceAnnotations:
    def test_drops_empty_histories(self):
        annotations = {
            ("keep",): TemporalElement(NATURAL, DOMAIN, {Interval(0, 5): 1}),
            ("drop",): TemporalElement(NATURAL, DOMAIN, {}),
        }
        coalesced = PeriodKRelation(PeriodSemiring(NATURAL, DOMAIN), ("k",), annotations)
        assert set(coalesced.rows()) == {("keep",)}

    def test_coalesces_every_value(self):
        annotations = {
            ("t",): TemporalElement(
                NATURAL, DOMAIN, [(Interval(0, 5), 1), (Interval(5, 9), 1)]
            )
        }
        coalesced = PeriodKRelation(PeriodSemiring(NATURAL, DOMAIN), ("k",), annotations)
        assert coalesced.annotation(("t",)).mapping == {Interval(0, 9): 1}
