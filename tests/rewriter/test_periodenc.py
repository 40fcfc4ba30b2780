"""Unit tests for the PERIODENC encoding and its inverse (Definition 8.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Table
from repro.logical_model import PeriodKRelation
from repro.rewriter import (
    T_BEGIN,
    T_END,
    period_decode,
    period_encode,
    period_schema,
    timeslice_table,
)
from repro.semirings import BOOLEAN, NATURAL
from repro.temporal import Interval, PeriodSemiring, TimeDomain

DOMAIN = TimeDomain(0, 24)
NT = PeriodSemiring(NATURAL, DOMAIN)
BT = PeriodSemiring(BOOLEAN, DOMAIN)


class TestPeriodSchema:
    def test_appends_period_attributes(self):
        assert period_schema(("a", "b")) == ("a", "b", T_BEGIN, T_END)

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            period_schema(("a", T_BEGIN))


class TestEncode:
    def test_multiplicity_becomes_duplicate_rows(self):
        relation = PeriodKRelation.from_periods(NT, ("x",), [((1,), 0, 10, 3)])
        table = period_encode(relation)
        assert table.schema == ("x", T_BEGIN, T_END)
        assert sorted(table.rows) == [(1, 0, 10)] * 3

    def test_multiple_intervals_become_multiple_rows(self):
        relation = PeriodKRelation.from_periods(
            NT, ("x",), [((1,), 0, 5, 1), ((1,), 10, 15, 1)]
        )
        table = period_encode(relation)
        assert sorted(table.rows) == [(1, 0, 5), (1, 10, 15)]

    def test_only_defined_for_n(self):
        relation = PeriodKRelation.from_periods(BT, ("x",), [((1,), 0, 5, True)])
        with pytest.raises(ValueError):
            period_encode(relation)


class TestDecode:
    def test_round_trip(self):
        relation = PeriodKRelation.from_periods(
            NT, ("x", "y"), [((1, "a"), 0, 10, 2), ((2, "b"), 5, 20, 1)]
        )
        assert period_decode(period_encode(relation), NT) == relation

    def test_duplicate_rows_accumulate(self):
        from repro.engine import Table

        table = Table("t", ("x", T_BEGIN, T_END), [(1, 0, 10), (1, 5, 15)])
        decoded = period_decode(table, NT)
        assert decoded.annotation((1,)).mapping == {
            Interval(0, 5): 1,
            Interval(5, 10): 2,
            Interval(10, 15): 1,
        }

    def test_decoding_is_insensitive_to_input_fragmentation(self):
        """Decoding a fragmented but equivalent table yields the same relation."""
        from repro.engine import Table

        whole = Table("t", ("x", T_BEGIN, T_END), [(1, 0, 10)])
        fragmented = Table("t", ("x", T_BEGIN, T_END), [(1, 0, 4), (1, 4, 10)])
        assert period_decode(whole, NT) == period_decode(fragmented, NT)

    def test_rows_outside_domain_clamped_or_dropped(self):
        from repro.engine import Table

        table = Table("t", ("x", T_BEGIN, T_END), [(1, -5, 30), (2, 50, 60)])
        decoded = period_decode(table, NT)
        assert decoded.annotation((1,)).mapping == {Interval(0, 24): 1}
        assert (2,) not in decoded

    def test_custom_period_attribute_names(self):
        from repro.engine import Table

        table = Table("t", ("x", "vt_s", "vt_e"), [(1, 0, 5)])
        decoded = period_decode(table, NT, period=("vt_s", "vt_e"))
        assert decoded.annotation((1,)).mapping == {Interval(0, 5): 1}

    def test_only_defined_for_n(self):
        from repro.engine import Table

        table = Table("t", ("x", T_BEGIN, T_END), [(1, 0, 5)])
        with pytest.raises(ValueError):
            period_decode(table, BT)

    def test_null_and_degenerate_periods_hold_nowhere(self):
        table = Table(
            "t", ("x", T_BEGIN, T_END), [(1, None, 5), (2, 3, None), (3, 7, 7), (4, 9, 2)]
        )
        assert len(period_decode(table, NT)) == 0


#: End points around, on and outside DOMAIN, and NULL.
END_POINTS = st.one_of(st.none(), st.integers(-3, 27))


class TestTimeslice:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("ab"), END_POINTS, END_POINTS), max_size=8),
        st.integers(DOMAIN.min_point, DOMAIN.max_point - 1),
    )
    def test_equals_the_decoded_timeslice(self, rows, point):
        """NULL, degenerate and out-of-domain periods included."""
        table = Table("t", ("x", T_BEGIN, T_END), rows)
        assert timeslice_table(table, point) == period_decode(table, NT).timeslice(point)

    def test_counts_duplicate_rows(self):
        table = Table("t", ("x", T_BEGIN, T_END), [(1, 0, 10), (1, 5, 15), (2, 9, 10)])
        assert dict(timeslice_table(table, 9)) == {(1,): 2, (2,): 1}
        assert dict(timeslice_table(table, 10)) == {(1,): 1}

    def test_custom_period_attribute_names(self):
        table = Table("t", ("vt_s", "x", "vt_e"), [(0, 1, 5)])
        assert dict(timeslice_table(table, 4, period=("vt_s", "vt_e"))) == {(1,): 1}
        assert len(timeslice_table(table, 5, period=("vt_s", "vt_e"))) == 0
