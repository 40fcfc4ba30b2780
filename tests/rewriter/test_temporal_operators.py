"""Unit tests for the coalesce, split and fused temporal-aggregate operators."""

import pytest

from repro.algebra import AggregateSpec, ConstantRelation, attr
from repro.engine import Database, execute
from repro.rewriter import (
    CoalesceOperator,
    SplitOperator,
    T_BEGIN,
    T_END,
    TemporalAggregateOperator,
)


def constant(rows, schema=("val", T_BEGIN, T_END)):
    return ConstantRelation(tuple(schema), tuple(rows))


DATABASE = Database()


class TestCoalesceOperator:
    def run(self, rows, schema=("val", T_BEGIN, T_END)):
        return execute(CoalesceOperator(constant(rows, schema)), DATABASE)

    def test_adjacent_equal_rows_merge(self):
        result = self.run([("a", 0, 5), ("a", 5, 10)])
        assert result.rows == [("a", 0, 10)]

    def test_overlap_produces_multiplicity_two(self):
        result = self.run([("a", 0, 10), ("a", 5, 15)])
        assert sorted(result.rows) == [("a", 0, 5), ("a", 5, 10), ("a", 5, 10), ("a", 10, 15)]

    def test_figure3_example(self):
        """The 30k salary tuple of Figure 3: {[3,10)->2, [10,13)->1}."""
        result = self.run([(30000, 3, 13), (30000, 3, 10)])
        assert sorted(result.rows) == [(30000, 3, 10), (30000, 3, 10), (30000, 10, 13)]

    def test_different_values_not_merged(self):
        result = self.run([("a", 0, 5), ("b", 5, 10)])
        assert sorted(result.rows) == [("a", 0, 5), ("b", 5, 10)]

    def test_disjoint_intervals_stay_separate(self):
        result = self.run([("a", 0, 3), ("a", 7, 9)])
        assert sorted(result.rows) == [("a", 0, 3), ("a", 7, 9)]

    def test_empty_and_degenerate_rows(self):
        assert self.run([]).rows == []
        assert self.run([("a", 5, 5)]).rows == []

    def test_idempotent(self):
        once = self.run([("a", 0, 10), ("a", 5, 15)])
        twice = execute(
            CoalesceOperator(constant(once.rows)), DATABASE
        )
        assert sorted(once.rows) == sorted(twice.rows)


class TestSplitOperator:
    def test_split_at_group_endpoints(self):
        left = constant([("a", 0, 10)])
        right = constant([("a", 4, 6), ("b", 2, 3)])
        result = execute(SplitOperator(left, right, ("val",)), DATABASE)
        # the "b" end points do not affect the "a" group
        assert sorted(result.rows) == [("a", 0, 4), ("a", 4, 6), ("a", 6, 10)]

    def test_split_with_empty_group_by_uses_all_endpoints(self):
        left = constant([("a", 0, 10)])
        right = constant([("b", 4, 6)])
        result = execute(SplitOperator(left, right, ()), DATABASE)
        assert sorted(result.rows) == [("a", 0, 4), ("a", 4, 6), ("a", 6, 10)]

    def test_duplicates_preserved(self):
        left = constant([("a", 0, 10), ("a", 0, 10)])
        right = constant([("a", 5, 10)])
        result = execute(SplitOperator(left, right, ("val",)), DATABASE)
        assert sorted(result.rows).count(("a", 0, 5)) == 2

    def test_aligned_fragments_support_except_all(self):
        """After splitting both sides, EXCEPT ALL implements the monus."""
        from repro.algebra import Difference

        left = constant([("SP", 3, 12), ("SP", 6, 14)])
        right = constant([("SP", 3, 10), ("SP", 8, 16)])
        plan = Difference(
            SplitOperator(left, right, ("val",)), SplitOperator(right, left, ("val",))
        )
        survivors = execute(CoalesceOperator(plan), DATABASE)
        assert sorted(survivors.rows) == [("SP", 6, 8), ("SP", 10, 12)]

    def test_unknown_group_attribute(self):
        left = constant([("a", 0, 10)])
        with pytest.raises(Exception):
            execute(SplitOperator(left, left, ("missing",)), DATABASE)

    @pytest.mark.parametrize("executor", ["row", "batch"])
    @pytest.mark.parametrize("cutover", [0, 10**9])
    @pytest.mark.parametrize("missing_on", ["left", "right"])
    def test_a_group_attribute_missing_from_either_input_is_named(
        self, executor, cutover, missing_on, monkeypatch
    ):
        """Both inputs are checked, on every route, with the operator's own message."""
        from repro.engine import ExecutorError, kernels

        monkeypatch.setattr(kernels, "KERNEL_CUTOVER", cutover)
        grouped = constant([("a", 0, 10)])
        other = constant([("a", 4, 6)], schema=("other", T_BEGIN, T_END))
        left, right = (other, grouped) if missing_on == "left" else (grouped, other)
        plan = SplitOperator(left, right, ("val",))
        with pytest.raises(ExecutorError, match=r"split group attribute 'val' missing from \('other'"):
            execute(plan, DATABASE, executor=executor)


class TestTemporalAggregateOperator:
    def test_grouped_count_and_sum(self):
        child = constant(
            [("a", 5, 0, 10), ("a", 7, 5, 15), ("b", 1, 0, 4)],
            schema=("grp", "v", T_BEGIN, T_END),
        )
        plan = TemporalAggregateOperator(
            child,
            ("grp",),
            (AggregateSpec("count", attr("v"), "cnt"), AggregateSpec("sum", attr("v"), "total")),
        )
        result = execute(plan, DATABASE)
        rows = set(result.rows)
        assert ("a", 1, 5, 0, 5) in rows
        assert ("a", 2, 12, 5, 10) in rows
        assert ("a", 1, 7, 10, 15) in rows
        assert ("b", 1, 1, 0, 4) in rows

    def test_count_star_counts_padding_rows(self):
        """count(*) (argument None) counts every open row, including NULLs."""
        child = constant([(None, 0, 24)], schema=("v", T_BEGIN, T_END))
        plan = TemporalAggregateOperator(child, (), (AggregateSpec("count", None, "cnt"),))
        result = execute(plan, DATABASE)
        assert result.rows == [(1, 0, 24)]

    def test_count_argument_ignores_nulls(self):
        child = constant(
            [(None, 0, 24), (5, 3, 10)], schema=("v", T_BEGIN, T_END)
        )
        plan = TemporalAggregateOperator(
            child, (), (AggregateSpec("count", attr("v"), "cnt"),)
        )
        result = execute(plan, DATABASE)
        assert set(result.rows) == {(0, 0, 3), (1, 3, 10), (0, 10, 24)}

    def test_min_max_track_open_values(self):
        child = constant(
            [(5, 0, 10), (9, 4, 8)], schema=("v", T_BEGIN, T_END)
        )
        plan = TemporalAggregateOperator(
            child, (), (AggregateSpec("min", attr("v"), "lo"), AggregateSpec("max", attr("v"), "hi"))
        )
        result = execute(plan, DATABASE)
        assert set(result.rows) == {(5, 5, 0, 4), (5, 9, 4, 8), (5, 5, 8, 10)}

    def test_avg(self):
        child = constant([(10, 0, 4), (20, 2, 4)], schema=("v", T_BEGIN, T_END))
        plan = TemporalAggregateOperator(child, (), (AggregateSpec("avg", attr("v"), "mean"),))
        result = execute(plan, DATABASE)
        assert set(result.rows) == {(10.0, 0, 2), (15.0, 2, 4)}

    def test_preaggregation_statistics_reported(self):
        child = constant([(1, 0, 10)] * 50, schema=("v", T_BEGIN, T_END))
        statistics = {}
        execute(
            TemporalAggregateOperator(child, (), (AggregateSpec("sum", attr("v"), "s"),)),
            DATABASE,
            statistics,
        )
        assert statistics["preaggregated_rows"] == 1
