"""Tests for the experiment drivers (shape of every reproduced table/figure)."""

import pytest

from repro.datasets import EmployeesConfig, TPCBiHConfig, generate_tpcbih
from repro.datasets.workloads import TPCH_WORKLOAD
from repro.experiments import (
    format_ablation,
    format_figure5,
    format_seconds,
    format_table,
    format_table1,
    format_table2,
    format_table3,
    run_ablation,
    run_figure5,
    run_table1,
    run_table2_employee,
    run_table2_tpch,
    run_table3_employee,
    run_table3_tpch,
)
from repro.experiments.report import REPEATS, fastest, prepared
from repro.rewriter import QueryPipeline

TINY_EMPLOYEES = EmployeesConfig(scale=0.02)
TINY_TPCH = TPCBiHConfig(scale_factor=0.05)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1()

    def test_every_system_probed(self, rows):
        assert {row["approach"] for row in rows} == {
            "our-approach",
            "interval-preservation",
            "temporal-alignment",
            "naive-per-snapshot",
        }

    def test_our_approach_passes_all_probes(self, rows):
        ours = next(row for row in rows if row["approach"] == "our-approach")
        assert ours["ag_bug_free"] and ours["bd_bug_free"] and ours["unique_encoding"]

    def test_native_baselines_fail_probes_as_in_the_paper(self, rows):
        preservation = next(r for r in rows if r["approach"] == "interval-preservation")
        alignment = next(r for r in rows if r["approach"] == "temporal-alignment")
        assert not preservation["ag_bug_free"]
        assert not preservation["bd_bug_free"]
        assert not preservation["unique_encoding"]
        assert not alignment["ag_bug_free"]
        assert not alignment["bd_bug_free"]
        assert not alignment["unique_encoding"]

    def test_formatting(self, rows):
        text = format_table1(rows)
        assert "Table 1" in text and "our-approach" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def results(self):
        return run_figure5(sizes=(500, 1000, 2000), months=48)

    def test_one_row_per_size(self, results):
        assert [row["input_rows"] for row in results] == [500, 1000, 2000]

    def test_runtime_grows_roughly_linearly(self, results):
        """4x the input should cost clearly less than ~12x the time (linearity)."""
        small, large = results[0], results[-1]
        ratio = large["seconds"] / max(small["seconds"], 1e-9)
        assert ratio < 12

    def test_output_rows_positive(self, results):
        assert all(row["output_rows"] > 0 for row in results)

    def test_formatting(self, results):
        assert "Figure 5" in format_figure5(results)


class TestTable2:
    def test_employee_cardinalities(self):
        rows = run_table2_employee(TINY_EMPLOYEES)
        by_name = {row["query"]: row["result_rows"] for row in rows}
        assert set(by_name) == {
            "join-1", "join-2", "join-3", "join-4", "agg-1", "agg-2", "agg-3",
            "agg-join", "diff-1", "diff-2",
        }
        # the same relative pattern as the paper: join-1/join-2 dominate joins,
        # grouped aggregation (agg-1) is mid-sized, selective queries are small
        assert by_name["join-1"] > by_name["join-3"]
        assert by_name["agg-1"] > by_name["agg-3"]
        assert by_name["diff-1"] > 0

    def test_tpch_cardinalities(self):
        rows = run_table2_tpch(TINY_TPCH)
        by_name = {row["query"]: row["result_rows"] for row in rows}
        assert len(by_name) == 9
        assert by_name["Q1"] > by_name["Q19"]  # Q1 groups are much larger than Q19's

    def test_formatting(self):
        text = format_table2(run_table2_employee(TINY_EMPLOYEES), run_table2_tpch(TINY_TPCH))
        assert "Employee workload" in text and "TPC-BiH" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def employee_rows(self):
        return run_table3_employee(TINY_EMPLOYEES)

    @pytest.fixture(scope="class")
    def tpch_rows(self):
        return run_table3_tpch(TINY_TPCH)

    def test_every_query_timed_for_both_systems(self, employee_rows):
        assert len(employee_rows) == 10
        for row in employee_rows:
            assert row["seq_seconds"] > 0
            assert row["seq_sql_seconds"] > 0
            assert row["nat_seconds"] > 0

    def test_bug_flags_match_the_paper(self, employee_rows, tpch_rows):
        flags = {row["query"]: row["native_bug"] for row in employee_rows}
        assert flags["agg-2"] == "AG" and flags["diff-1"] == "BD"
        tpch_flags = {row["query"]: row["native_bug"] for row in tpch_rows}
        assert tpch_flags["Q6"] == "AG" and tpch_flags["Q7"] == ""

    def test_aggregation_queries_favour_the_middleware(self, tpch_rows):
        """All TPC-H queries aggregate; on average the middleware should win."""
        speedups = [row["speedup_vs_native"] for row in tpch_rows]
        assert sum(speedups) / len(speedups) > 1.0

    def test_tpch_runtime_grows_roughly_linearly(self):
        """Q1 at 4x the data (scale factor 0.05 against 0.2) takes well under 40x the time."""
        timings = []
        for scale in (0.05, 0.2):
            config = TPCBiHConfig(scale_factor=scale)
            pipeline = QueryPipeline(config.domain, database=generate_tpcbih(config))
            best, _ = fastest({"Q1": prepared(pipeline, TPCH_WORKLOAD["Q1"]())})
            timings.append(best["Q1"])
        assert timings[1] < timings[0] * 40

    def test_formatting(self, employee_rows, tpch_rows):
        text = format_table3(employee_rows, tpch_rows)
        assert "Table 3" in text and "Seq = ours" in text


class TestAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_ablation(EmployeesConfig(scale=0.03))

    def test_all_ten_queries_timed(self, rows):
        assert len(rows) == 10
        for row in rows:
            assert row["optimized"] > 0
            assert row["per-operator-coalesce"] > 0
            assert row["no-preaggregation"] > 0

    def test_all_configurations_agree_on_results(self, rows):
        for row in rows:
            assert row["per-operator-coalesce_matches"]
            assert row["no-preaggregation_matches"]

    def test_formatting(self, rows):
        text = format_ablation(rows)
        assert "Ablation" in text and "no-preaggregation_matches" in text

    def test_per_snapshot_baseline_is_bag_equal(self, rows):
        (naive,) = [row for row in rows if "per-snapshot" in row]
        assert naive["query"] == "agg-2" and naive["per-snapshot_matches"]
        assert "per-snapshot_matches" in format_ablation(rows)


class TestReportHelpers:
    def test_format_seconds(self):
        """Every timing in milliseconds, to 3 significant figures."""
        assert format_seconds(0.0000123) == "0.0123ms"
        assert format_seconds(0.0022) == "2.20ms"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(0.015) == "15.0ms"
        assert format_seconds(1.5) == "1500ms"

    def test_fastest_reports_the_best_run_and_the_warm_up_result(self):
        calls = []
        best, results = fastest(
            {"a": lambda: calls.append("a") or "A", "b": lambda: calls.append("b")}
        )
        assert calls == ["a", "b"] + ["a", "b"] * REPEATS
        assert set(best) == {"a", "b"} and all(seconds >= 0 for seconds in best.values())
        assert results == {"a": "A", "b": None}

    def test_format_table_renders_headers_and_rows(self):
        text = format_table(["a", "b"], [{"a": 1, "b": True}, {"a": None}], title="T")
        assert "T" in text and "yes" in text
