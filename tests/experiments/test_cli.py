"""Tests for the ``python -m repro.experiments`` command-line entry point."""

import pytest

import repro.experiments.__main__ as cli
from repro.datasets import EmployeesConfig
from repro.experiments import run_ablation
from repro.experiments.__main__ import ALL_EXPERIMENTS, main


def _ablation(broken):
    def row(query):
        return {
            "query": query,
            "optimized": 1.0,
            "per-operator-coalesce": 1.1 if broken == ABLATION_SHAPES[2] else 2.0,
            "no-preaggregation": (
                2.0 if broken == f"{query}: no-preaggregation >= 3x optimized" else 4.0
            ),
            "per-operator-coalesce_matches": True,
            "no-preaggregation_matches": True,
        }

    rows = [row("agg-1"), row("agg-2"), row("agg-3")]
    rows[1].update({"per-snapshot": 0.5 if broken == ABLATION_SHAPES[3] else 100.0,
                    "per-snapshot_matches": True})
    return {"run_ablation": rows}


def _table2(broken):
    counts = {"join-1": 10, "join-2": 10, "join-3": 5, "join-4": 5,
              "agg-1": 10, "agg-3": 5, "diff-1": 5, "diff-2": 10}
    if broken == "diff-1 > 0":
        counts["diff-1"] = 0
    elif broken is not None:
        larger, smaller = broken.split(" > ")
        counts[larger] = counts[smaller]
    rows = [{"query": query, "result_rows": count} for query, count in counts.items()]
    return {"run_table2_employee": rows, "run_table2_tpch": []}


def _table3(broken):
    slow = dict(zip(TABLE3_SHAPES, ("agg-1", "join-3", "Q1"))).get(broken)
    rows = {
        query: {"query": query, "seq_seconds": 100.0 if query == slow else 1.0,
                "seq_sql_seconds": 1.0, "nat_seconds": 2.0, "speedup_vs_native": 2.0,
                "native_bug": ""}
        for query in ("agg-1", "agg-2", "join-3", "join-4", "Q1")
    }
    return {"run_table3_employee": list(rows.values())[:4], "run_table3_tpch": [rows["Q1"]]}


def _figure5(broken):
    return {"run_figure5": [
        {"input_rows": size, "output_rows": size, "seconds": size * per_1k / 1000,
         "seconds_per_1k_rows": per_1k}
        for size, per_1k in ((1000, 0.001), (30000, 0.004 if broken else 0.002))
    ]}


ABLATION_SHAPES = (
    "agg-1: no-preaggregation >= 3x optimized",
    "agg-3: no-preaggregation >= 3x optimized",
    "per-operator-coalesce >= 1.2x optimized over all queries",
    "agg-2: optimized < per-snapshot",
)
TABLE3_SHAPES = ("agg-1 + agg-2: Seq < Nat", "join-3 + join-4: Seq < 5x Nat", "TPC-BiH: Seq < Nat")
#: Experiment -> (stubbed drivers' rows missing the given shape, the shapes it checks).
SHAPES = {
    "ablation": (_ablation, ABLATION_SHAPES),
    "table2": (_table2, ("join-1 > join-4", "join-2 > join-3", "agg-1 > agg-3",
                         "diff-2 > diff-1", "diff-1 > 0")),
    "table3": (_table3, TABLE3_SHAPES),
    "figure5": (_figure5, ("per-1k-row time at 30000 rows <= 3x that at 1000",)),
}


class TestCommandLine:
    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "our-approach" in output

    def test_figure5_with_custom_sizes(self, capsys):
        assert main(["figure5", "--figure5-sizes", "200", "400"]) == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "200" in output and "400" in output

    def test_ablation_runs_the_baseline_rewriters(self, capsys, monkeypatch):
        # The timing shapes hold at the default scale 2.0 (CI runs the whole
        # command); here the run is small, so only the rows are checked.
        monkeypatch.setattr(
            cli,
            "run_ablation",
            lambda seed=None: run_ablation(EmployeesConfig(scale=0.03), seed=seed),
        )
        main(["ablation", "--seed", "7"])
        output, errors = capsys.readouterr()
        assert "Ablation" in output
        assert "per-operator-coalesce" in output and "no-preaggregation" in output
        assert "per-snapshot" in output
        for query in ("join-1", "agg-1", "agg-2", "agg-3", "diff-2"):
            assert query in output
        assert "_matches" not in errors

    def test_ablation_fails_when_a_baseline_differs(self, capsys, monkeypatch):
        rows = _ablation(None)["run_ablation"]
        rows[0]["no-preaggregation_matches"] = False
        monkeypatch.setattr(cli, "run_ablation", lambda seed=None: rows)
        assert main(["ablation"]) == 1
        assert "agg-1 no-preaggregation_matches" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, broken",
        [(name, shape) for name, (_, shapes) in SHAPES.items() for shape in (None, *shapes)],
    )
    def test_fails_naming_the_one_shape_missed(self, capsys, monkeypatch, experiment, broken):
        """``main`` exits 0 on rows that hold every shape, else 1 naming the one missed."""
        for driver, rows in SHAPES[experiment][0](broken).items():
            monkeypatch.setattr(cli, driver, lambda *args, rows=rows, **kwargs: rows)
        status = main([experiment])
        errors = capsys.readouterr().err
        if broken is None:
            assert status == 0 and errors == ""
        else:
            assert status == 1
            assert errors.strip() == f"{experiment} misses the paper's shape: {broken}"

    def test_table1_fails_when_the_matrix_differs_from_the_papers(self, capsys, monkeypatch):
        probed = cli.run_table1()
        alignment = next(row for row in probed if row["approach"] == "temporal-alignment")
        alignment["bd_bug_free"] = True  # as if the set difference were a bag difference
        monkeypatch.setattr(cli, "run_table1", lambda: probed)
        assert main(["table1"]) == 1
        assert "temporal-alignment bd_bug_free" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, seed", [([], None), (["--seed", "7"], 7)])
    def test_no_experiment_named_runs_them_all_in_order(self, monkeypatch, argv, seed):
        ran = []
        for name in ALL_EXPERIMENTS:
            monkeypatch.setitem(
                cli.DRIVERS,
                name,
                lambda args, name=name: (ran.append((name, args.seed)), (name, []))[1],
            )
        assert main(argv) == 0
        assert ran == [(name, seed) for name in ALL_EXPERIMENTS]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_experiment_registry_is_complete(self):
        assert ALL_EXPERIMENTS == ("table1", "figure5", "table2", "table3", "ablation")
