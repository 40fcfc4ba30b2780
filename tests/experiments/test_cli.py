"""Tests for the ``python -m repro.experiments`` command-line entry point."""

import pytest

from repro.experiments.__main__ import ALL_EXPERIMENTS, main


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

    def test_ablation_runs_the_baseline_rewriters(self, capsys):
        assert main(["ablation", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "Ablation" in output
        assert "per-operator-coalesce" in output and "no-preaggregation" in output
        for query in ("join-1", "agg-1", "agg-2", "diff-2"):
            assert query in output

    def test_ablation_fails_when_a_baseline_differs(self, capsys, monkeypatch):
        import repro.experiments.__main__ as cli

        row = {
            "query": "agg-1",
            "optimized": 0.001,
            "per-operator-coalesce": 0.002,
            "no-preaggregation": 0.003,
            "per-operator-coalesce_matches": True,
            "no-preaggregation_matches": False,
        }
        monkeypatch.setattr(cli, "run_ablation", lambda seed=None: [row])
        assert main(["ablation"]) == 1
        assert "agg-1 no-preaggregation_matches" in capsys.readouterr().err

    def test_table1_fails_when_the_matrix_differs_from_the_papers(self, capsys, monkeypatch):
        import repro.experiments.__main__ as cli

        probed = cli.run_table1()
        alignment = next(row for row in probed if row["approach"] == "temporal-alignment")
        alignment["bd_bug_free"] = True  # as if the set difference were a bag difference
        monkeypatch.setattr(cli, "run_table1", lambda: probed)
        assert main(["table1"]) == 1
        assert "temporal-alignment bd_bug_free" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_experiment_registry_is_complete(self):
        assert set(ALL_EXPERIMENTS) == {"table1", "figure5", "table2", "table3", "ablation"}
