"""``benchmarks/ab.py`` reads ``compare.py``'s verdicts back from its printed table.

The A/B tool does not recompute the verdicts: it runs
``benchmarks/suite/compare.py`` on the two record files it wrote and parses
each printed row (``ab.VERDICT``).  Two synthetic record files -- one metric
within its bound, one regressed, one too spread to tell, and the failed
share -- must come back as compare.py's own exit code and one verdict per
row it printed.  A metric B's records lack is printed as ``missing from B``
and counted as regressed, so it reads back as ``REGRESSED``, in ab.py's own
table too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "employee_memory"


@pytest.fixture
def ab(monkeypatch):
    """``benchmarks/ab.py`` as a module; the suite directory it puts on ``sys.path`` is undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(path: Path, metrics, failed: float) -> str:
    """A record file as ab.py writes it: one untraced record per run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = len(next(iter(metrics.values())))
    records = [
        {
            "workload": WORKLOAD,
            "trace": False,
            "failed_ratio": failed,
            "metrics": {name: {"value": values[run]} for name, values in metrics.items()},
            "detail": {},
        }
        for run in range(runs)
    ]
    path.write_text(json.dumps({"benchmark": spec, "records": records}), encoding="utf-8")
    return str(path)


def test_verdicts_are_compare_exit_code_and_every_printed_row(ab, tmp_path):
    a = _records(
        tmp_path / "a.json",
        {
            "op_ms": [10.0, 10.1, 10.2, 10.0],
            "class_a_ms": [5.0, 5.1, 5.0, 5.1],
            "class_b_ms": [2.0, 9.0, 4.0, 6.0],
        },
        failed=0.0,
    )
    b = _records(
        tmp_path / "b.json",
        {
            "op_ms": [10.4, 10.5, 10.3, 10.6],  # 4 % worse, bound 25 %
            "class_a_ms": [8.0, 8.1, 8.0, 8.2],  # 59 % worse
            "class_b_ms": [4.0, 4.1, 4.0, 4.1],  # A's quartiles span more than the bound
        },
        failed=0.0,
    )
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        expected_code = ab.compare.compare(a, b)
    rows = printed.getvalue().splitlines()[1:]  # below the header

    code, found = ab.verdicts(a, b)

    assert code == expected_code == 1
    assert found == {
        (WORKLOAD, "op_ms"): "within bound",
        (WORKLOAD, "class_a_ms"): "REGRESSED",
        (WORKLOAD, "class_b_ms"): "unresolved",
        (WORKLOAD, "failed_ratio"): "within bound",
    }
    assert len(rows) == len(found)
    assert {tuple(line.split()[:2]) for line in rows} == set(found)


def test_a_higher_failed_share_regresses_and_is_read_back(ab, tmp_path):
    metrics = {"op_ms": [10.0, 10.1, 10.0, 10.1]}
    a = _records(tmp_path / "a.json", metrics, failed=0.0)
    b = _records(tmp_path / "b.json", metrics, failed=0.25)

    code, found = ab.verdicts(a, b)

    assert code == 1
    assert found == {
        (WORKLOAD, "op_ms"): "within bound",
        (WORKLOAD, "failed_ratio"): "REGRESSED",
    }


def test_a_metric_missing_from_b_regresses_and_is_read_back(ab, tmp_path):
    a = _records(
        tmp_path / "a.json",
        {"op_ms": [10.0, 10.1, 10.0, 10.1], "class_a_ms": [5.0, 5.1, 5.0, 5.1]},
        failed=0.0,
    )
    b = _records(tmp_path / "b.json", {"op_ms": [10.0, 10.1, 10.0, 10.1]}, failed=0.0)

    code, found = ab.verdicts(a, b)

    assert code == 1
    assert found == {
        (WORKLOAD, "op_ms"): "within bound",
        (WORKLOAD, "class_a_ms"): "REGRESSED",
        (WORKLOAD, "failed_ratio"): "within bound",
    }


def test_the_ab_table_prints_regressed_for_a_metric_missing_from_b(ab, monkeypatch, capsys):
    def run_once(tree, workload, seed):
        metrics = {"op_ms": {"value": 10.0}}
        if tree == "a":
            metrics["class_a_ms"] = {"value": 5.0}
        return {"workload": workload, "trace": False, "failed_ratio": 0.0,
                "metrics": metrics, "detail": {}}

    monkeypatch.setattr(ab, "export", lambda tree, into: tree)
    monkeypatch.setattr(ab, "run_once", run_once)

    code = ab.main(["--a", "a", "--b", "b", "--pairs", "2", "--workload", WORKLOAD])

    assert code == 1
    table = capsys.readouterr().out.split("B wins", 1)[1].splitlines()
    row = next(line for line in table if line.split()[:2] == [WORKLOAD, "class_a_ms"])
    assert "runs differ" in row and row.endswith("REGRESSED")
