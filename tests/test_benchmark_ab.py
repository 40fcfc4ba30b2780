"""``benchmarks/ab.py`` reads ``compare.py``'s verdicts back from its printed table.

The A/B tool does not recompute the verdicts: it runs
``benchmarks/suite/compare.py`` on the two record files it wrote and parses
each printed row (``ab.VERDICT``).  Two synthetic record files -- one metric
within its bound, one regressed, one too spread to tell, and the failed
share -- must come back as compare.py's own exit code and one verdict per
row it printed.
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
