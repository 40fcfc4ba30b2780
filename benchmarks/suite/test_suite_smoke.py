"""Smoke test of the benchmark suite: every workload at toy scale, in seconds.

Collected by tier-1.  It pins the contract between ``run.py`` and
``BENCHMARK.json`` (same workload names, same metric names, every metric
with its unit) and that a wrong result cannot pass silently.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as suite  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = suite.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def check_record(record, declared):
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        emitted = record["metrics"][entry["name"]]
        assert NAME.match(entry["name"]), entry["name"]
        assert emitted["unit"] == entry["unit"] and emitted["unit"]
        assert isinstance(emitted["value"], (int, float)) and emitted["n"] >= 1
    contract = json.loads(suite.contract_line(record))
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}


def test_declared_workloads_are_the_registered_ones():
    assert WORKLOADS == list(workloads.registry())
    assert all(NAME.match(name) for name in WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_end_to_end_metrics(name):
    record = suite.run_one(SPEC, name, seed=5, seconds=0.05, trace=False, toy=True)
    check_record(record, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    record = suite.run_one(
        SPEC, "view_churn", seed=5, seconds=0.05, trace=True, toy=True, out=str(tmp_path)
    )
    check_record(record, SPEC["per_layer"])
    trace = json.loads((tmp_path / "trace-view_churn.json").read_text())
    assert trace["fields"] == ["name", "start", "end", "parent", "op_id"] and trace["spans"]


def test_corrupted_result_trips_failed_ratio(monkeypatch):
    honest = workloads.digest
    # The reference loses a row: every engine now disagrees with it, and the
    # timed loop sees results of the "wrong" size.
    monkeypatch.setattr(workloads, "digest", lambda rows: honest(list(rows)[1:]))
    record = suite.run_one(SPEC, "view_churn", seed=5, seconds=0.05, trace=False, toy=True)
    assert not record["correct"]
    assert record["failed"] > 0 and record["failed_ratio"] > 0
    assert record["failures"]
