"""The native baselines' results, pinned row for row.

``native_golden.json`` holds, for every paper query (the running example's
two, the ten Employee queries at scale 0.1, the nine TPC-BiH queries at scale
factor 0.2, and Table 1's uniqueness query on both encodings of ``works``),
the row count and a sha256 of the sorted row bag that the interval
preservation and temporal alignment baselines return.  It was generated with
the row-at-a-time evaluators those baselines were before they became REWR
variants, so :class:`IntervalPreservationRewriter` and
:class:`TemporalAlignmentRewriter` are checked to return exactly what the old
evaluators returned, not merely snapshot-equal results.

Regenerate it (after an *intended* change of a baseline only) with
``PYTHONPATH=src python -m tests.baselines.test_native_golden``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Tuple

import pytest

from repro.algebra import Comparison, Projection, RelationAccess, Selection, attr, lit
from repro.baselines import IntervalPreservationRewriter, TemporalAlignmentRewriter
from repro.datasets import EmployeesConfig, TPCBiHConfig, generate_employees, generate_tpcbih
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.datasets.workloads import EMPLOYEE_WORKLOAD, TPCH_WORKLOAD
from repro.engine import Database
from repro.experiments.table1 import _fresh_database
from repro.rewriter import QueryPipeline

GOLDEN = Path(__file__).with_name("native_golden.json")

SYSTEMS = {
    "interval_preservation": IntervalPreservationRewriter,
    "temporal_alignment": TemporalAlignmentRewriter,
}


def uniqueness_query():
    """Table 1's probe of the encoding: works' SP rows, projected."""
    return Projection.of_attributes(
        Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
        "name",
        "skill",
    )


@lru_cache(maxsize=None)
def dataset(name: str) -> Tuple[Database, object, Dict[str, object]]:
    """``name`` -> (catalog, time domain, query name -> plan factory)."""
    if name == "running_example":
        queries = {"onduty": query_onduty, "skillreq": query_skillreq}
        return populate_database(Database()), TIME_DOMAIN, queries
    if name in ("works", "works_split"):
        database = _fresh_database(split_ann=name == "works_split")
        return database, TIME_DOMAIN, {"uniqueness": uniqueness_query}
    if name == "employee_0.1":
        employees = EmployeesConfig(scale=0.1)
        return generate_employees(employees), employees.domain, EMPLOYEE_WORKLOAD
    tpcbih = TPCBiHConfig(scale_factor=0.2)
    return generate_tpcbih(tpcbih), tpcbih.domain, TPCH_WORKLOAD


DATASETS = ("running_example", "works", "works_split", "employee_0.1", "tpcbih_0.2")


def digest(rows: Iterable[tuple]) -> Dict[str, object]:
    """Row count and sha256 of the sorted row bag; ``1.0`` and ``1`` read alike."""

    def canonical(value: object) -> str:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return repr(value)

    lines = sorted("(" + ", ".join(map(canonical, row)) + ")" for row in rows)
    return {
        "rows": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def run(system: str, dataset_name: str, query: str) -> Dict[str, object]:
    database, domain, queries = dataset(dataset_name)
    pipeline = QueryPipeline(domain, database, rewriter_cls=SYSTEMS[system])
    return digest(pipeline.execute(queries[query]()).rows)


def _keys():
    return sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("key", _keys())
def test_the_baseline_returns_the_golden_rows(key):
    system, dataset_name, query = key.split("/")
    assert run(system, dataset_name, query) == json.loads(GOLDEN.read_text())[key]


def test_the_golden_covers_every_paper_query_for_both_baselines():
    expected = {
        f"{system}/{name}/{query}"
        for system in SYSTEMS
        for name in DATASETS
        for query in dataset(name)[2]
    }
    assert set(_keys()) == expected


if __name__ == "__main__":
    golden = {
        f"{system}/{name}/{query}": run(system, name, query)
        for system in SYSTEMS
        for name in DATASETS
        for query in dataset(name)[2]
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True))
