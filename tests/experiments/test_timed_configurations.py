"""What each configuration the experiment drivers time computes, query by query.

Table 3 and the ablation report only times, and Table 3 throws its results
away. These tests check the rows instead, for every paper query:

* REWR's result is the unique coalesced encoding;
* the per-snapshot oracle (the ablation's fourth column) returns REWR's rows
  on the Employee queries;
* the ablation rewriters return REWR's rows;
* Table 3's Seq-SQL column returns Seq's rows. It runs the rewritten plan
  on SQLite through an unoptimizing backend, on the path
  :func:`~repro.experiments.report.prepared` times.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, Tuple

import pytest

from repro.backends import SQLiteBackend
from repro.baselines import (
    NaiveSnapshotEvaluator,
    PerOperatorCoalesceRewriter,
    SplitThenAggregateRewriter,
)
from repro.conformance.oracle import normal_form_violation
from repro.datasets import EmployeesConfig, TPCBiHConfig, generate_employees, generate_tpcbih
from repro.datasets.workloads import EMPLOYEE_WORKLOAD, TPCH_WORKLOAD
from repro.engine import Database
from repro.experiments.report import prepared
from repro.rewriter import QueryPipeline, SnapshotRewriter

EMPLOYEES = EmployeesConfig(scale=0.05)
TPCH = TPCBiHConfig(scale_factor=0.1)

EMPLOYEE_QUERIES = [("employee", name) for name in EMPLOYEE_WORKLOAD]
TPCH_QUERIES = [("tpcbih", name) for name in TPCH_WORKLOAD]


@lru_cache(maxsize=None)
def dataset(workload: str) -> Tuple[Database, object, Dict[str, object]]:
    """``workload`` -> (catalog, time domain, query name -> plan factory)."""
    if workload == "employee":
        return generate_employees(EMPLOYEES), EMPLOYEES.domain, EMPLOYEE_WORKLOAD
    return generate_tpcbih(TPCH), TPCH.domain, TPCH_WORKLOAD


def run(workload: str, query_name: str, rewriter_cls=SnapshotRewriter):
    database, domain, queries = dataset(workload)
    pipeline = QueryPipeline(domain, database=database, rewriter_cls=rewriter_cls)
    return pipeline.execute(queries[query_name]())


@pytest.mark.parametrize("workload, query_name", EMPLOYEE_QUERIES + TPCH_QUERIES)
def test_result_is_the_coalesced_encoding(workload, query_name):
    assert normal_form_violation(run(workload, query_name)) is None


@pytest.mark.parametrize("workload, query_name", EMPLOYEE_QUERIES)
def test_per_snapshot_evaluation_returns_the_same_rows(workload, query_name):
    database, domain, queries = dataset(workload)
    naive = NaiveSnapshotEvaluator(database, domain).execute(queries[query_name]())
    assert Counter(naive.rows) == Counter(run(workload, query_name).rows)


# Split-then-aggregate runs on the ablation's queries only: on TPC-BiH its
# float sums differ from REWR's in the last bits (the running-sum drift of
# ROADMAP item 6), and the ablation leaves TPC-BiH out for that reason.
@pytest.mark.parametrize(
    "rewriter_cls, workload, query_name",
    [(PerOperatorCoalesceRewriter, *case) for case in EMPLOYEE_QUERIES + TPCH_QUERIES]
    + [(SplitThenAggregateRewriter, *case) for case in EMPLOYEE_QUERIES],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_ablation_rewriter_returns_rewrs_rows(rewriter_cls, workload, query_name):
    ablated = run(workload, query_name, rewriter_cls)
    optimized = run(workload, query_name)
    assert ablated.schema == optimized.schema
    assert Counter(ablated.rows) == Counter(optimized.rows)


def rounded(table, float_digits: int = 6) -> Counter:
    """Multiset of rows with floats rounded: SQLite sums in its own order."""
    return Counter(
        tuple(round(v, float_digits) if isinstance(v, float) else v for v in row)
        for row in table.rows
    )


@pytest.mark.parametrize("workload, query_name", EMPLOYEE_QUERIES + TPCH_QUERIES)
def test_seq_sql_column_returns_seqs_rows(workload, query_name):
    database, domain, queries = dataset(workload)
    backend = SQLiteBackend.for_database(database, optimize=False)
    try:
        pipeline = QueryPipeline(domain, database, backend=backend)
        on_sqlite = prepared(pipeline, queries[query_name]())()
    finally:
        backend.close()
    on_engine = run(workload, query_name)
    assert on_sqlite.schema == on_engine.schema
    assert rounded(on_sqlite) == rounded(on_engine)
