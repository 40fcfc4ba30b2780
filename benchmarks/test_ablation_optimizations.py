"""Ablation benchmarks for the paper's Section 9 optimisations.

* single final coalesce vs. coalescing after every operator
  (``repro.baselines.PerOperatorCoalesceRewriter``),
* fused pre-aggregation + split vs. naive split-then-aggregate
  (``repro.baselines.SplitThenAggregateRewriter``),
* interval-based evaluation vs. the per-snapshot (point-wise) oracle.
"""

import pytest

from repro.baselines import (
    NaiveSnapshotEvaluator,
    PerOperatorCoalesceRewriter,
    SplitThenAggregateRewriter,
)
from repro.datasets.workloads import EMPLOYEE_WORKLOAD
from repro.rewriter import QueryPipeline

ABLATION_QUERIES = ("agg-1", "agg-2", "diff-2")


def _pipeline(employee_config, employee_database, **kwargs):
    return QueryPipeline(employee_config.domain, database=employee_database, **kwargs)


@pytest.mark.parametrize("query_name", ABLATION_QUERIES)
def test_optimized(benchmark, employee_config, employee_database, query_name):
    pipeline = _pipeline(employee_config, employee_database)
    query = EMPLOYEE_WORKLOAD[query_name]()
    benchmark.extra_info["configuration"] = "optimized"
    benchmark.pedantic(lambda: pipeline.execute(query), rounds=1, iterations=1)


@pytest.mark.parametrize("query_name", ABLATION_QUERIES)
def test_per_operator_coalesce(benchmark, employee_config, employee_database, query_name):
    pipeline = _pipeline(
        employee_config, employee_database, rewriter_cls=PerOperatorCoalesceRewriter
    )
    query = EMPLOYEE_WORKLOAD[query_name]()
    benchmark.extra_info["configuration"] = "per-operator coalesce"
    benchmark.pedantic(lambda: pipeline.execute(query), rounds=1, iterations=1)


@pytest.mark.parametrize("query_name", ABLATION_QUERIES)
def test_no_preaggregation(benchmark, employee_config, employee_database, query_name):
    pipeline = _pipeline(
        employee_config, employee_database, rewriter_cls=SplitThenAggregateRewriter
    )
    query = EMPLOYEE_WORKLOAD[query_name]()
    benchmark.extra_info["configuration"] = "no pre-aggregation"
    benchmark.pedantic(lambda: pipeline.execute(query), rounds=1, iterations=1)


def test_single_final_coalesce_is_not_slower(employee_config, employee_database, fastest):
    """The optimised plan should beat per-operator coalescing on the ablation set."""
    optimized = _pipeline(employee_config, employee_database)
    unoptimized = _pipeline(
        employee_config, employee_database, rewriter_cls=PerOperatorCoalesceRewriter
    )
    optimized_total = unoptimized_total = 0.0
    for name in ABLATION_QUERIES:
        query = EMPLOYEE_WORKLOAD[name]()
        optimized_seconds, unoptimized_seconds = fastest(
            lambda: optimized.execute(query), lambda: unoptimized.execute(query)
        )
        optimized_total += optimized_seconds
        unoptimized_total += unoptimized_seconds
    assert optimized_total <= unoptimized_total * 1.2


def test_interval_encoding_beats_per_snapshot_evaluation(
    employee_config, employee_database, fastest
):
    """The point-wise oracle pays O(|T|); the pipeline should be clearly faster."""
    pipeline = _pipeline(employee_config, employee_database)
    naive = NaiveSnapshotEvaluator(employee_database, employee_config.domain)
    query = EMPLOYEE_WORKLOAD["agg-2"]()
    pipeline_seconds, naive_seconds = fastest(
        lambda: pipeline.execute(query), lambda: naive.execute(query)
    )
    assert pipeline_seconds < naive_seconds
