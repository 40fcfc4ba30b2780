"""Table 2: number of query result rows for both workloads.

Benchmarks every workload query through the pipeline and records the
result cardinality as benchmark metadata; assertions check the relative
pattern the paper's Table 2 exhibits (joins dominate, grouped aggregation is
mid-sized, selective queries return few rows).
"""

import pytest

from repro.datasets.workloads import EMPLOYEE_WORKLOAD, TPCH_WORKLOAD


@pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
def test_employee_result_rows(benchmark, employee_pipeline, query_name):
    query = EMPLOYEE_WORKLOAD[query_name]()
    result = benchmark.pedantic(
        lambda: employee_pipeline.execute(query), rounds=1, iterations=1
    )
    benchmark.extra_info["result_rows"] = len(result)
    assert len(result) >= 0


@pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
def test_tpch_result_rows(benchmark, tpch_pipeline, query_name):
    query = TPCH_WORKLOAD[query_name]()
    result = benchmark.pedantic(
        lambda: tpch_pipeline.execute(query), rounds=1, iterations=1
    )
    benchmark.extra_info["result_rows"] = len(result)
    assert len(result) >= 0


def test_cardinality_pattern_matches_paper(employee_pipeline):
    counts = {
        name: len(employee_pipeline.execute(factory()))
        for name, factory in EMPLOYEE_WORKLOAD.items()
    }
    # join-1 and join-2 are the largest results; join-3/join-4 and the
    # ungrouped aggregations are small -- same ordering as the paper's Table 2.
    assert counts["join-1"] > counts["join-4"]
    assert counts["join-2"] > counts["join-3"]
    assert counts["agg-1"] > counts["agg-3"]
    assert counts["diff-2"] > counts["diff-1"] > 0
