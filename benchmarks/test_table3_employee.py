"""Table 3 (top): Employee workload runtimes -- pipeline (Seq) vs. native (Nat).

One benchmark per (query, system) pair, plus shape assertions mirroring the
paper's findings: the rewriting pipeline is competitive on joins and
substantially faster on the aggregation-heavy queries (thanks to the fused
pre-aggregation + split), while native approaches additionally suffer from
the AG/BD bugs flagged in the rightmost column of the paper's table.
"""

import pytest

from repro.datasets.workloads import EMPLOYEE_WORKLOAD

@pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
def test_employee_seq(benchmark, employee_pipeline, query_name):
    query = EMPLOYEE_WORKLOAD[query_name]()
    benchmark.extra_info["system"] = "Seq (pipeline)"
    benchmark.pedantic(lambda: employee_pipeline.execute(query), rounds=1, iterations=1)


@pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
def test_employee_nat(benchmark, employee_native, query_name):
    query = EMPLOYEE_WORKLOAD[query_name]()
    benchmark.extra_info["system"] = "Nat (temporal alignment)"
    benchmark.pedantic(lambda: employee_native.execute(query), rounds=1, iterations=1)


def test_aggregation_queries_favour_pipeline(employee_pipeline, employee_native, fastest):
    """agg-1/agg-2 are faster through the pipeline (paper: orders of magnitude)."""
    totals = {"seq": 0.0, "nat": 0.0}
    for name in ("agg-1", "agg-2"):
        query = EMPLOYEE_WORKLOAD[name]()
        seq, nat = fastest(
            lambda: employee_pipeline.execute(query), lambda: employee_native.execute(query)
        )
        totals["seq"] += seq
        totals["nat"] += nat
    assert totals["seq"] < totals["nat"]


def test_join_queries_are_competitive(employee_pipeline, employee_native, fastest):
    """join-3/join-4 should be within a small factor of the native baseline."""
    seq_total = nat_total = 0.0
    for name in ("join-3", "join-4"):
        query = EMPLOYEE_WORKLOAD[name]()
        seq, nat = fastest(
            lambda: employee_pipeline.execute(query), lambda: employee_native.execute(query)
        )
        seq_total += seq
        nat_total += nat
    assert seq_total < nat_total * 5
