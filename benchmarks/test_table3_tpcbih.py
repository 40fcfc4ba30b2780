"""Table 3 (bottom): TPC-BiH snapshot-query runtimes -- Seq vs. Nat.

All nine TPC-H queries evaluated under snapshot semantics involve
aggregation, which is why the paper reports the pipeline 1-3 orders of
magnitude ahead of PG-Nat on this workload.  The benchmarks time both
systems per query; the shape assertion checks that the pipeline wins on
average across the workload.
"""

import pytest

from repro.datasets.workloads import TPCH_WORKLOAD


@pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
def test_tpch_seq(benchmark, tpch_pipeline, query_name):
    query = TPCH_WORKLOAD[query_name]()
    benchmark.extra_info["system"] = "Seq (pipeline)"
    benchmark.pedantic(lambda: tpch_pipeline.execute(query), rounds=1, iterations=1)


@pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
def test_tpch_nat(benchmark, tpch_native, query_name):
    query = TPCH_WORKLOAD[query_name]()
    benchmark.extra_info["system"] = "Nat (temporal alignment)"
    benchmark.pedantic(lambda: tpch_native.execute(query), rounds=1, iterations=1)


def test_pipeline_wins_on_average(tpch_pipeline, tpch_native, fastest):
    seq_total = nat_total = 0.0
    for factory in TPCH_WORKLOAD.values():
        query = factory()
        seq, nat = fastest(
            lambda: tpch_pipeline.execute(query), lambda: tpch_native.execute(query)
        )
        seq_total += seq
        nat_total += nat
    assert seq_total < nat_total


def test_scaling_is_roughly_linear(fastest):
    """Runtime grows roughly with the data (paper: linear from SF1 to SF10)."""
    from repro.datasets import TPCBiHConfig, generate_tpcbih
    from repro.rewriter import QueryPipeline

    timings = []
    for scale in (0.05, 0.2):
        config = TPCBiHConfig(scale_factor=scale)
        pipeline = QueryPipeline(config.domain, database=generate_tpcbih(config))
        query = TPCH_WORKLOAD["Q1"]()
        timings += fastest(lambda: pipeline.execute(query))
    assert timings[1] < timings[0] * 40  # 4x data, well under 40x time
