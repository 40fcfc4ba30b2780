"""Figure 5: multiset coalescing runtime for varying input size.

The paper reports coalescing runtimes that grow linearly with input size
(1k - 3M rows on PostgreSQL/DBX/DBY).  Here the same isolated workload --
``SELECT *`` under snapshot semantics over a materialised selection result,
i.e. one coalesce over a scan -- is benchmarked at several input sizes, and
a non-benchmark assertion checks that the growth is close to linear.
"""

import pytest

from repro.algebra import Projection, RelationAccess
from repro.experiments.figure5 import build_salary_table, run_figure5
from repro.rewriter import QueryPipeline
from repro.temporal import TimeDomain

SIZES = (1_000, 5_000, 20_000)
DOMAIN = TimeDomain(0, 120)


@pytest.mark.parametrize("size", SIZES)
def test_figure5_coalescing_runtime(benchmark, size):
    database = build_salary_table(size, DOMAIN)
    pipeline = QueryPipeline(DOMAIN, database=database)
    query = Projection.of_attributes(
        RelationAccess("materialized_salaries"), "ms_emp_no", "ms_salary"
    )
    result = benchmark.pedantic(
        lambda: pipeline.execute(query), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["input_rows"] = size
    benchmark.extra_info["output_rows"] = len(result)
    assert len(result) > 0


def test_figure5_growth_is_roughly_linear():
    """Scaling the input 10x should scale the runtime by well under ~30x."""
    results = run_figure5(sizes=(1_000, 10_000), months=120, repetitions=3)
    ratio = results[1]["seconds"] / max(results[0]["seconds"], 1e-9)
    assert ratio < 30, f"coalescing scaled super-linearly: {ratio:.1f}x for 10x input"
