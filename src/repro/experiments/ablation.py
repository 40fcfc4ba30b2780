"""Ablation of the middleware's optimisations (paper Section 9).

Two optimisations distinguish the middleware from a naive transcription of
the rewrite rules (paper Section 9); each is ablated by running the
rewriter of :mod:`repro.baselines.rewriters` that leaves it out:

* **single final coalesce** (Lemma 6.1 and its monus extension) -- coalesce
  once at the top of the rewritten plan instead of after every operator
  (:class:`~repro.baselines.rewriters.PerOperatorCoalesceRewriter`);
* **pre-aggregation fused with the split step** -- evaluate snapshot
  aggregation with one sweep over pre-aggregated events instead of
  materialising the split input and aggregating it
  (:class:`~repro.baselines.rewriters.SplitThenAggregateRewriter`).

A third comparison pits the interval-based evaluation against the
point-wise (per-snapshot) evaluation that defines the semantics, showing why
an interval encoding is needed at all once the time domain grows.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace
from typing import Dict, List

from ..baselines import NaiveSnapshotEvaluator
from ..baselines.rewriters import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from ..datasets.employees import EmployeesConfig, generate_employees
from ..datasets.workloads import employee_queries
from ..rewriter.pipeline import QueryPipeline
from .report import format_table

__all__ = ["run_ablation", "format_ablation"]

#: The queries used for the ablation (one join-heavy, two aggregation, one difference).
ABLATION_QUERIES = ("join-1", "agg-1", "agg-2", "diff-2")
#: The configurations that leave an optimisation out.
BASELINES = ("per-operator-coalesce", "no-preaggregation")
#: Timed runs per configuration and query; the fastest is reported.
REPEATS = 5


def run_ablation(
    config: EmployeesConfig | None = None,
    include_naive: bool = False,
    seed: int | None = None,
) -> List[Dict[str, object]]:
    """Time each ablation configuration on a subset of the Employee workload.

    Times are the best of :data:`REPEATS` warm ``execute`` calls, the
    rewriters taking turns.  ``*_matches`` compare rows as bags with the
    optimized rewriter's: results are the unique coalesced encoding (the
    harness certifies it), so bag equality is snapshot equivalence.
    ``seed`` overrides the generator seed of the (given or default) config.
    """
    config = config or EmployeesConfig(scale=0.1)
    if seed is not None:
        config = replace(config, seed=seed)
    database = generate_employees(config)
    queries = {
        name: query
        for name, query in employee_queries().items()
        if name in ABLATION_QUERIES
    }

    configurations = {
        "optimized": QueryPipeline(config.domain, database=database),
        "per-operator-coalesce": QueryPipeline(
            config.domain, database=database, rewriter_cls=PerOperatorCoalesceRewriter
        ),
        "no-preaggregation": QueryPipeline(
            config.domain, database=database, rewriter_cls=SplitThenAggregateRewriter
        ),
    }

    rows: List[Dict[str, object]] = []
    for name, query in queries.items():
        row: Dict[str, object] = {"query": name}
        results = {
            label: Counter(pipeline.execute(query).rows)
            for label, pipeline in configurations.items()
        }
        best = dict.fromkeys(configurations, math.inf)
        for _ in range(REPEATS):
            for label, pipeline in configurations.items():
                started = time.perf_counter()
                pipeline.execute(query)
                best[label] = min(best[label], time.perf_counter() - started)
        row.update(best)
        for label in BASELINES:
            row[f"{label}_matches"] = results[label] == results["optimized"]
        if include_naive:
            naive = NaiveSnapshotEvaluator(database, config.domain)
            started = time.perf_counter()
            naive_rows = naive.execute(query).rows
            row["per-snapshot"] = time.perf_counter() - started
            row["per-snapshot_matches"] = Counter(naive_rows) == results["optimized"]
        rows.append(row)
    return rows


def format_ablation(rows: List[Dict[str, object]]) -> str:
    """The best times in milliseconds, then whether each baseline's rows match."""
    timed = ["optimized", *BASELINES]
    if rows and "per-snapshot" in rows[0]:
        timed.append("per-snapshot")
    matches = [f"{label}_matches" for label in timed[1:]]
    pretty = [
        {**row, **{label: f"{row[label] * 1000:.2f}ms" for label in timed}}
        for row in rows
    ]
    return format_table(
        ["query", *timed, *matches], pretty, title="Ablation of middleware optimisations"
    )
