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

import time
from dataclasses import replace
from typing import Dict, List

from ..baselines import NaiveSnapshotEvaluator
from ..baselines.rewriters import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from ..datasets.employees import EmployeesConfig, generate_employees
from ..datasets.workloads import employee_queries
from ..rewriter.pipeline import QueryPipeline
from .report import format_seconds, format_table

__all__ = ["run_ablation", "format_ablation"]

#: The queries used for the ablation (one join-heavy, two aggregation, one difference).
ABLATION_QUERIES = ("join-1", "agg-1", "agg-2", "diff-2")


def run_ablation(
    config: EmployeesConfig | None = None,
    include_naive: bool = False,
    seed: int | None = None,
) -> List[Dict[str, object]]:
    """Time each ablation configuration on a subset of the Employee workload.

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
        baseline_result = None
        for label, pipeline in configurations.items():
            started = time.perf_counter()
            result = pipeline.execute_decoded(query)
            row[label] = time.perf_counter() - started
            if baseline_result is None:
                baseline_result = result
            else:
                row[f"{label}_matches"] = result == baseline_result
        if include_naive:
            naive = NaiveSnapshotEvaluator(database, config.domain)
            started = time.perf_counter()
            naive_result = naive.execute_decoded(query)
            row["per-snapshot"] = time.perf_counter() - started
            row["per-snapshot_matches"] = naive_result == baseline_result
        rows.append(row)
    return rows


def format_ablation(rows: List[Dict[str, object]]) -> str:
    headers = ["query", "optimized", "per-operator-coalesce", "no-preaggregation"]
    if rows and "per-snapshot" in rows[0]:
        headers.append("per-snapshot")
    pretty = [
        {
            **row,
            **{
                h: format_seconds(row[h])
                for h in headers[1:]
                if isinstance(row.get(h), float)
            },
        }
        for row in rows
    ]
    return format_table(headers, pretty, title="Ablation of middleware optimisations")
