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
  (:class:`~repro.baselines.rewriters.SplitThenAggregateRewriter`, which
  also spells bag difference and distinct with splits where REWR runs one
  monus sweep).

A third comparison pits the interval-based evaluation against the
point-wise (per-snapshot) evaluation that defines the semantics, showing why
an interval encoding is needed at all once the time domain grows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from typing import Dict, List

from ..baselines import NaiveSnapshotEvaluator
from ..baselines.rewriters import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from ..datasets.employees import EmployeesConfig, generate_employees
from ..datasets.workloads import employee_queries
from ..rewriter.pipeline import QueryPipeline
from .report import fastest, format_seconds, format_table, prepared

__all__ = ["run_ablation", "ablation_differences", "format_ablation"]

#: The configurations that leave an optimisation out.
BASELINES = ("per-operator-coalesce", "no-preaggregation")
#: The one query the per-snapshot evaluation runs on: its cost grows with the
#: time domain, 0.95 s on agg-2 at scale 2 and about 100x that on agg-1.
PER_SNAPSHOT_QUERY = "agg-2"


def run_ablation(
    config: EmployeesConfig | None = None,
    seed: int | None = None,
) -> List[Dict[str, object]]:
    """Time each ablation configuration on the ten Employee queries.

    Times come from :func:`~.report.fastest`, the rewriters taking turns.
    ``*_matches`` compare rows as bags with the optimized rewriter's:
    results are the unique coalesced encoding (the harness certifies it), so
    bag equality is snapshot equivalence.  ``seed`` overrides the generator
    seed of the (given or default) config.
    """
    config = config or EmployeesConfig(scale=2.0)
    if seed is not None:
        config = replace(config, seed=seed)
    database = generate_employees(config)
    configurations = {
        "optimized": QueryPipeline(config.domain, database=database),
        "per-operator-coalesce": QueryPipeline(
            config.domain, database=database, rewriter_cls=PerOperatorCoalesceRewriter
        ),
        "no-preaggregation": QueryPipeline(
            config.domain, database=database, rewriter_cls=SplitThenAggregateRewriter
        ),
    }
    naive = NaiveSnapshotEvaluator(database, config.domain)

    rows: List[Dict[str, object]] = []
    for name, query in employee_queries().items():
        runs = {label: prepared(pipeline, query) for label, pipeline in configurations.items()}
        if name == PER_SNAPSHOT_QUERY:
            runs["per-snapshot"] = partial(naive.execute, query)
        best, tables = fastest(runs)
        expected = Counter(tables["optimized"].rows)
        rows.append(
            {
                "query": name,
                **best,
                **{
                    f"{label}_matches": Counter(tables[label].rows) == expected
                    for label in runs
                    if label != "optimized"
                },
            }
        )
    return rows


def ablation_differences(rows: List[Dict[str, object]]) -> List[str]:
    """The Section 9 shapes ``rows`` miss, and every baseline whose rows differ.

    Pre-aggregation fused with the split saves at least 3x on agg-1 and agg-3,
    the single final coalesce at least 1.2x over the ten queries, and the
    interval encoding beats point-wise evaluation.
    """
    by_query = {row["query"]: row for row in rows}
    agg_1, agg_3, naive = (by_query[name] for name in ("agg-1", "agg-3", PER_SNAPSHOT_QUERY))
    shapes = {
        "agg-1: no-preaggregation >= 3x optimized": agg_1["no-preaggregation"]
        >= 3 * agg_1["optimized"],
        "agg-3: no-preaggregation >= 3x optimized": agg_3["no-preaggregation"]
        >= 3 * agg_3["optimized"],
        "per-operator-coalesce >= 1.2x optimized over all queries": sum(
            row["per-operator-coalesce"] for row in rows
        )
        >= 1.2 * sum(row["optimized"] for row in rows),
        f"{PER_SNAPSHOT_QUERY}: optimized < per-snapshot": naive["optimized"]
        < naive["per-snapshot"],
    }
    return [shape for shape, holds in shapes.items() if not holds] + [
        f"{row['query']} {key}"
        for row in rows
        for key in row
        if key.endswith("_matches") and not row[key]
    ]


def format_ablation(rows: List[Dict[str, object]]) -> str:
    """The best times, then whether each baseline's rows match."""
    timed = ["optimized", *BASELINES, "per-snapshot"]
    matches = [f"{label}_matches" for label in timed[1:]]
    pretty = [
        {**row, **{label: format_seconds(row[label]) for label in timed if label in row}}
        for row in rows
    ]
    return format_table(
        ["query", *timed, *matches], pretty, title="Ablation of middleware optimisations"
    )
