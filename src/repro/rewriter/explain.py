"""``explain``: one query's trip through a :class:`QueryPipeline`, rendered.

The in-process implementation of the session surface's ``explain`` verb
(:mod:`repro.server.verbs`), so ``relation.explain()`` prints the same text
in process, over ``repro://`` and on the server itself.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..algebra.operators import Operator
from ..execution import backend_name
from .pipeline import QueryPipeline

__all__ = ["explain_query"]


def explain_query(pipeline: QueryPipeline, plan: Operator) -> str:
    """Logical ``plan`` -> REWR -> planner -> execution; see ``TemporalRelation.explain``.

    The query *is executed once* (on the pipeline's backend) to observe the
    executor's counters and per-node row counts.
    """
    sections = ["logical plan:", _indent(plan.explain_tree())]

    # The stages of the very rewrite execution caches (bypassing the cache
    # so both stages are visible).
    planner_statistics: Dict[str, int] = {}
    stages = pipeline.rewrite_stages(plan, planner_statistics)
    sections += ["", "REWR plan:", _indent(stages[0].explain_tree())]
    if len(stages) > 1:
        sections += [
            "",
            "optimized plan (planner on):",
            _indent(stages[-1].explain_tree()),
        ]
        sections += ["", "planner rules fired:"]
        sections += _counters(planner_statistics, "planner.") or ["  (none)"]
    else:
        sections += ["", "planner: off"]

    # One observed execution for the executor's strategy counters and the
    # per-node row counts (this goes through the cache, warming it as a
    # side effect).  Rewriting first keeps one plan object whose node
    # identities line up with the recorded observations.
    execution_statistics: Dict[str, int] = {}
    observations: Dict[int, Dict[str, Any]] = {}
    executed = pipeline.rewrite(plan, execution_statistics)
    pipeline.execute_rewritten(
        executed, execution_statistics, observations=observations
    )
    sections += ["", f"execution (backend={backend_name(pipeline.backend)!r}):"]
    # A host DBMS runs the plan wholesale; it reports its own plan
    # (SQLiteBackend.explain: statement size + EXPLAIN QUERY PLAN)
    # where the engine reports its join-strategy counters.
    host_lines = pipeline.explain_host(executed)
    if host_lines is not None:
        sections += [f"  {line}" for line in host_lines]
    else:
        sections += _counters(execution_statistics, "join_strategy.") or ["  (no joins)"]
        # The engine's partitioned-join counters (partitions, pool fan-out).
        sections += _counters(execution_statistics, "batch.")
    if observations:
        # Observed cardinalities per node; joins additionally show the
        # physical strategy the executor chose.  SQL backends run the plan
        # wholesale and record nothing, so the section only appears for
        # the in-memory engine.
        annotations: Dict[int, str] = {}
        for node_id, observed in observations.items():
            parts = []
            strategy = observed.get("join_strategy")
            if strategy is not None:
                parts.append(f"strategy={strategy}")
            actual = observed.get("actual_rows")
            if actual is not None:
                parts.append(f"actual_rows={int(actual)}")
            if parts:
                annotations[node_id] = "[" + " ".join(parts) + "]"
        sections += [
            "",
            "executed plan:",
            _indent(executed.explain_tree(annotations)),
        ]
    if pipeline.caching:
        if execution_statistics.get("plan_cache.hits"):
            cache_line = "hit (REWR + planner skipped)"
        else:
            cache_line = "miss (plan now cached)"
        sections += ["", f"plan cache: {cache_line}"]
    return "\n".join(sections)


def _counters(statistics: Dict[str, int], prefix: str) -> List[str]:
    """The counters of one family, one ``key = value`` line each."""
    return [
        f"  {key} = {value}"
        for key, value in sorted(statistics.items())
        if key.startswith(prefix)
    ]


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
