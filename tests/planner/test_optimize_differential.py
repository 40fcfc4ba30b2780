"""Property test: the planner never changes results, on either backend.

For random snapshot queries over the running-example catalog, the REWR
rewriting produces plans containing every operator the planner handles --
coalesce / split / temporal aggregation included, plus joins carrying the
interval-overlap predicate.  Executing the optimized plan must return the
same bag (and the same schema) as the un-optimized plan, on the in-memory
engine and on the SQLite backend alike.
"""

from collections import Counter

from hypothesis import given, settings

from repro.backends import SQLiteBackend
from repro.datasets.running_example import load_running_example
from repro.engine import execute
from repro.planner import optimize

from tests.strategies import running_example_queries, without_interval_join


def _plans(query):
    pipeline = load_running_example()
    rewritten = pipeline.rewriter.rewrite(query)
    optimized = optimize(rewritten, pipeline.database)
    return pipeline, rewritten, optimized


@given(query=running_example_queries())
def test_optimized_plans_match_on_memory_backend(query):
    pipeline, rewritten, optimized = _plans(query)
    baseline = execute(rewritten, pipeline.database)
    result = execute(optimized, pipeline.database)
    assert result.schema == baseline.schema
    assert Counter(result.rows) == Counter(baseline.rows)


@settings(max_examples=30, deadline=None)
@given(query=running_example_queries())
def test_optimized_plans_match_on_sqlite_backend(query):
    pipeline, rewritten, optimized = _plans(query)
    baseline = execute(rewritten, pipeline.database)
    backend = SQLiteBackend()  # one-shot; optimizes internally by default
    result = backend.execute(optimized, pipeline.database)
    assert result.schema == baseline.schema
    assert Counter(result.rows) == Counter(baseline.rows)


def test_middleware_optimize_flag_respected_on_registry_backends():
    """``optimize=False`` must hold on the SQLite path too (the registry
    backend would otherwise re-run the planner and override the choice)."""
    from repro.datasets.running_example import query_onduty

    pipeline = load_running_example()
    pipeline.optimize = False
    statistics: dict = {}
    off = pipeline.execute(query_onduty(), statistics=statistics, backend="sqlite")
    assert not any(key.startswith("planner.") for key in statistics)

    pipeline.optimize = True
    statistics = {}
    on = pipeline.execute(query_onduty(), statistics=statistics, backend="sqlite")
    assert any(key.startswith("planner.") for key in statistics)
    assert Counter(on.rows) == Counter(off.rows)


@settings(max_examples=30, deadline=None)
@given(query=running_example_queries())
def test_interval_join_matches_fallback_strategies(query):
    """The sort-merge interval join is pinned to the nested-loop/hash result."""
    pipeline, rewritten, optimized = _plans(query)
    with_interval = execute(optimized, pipeline.database)
    without_interval = execute(without_interval_join(optimized), pipeline.database)
    assert Counter(with_interval.rows) == Counter(without_interval.rows)
