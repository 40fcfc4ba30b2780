"""The row reference is the batch executor's differential oracle.

The columnar batch executor (:mod:`repro.engine.batch`) must be
bag-equivalent with the row reference on *every* plan the pipeline can
produce: the hypothesis suite here drives randomized generator catalogs
(adversarial shapes included -- NULL data, NULL end points, duplicates,
degenerate intervals) through the deep conformance plan grammar, rewrites
each query once, and executes the same physical plan on both executors with
the planner on and off.  Separate cases pin which route the interval join
took (kernel or scalar partitions), the counters the ``explain()`` surface
reports for it, and that below the cutover both executors run the one
scalar definition of each algorithm in :mod:`repro.engine.sweeps` -- so what
this differential checks is the kernels and the plan plumbing
(``tests/conformance/test_sweep_mutants.py`` checks the sweeps).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import given, settings

from repro.algebra.expressions import Comparison, and_, attr
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Join,
    Projection,
    RelationAccess,
    Rename,
)
from repro.datasets import GeneratorConfig, generate_catalog, generate_table
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.engine import sweeps
from repro.engine.catalog import Database
from repro import connect
from repro.engine.executor import execute
from repro.engine.kernels import KERNEL_CUTOVER
from repro.rewriter.operators import SplitOperator
from repro.rewriter.pipeline import QueryPipeline

from tests.strategies import conformance_queries, generator_configs


def _bag(table) -> Counter:
    return Counter(table.rows)


@settings(max_examples=60, deadline=None)
@given(config=generator_configs(), query=conformance_queries())
def test_batch_executor_matches_row_on_generated_catalogs(config, query):
    """Batch == row on randomized plans x catalogs, planner on and off."""
    database = generate_catalog(config)
    for optimize in (True, False):
        pipeline = QueryPipeline(
            config.domain, database=database, optimize=optimize
        )
        plan = pipeline.rewrite(query)
        row_result = execute(plan, database, executor="row")
        batch_statistics: Dict[str, int] = {}
        batch_result = execute(plan, database, batch_statistics, executor="batch")
        assert batch_result.schema == row_result.schema
        assert _bag(batch_result) == _bag(row_result)
        assert batch_statistics["executor.batch"] == 1


def _keyed_overlap_join(rows: int):
    """(database, plan) for ``L JOIN R ON l_key = r_key AND overlap``, ``rows`` per side."""
    config = GeneratorConfig(
        rows=rows, domain_size=64, seed=5, interval_profile="mixed", keys=4
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    left = Rename(RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end")))
    right = Rename(RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end")))
    predicate = and_(
        Comparison("=", attr("l_key"), attr("r_key")),
        and_(
            Comparison("<", attr("l_begin"), attr("r_end")),
            Comparison("<", attr("r_begin"), attr("l_end")),
        ),
    )
    return database, Join(left, right, predicate)


def test_serial_batch_join_still_counts_partitions():
    """Below the kernel cutover the key split is swept partition by partition."""
    database, plan = _keyed_overlap_join(rows=KERNEL_CUTOVER // 2 - 8)

    row_result = execute(plan, database, executor="row")
    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics, executor="batch")

    assert _bag(batch_result) == _bag(row_result)
    # batch.partitions = scalar partitions swept (one per distinct key here).
    assert statistics["batch.partitions"] >= 2
    assert statistics["join_strategy.interval"] == 1
    assert "join_strategy.interval_vectorized" not in statistics


def test_keyed_join_above_the_cutover_is_kernel_served_and_says_so():
    """Every interval join counts as one; the kernel-served ones also as vectorized."""
    pytest.importorskip("numpy")
    database, plan = _keyed_overlap_join(rows=KERNEL_CUTOVER)

    row_result = execute(plan, database, executor="row")
    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics, executor="batch")

    assert _bag(batch_result) == _bag(row_result)
    assert len(batch_result) > 0
    assert statistics["join_strategy.interval"] == 1
    assert statistics["join_strategy.interval_vectorized"] == 1
    # No scalar partition was swept, so the counter does not appear at all.
    assert "batch.partitions" not in statistics


def test_explain_names_the_route_each_temporal_operator_took():
    """``execution (backend='memory')`` lists the kernel counters next to the strategies."""
    pytest.importorskip("numpy")
    rows = [(i % 9, i, i % 13, i % 13 + 4) for i in range(KERNEL_CUTOVER)]
    with connect(domain=(0, 20)) as session:
        works = session.load("works", ["w_key", "w_value"], rows)
        other = session.load("other", ["o_key", "o_value"], rows)
        joined = works.join(other, on="w_key = o_key").explain()
        execution = joined[joined.index("execution (backend='memory')"):]
        assert "join_strategy.interval = 1" in execution
        assert "join_strategy.interval_vectorized = 1" in execution
        assert "batch.coalesce_vectorized = 1" in execution
        assert "batch.partitions" not in execution
        aggregated = works.group_by("w_key").agg(total="sum(w_value)").explain()
        assert "batch.aggregate_vectorized = 1" in aggregated
        # A few dozen segments: the final coalesce is below the cutover, and says so.
        assert "batch.coalesce_vectorized" not in aggregated
        extremes = works.group_by("w_key").agg(top="max(w_value)", low="min(w_value)").explain()
        assert "batch.aggregate_vectorized = 1" in extremes
        assert "preaggregated_rows" not in extremes
        difference = works.select("w_key").difference(other.select("o_key")).explain()
        assert "batch.monus_vectorized = 1" in difference
        assert "split" not in difference
        # The final coalesce passes the sweep's coalesced rows through.
        assert "batch.coalesce_vectorized" not in difference

        small = session.load("small", ["s_key", "s_value"], rows[:8])
        scalar = small.join(other.where("o_value < 8"), on="s_key = o_key").explain()
        assert "join_strategy.interval = 1" in scalar
        assert "batch.partitions = " in scalar
        assert "vectorized" not in scalar


def _overlap_plan():
    left = Rename(RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end")))
    right = Rename(RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end")))
    predicate = and_(
        Comparison("<", attr("l_begin"), attr("r_end")),
        Comparison("<", attr("r_begin"), attr("l_end")),
    )
    return Join(left, right, predicate)


def test_vectorized_overlap_join_matches_row_and_counts():
    """The zero-key case of the keyed kernel: one group, same route and counters."""
    pytest.importorskip("numpy")
    config = GeneratorConfig(
        rows=600, domain_size=512, seed=3, interval_profile="uniform", keys=4
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    plan = _overlap_plan()

    row_result = execute(plan, database, executor="row")
    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics, executor="batch")

    assert _bag(batch_result) == _bag(row_result)
    assert len(batch_result) > 0
    assert statistics["join_strategy.interval"] == 1
    assert statistics["join_strategy.interval_vectorized"] == 1
    assert "batch.partitions" not in statistics


def test_vectorized_overlap_join_exact_on_degenerate_and_null_intervals():
    """Degenerate (end <= begin) rows stay exact; NULL endpoints fall back.

    The vectorized kernel's range bounds imply the second overlap
    comparison only for well-formed intervals; this pins the masked slow
    path (degenerates present) and the non-int fallback (NULLs present)
    against the row engine.
    """
    degenerate = Database()
    degenerate.create_table(
        "L",
        ("l_id", "t_begin", "t_end"),
        [("a", 1, 5), ("b", 3, 3), ("c", 6, 2), ("d", 2, 8)],
        period=("t_begin", "t_end"),
    )
    degenerate.create_table(
        "R",
        ("r_id", "t_begin", "t_end"),
        [("x", 0, 4), ("y", 4, 4), ("z", 7, 1), ("w", 3, 9)],
        period=("t_begin", "t_end"),
    )
    plan = _overlap_plan()
    row_result = execute(plan, degenerate, executor="row")
    statistics: Dict[str, int] = {}
    batch_result = execute(plan, degenerate, statistics, executor="batch")
    assert _bag(batch_result) == _bag(row_result)

    nulls = Database()
    nulls.create_table(
        "L",
        ("l_id", "t_begin", "t_end"),
        [("a", 1, 5), ("b", 2, None), ("c", 0, 9)],
        period=("t_begin", "t_end"),
    )
    nulls.create_table(
        "R",
        ("r_id", "t_begin", "t_end"),
        [("x", 0, 4), ("y", None, 6), ("z", 3, 8)],
        period=("t_begin", "t_end"),
    )
    row_result = execute(plan, nulls, executor="row")
    statistics = {}
    batch_result = execute(plan, nulls, statistics, executor="batch")
    assert _bag(batch_result) == _bag(row_result)
    # NULL endpoints are not int columns: the vectorized route must decline
    # and the bisect sweep (which drops NULL rows) must answer instead.
    assert "join_strategy.interval_vectorized" not in statistics


def test_both_executors_call_the_same_sweep_functions_below_the_cutover(monkeypatch):
    """The reference and the engine share one definition per scalar algorithm.

    Every function of :mod:`repro.engine.sweeps` an operator dispatches to
    is replaced by a spy; plans with a join, a split, a temporal bag
    difference, a bag difference, a fused temporal aggregation, a grouping
    and coalescing (the step-function sweep ``monus``, like the temporal
    difference) run on both executors, and each spy must have been called by
    both.
    """
    shared = ("join", "split", "monus", "temporal_aggregate", "except_all", "aggregate")
    callers: Dict[str, set] = {name: set() for name in shared}
    running = []
    for name in shared:
        original = getattr(sweeps, name)

        def spy(*args, _name=name, _original=original, **keywords):
            callers[_name].add(running[-1])
            return _original(*args, **keywords)

        monkeypatch.setattr(sweeps, name, spy)

    database = populate_database(Database())
    pipeline = QueryPipeline(TIME_DOMAIN, database=database)
    joined = Projection.of_attributes(
        Join(
            RelationAccess("works"),
            RelationAccess("assign"),
            Comparison("=", attr("skill"), attr("req_skill")),
        ),
        "name",
        "mach",
    )
    plans = [pipeline.rewrite(query) for query in (joined, query_skillreq(), query_onduty())]
    # Grouping, bag difference and split as plain operators, outside REWR.
    plans.append(
        Aggregation(
            Difference(RelationAccess("assign"), RelationAccess("assign")),
            ("req_skill",),
            (AggregateSpec("count", None, "n"),),
        )
    )
    plans.append(SplitOperator(RelationAccess("works"), RelationAccess("works"), ("skill",)))
    for executor in ("row", "batch"):
        running.append(executor)
        statistics: Dict[str, int] = {}
        for plan in plans:
            execute(plan, database, statistics, executor=executor)
        assert not any(name.endswith("_vectorized") for name in statistics)
    assert callers == {name: {"row", "batch"} for name in shared}
