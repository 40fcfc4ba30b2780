"""Interval-join fallback parity on generator-produced heavy-overlap inputs.

The ``chained`` profile of :mod:`repro.datasets.generator` is the worst case
for the sort-merge interval join -- long runs of mutually overlapping
intervals, near-quadratic output.  On exactly this input the sweep must
produce the same bag of rows as the historical strategies it replaced
(every join hinted ``"hash"``), with the ``join_strategy.*`` statistics
reporting which code path ran.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.algebra.expressions import Comparison, and_, attr
from repro.algebra.operators import Join, RelationAccess
from repro.datasets import GeneratorConfig, generate_table
from repro.engine.catalog import Database
from repro.engine.executor import execute

from tests.strategies import without_interval_join

CHAINED = GeneratorConfig(
    rows=150,
    domain_size=48,
    seed=17,
    interval_profile="chained",
    duplicate_rate=0.2,
    degenerate_rate=0.1,
    null_endpoint_rate=0.1,
    keys=3,
)


def _database() -> Database:
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, CHAINED, prefix), period=("t_begin", "t_end")
        )
    return database


def _overlap(left_begin: str, left_end: str, right_begin: str, right_end: str):
    return and_(
        Comparison("<", attr(left_begin), attr(right_end)),
        Comparison("<", attr(right_begin), attr(left_end)),
    )


def _renamed(database: Database):
    # Disjoint period attribute names per side, as the rewriter produces.
    from repro.algebra.operators import Rename

    left = Rename(
        RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end"))
    )
    right = Rename(
        RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end"))
    )
    return left, right


def test_pure_overlap_join_parity_and_statistics():
    database = _database()
    left, right = _renamed(database)
    plan = Join(left, right, _overlap("l_begin", "l_end", "r_begin", "r_end"))

    interval_stats: Dict[str, int] = {}
    fallback_stats: Dict[str, int] = {}
    interval_result = execute(plan, database, interval_stats)
    fallback_result = execute(
        without_interval_join(plan), database, fallback_stats
    )

    assert Counter(interval_result.rows) == Counter(fallback_result.rows)
    assert len(interval_result) > CHAINED.rows  # heavy overlap: large output
    assert interval_stats["join_strategy.interval"] == 1
    assert "join_strategy.nested_loop" not in interval_stats
    # No equality conjunct: the fallback is a full nested loop.
    assert fallback_stats["join_strategy.nested_loop"] == 1
    assert "join_strategy.interval" not in fallback_stats


def test_partitioned_overlap_join_parity_and_statistics():
    database = _database()
    left, right = _renamed(database)
    predicate = and_(
        Comparison("=", attr("l_key"), attr("r_key")),
        _overlap("l_begin", "l_end", "r_begin", "r_end"),
    )
    plan = Join(left, right, predicate)

    interval_stats: Dict[str, int] = {}
    fallback_stats: Dict[str, int] = {}
    interval_result = execute(plan, database, interval_stats)
    fallback_result = execute(
        without_interval_join(plan), database, fallback_stats
    )

    assert Counter(interval_result.rows) == Counter(fallback_result.rows)
    assert interval_stats["join_strategy.interval"] == 1
    # With an equality conjunct the fallback is the hash join.
    assert fallback_stats["join_strategy.hash"] == 1
    assert "join_strategy.interval" not in fallback_stats


def test_degenerate_and_null_endpoints_join_identically():
    """The adversarial rows the generator injects do not break parity.

    NULL end points never satisfy the strict comparisons (dropped by both
    strategies); degenerate intervals still join wherever the raw predicate
    holds.  The bags must agree exactly -- this is the regression guard for
    the sweep's NULL prefilter.
    """
    config = GeneratorConfig(
        rows=80,
        domain_size=24,
        seed=29,
        interval_profile="point",
        null_endpoint_rate=0.3,
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    left, right = _renamed(database)
    plan = Join(left, right, _overlap("l_begin", "l_end", "r_begin", "r_end"))
    interval_result = execute(plan, database)
    fallback_result = execute(without_interval_join(plan), database)
    assert Counter(interval_result.rows) == Counter(fallback_result.rows)
