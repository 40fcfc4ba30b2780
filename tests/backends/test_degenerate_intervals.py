"""Degenerate (``begin == end``) and NULL-endpoint intervals across backends.

SQL period relations in the wild carry malformed rows: zero-length periods
and NULL end points.  Under SQL three-valued comparison semantics such rows
hold at no snapshot -- the compiled window SQL filters them via
``WHERE t_begin < t_end`` and NULL-hostile join/cut comparisons -- and the
in-memory physical operators implement exactly the same rule.  These tests
pin the two backends to each other (and to the snapshot oracle) on inputs
saturated with both shapes, through every rewritten-operator class: scan,
selection, distinct and difference (split), grouped and ungrouped
aggregation, and the overlap-predicate join.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Selection,
)
from repro.conformance import assert_conformant
from repro.datasets import GeneratorConfig, generate_catalog
from repro.engine.catalog import Database
from repro.rewriter.pipeline import QueryPipeline
from repro.temporal.timedomain import TimeDomain

DOMAIN = TimeDomain(0, 16)

#: Hand-written rows covering every adversarial endpoint shape at least once:
#: ordinary, degenerate, NULL begin, NULL end, both NULL, NULL data value
#: inside an otherwise valid period, and duplicates of a degenerate row.
ADVERSARIAL_ROWS = [
    ("k0", "g0", 1, 2, 9),
    ("k0", "g0", 1, 2, 9),  # duplicate (multiplicity 2 per snapshot)
    ("k0", "g1", 2, 5, 5),  # degenerate: holds nowhere
    ("k1", "g1", 3, None, 8),  # NULL begin: holds nowhere
    ("k1", "g0", 4, 6, None),  # NULL end: holds nowhere
    ("k1", None, 5, None, None),  # both NULL
    ("k2", "g0", None, 1, 12),  # NULL value, valid period
    ("k2", "g2", 0, 7, 7),  # degenerate duplicate value source
    ("k2", "g2", 0, 7, 7),
]


def _database() -> Database:
    database = Database()
    database.create_table(
        "adv",
        ("a_key", "a_cat", "a_val", "t_begin", "t_end"),
        ADVERSARIAL_ROWS,
        period=("t_begin", "t_end"),
    )
    database.create_table(
        "other",
        ("o_key", "o_cat", "o_val", "t_begin", "t_end"),
        [
            ("k0", "g0", 1, 0, 16),
            ("k1", "g1", 7, 7, 7),  # degenerate on the right side of a difference
            ("k2", "g0", None, None, 4),  # NULL begin on the right side
        ],
        period=("t_begin", "t_end"),
    )
    return database


def _normalised(name: str, prefix: str):
    return Projection(
        RelationAccess(name),
        ((attr(f"{prefix}_cat"), "cat"), (attr(f"{prefix}_val"), "val")),
    )


QUERIES = {
    "scan": _normalised("adv", "a"),
    "selection": Selection(
        _normalised("adv", "a"), Comparison("=", attr("cat"), lit("g0"))
    ),
    "distinct": Distinct(_normalised("adv", "a")),
    "difference": Difference(_normalised("adv", "a"), _normalised("other", "o")),
    "grouped-aggregation": Aggregation(
        _normalised("adv", "a"),
        ("cat",),
        (
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", attr("val"), "total"),
        ),
    ),
    "gap-covering-aggregation": Aggregation(
        _normalised("adv", "a"), (), (AggregateSpec("count", None, "cnt"),)
    ),
    "join": Projection.of_attributes(
        Join(
            RelationAccess("adv"),
            RelationAccess("other"),
            Comparison("=", attr("a_key"), attr("o_key")),
        ),
        "a_cat",
        "o_val",
    ),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("optimize", (True, False), ids=("planner", "no-planner"))
def test_sqlite_compilation_matches_memory_engine(name, optimize):
    database = _database()
    memory = QueryPipeline(DOMAIN, database=database, optimize=optimize)
    sqlite = QueryPipeline(
        DOMAIN, database=database, optimize=optimize, backend="sqlite"
    )
    query = QUERIES[name]
    memory_result = memory.execute(query)
    sqlite_result = sqlite.execute(query)
    assert memory_result.schema == sqlite_result.schema
    assert Counter(memory_result.rows) == Counter(sqlite_result.rows)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_adversarial_rows_conform_to_the_snapshot_oracle(name):
    # Beyond backend agreement: both must agree with the per-point oracle,
    # i.e. malformed rows contribute to no snapshot at all.
    assert_conformant(QUERIES[name], _database(), DOMAIN)


def test_degenerate_and_null_rows_hold_at_no_snapshot():
    database = _database()
    pipeline = QueryPipeline(DOMAIN, database=database)
    decoded = pipeline.execute_decoded(_normalised("adv", "a"))
    for point in DOMAIN.points():
        sliced = dict(decoded.timeslice(point))
        assert (("g1", 2)) not in sliced  # the degenerate row
        assert (("g0", 4)) not in sliced  # the NULL-end row
        assert ((None, 5)) not in sliced  # the all-NULL row


def test_generated_adversarial_catalog_backends_agree():
    config = GeneratorConfig(
        rows=40,
        domain_size=16,
        seed=23,
        interval_profile="mixed",
        degenerate_rate=0.3,
        null_endpoint_rate=0.25,
        null_rate=0.2,
        duplicate_rate=0.2,
    )
    database = generate_catalog(config)
    memory = QueryPipeline(config.domain, database=database)
    query = Aggregation(
        _normalised("R", "r"),
        ("cat",),
        (AggregateSpec("count", None, "cnt"),),
    )
    memory_result = memory.execute(query)
    sqlite_result = memory.execute(query, backend="sqlite")
    assert Counter(memory_result.rows) == Counter(sqlite_result.rows)
