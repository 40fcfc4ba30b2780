"""Property-based test of Theorem 8.1: the commutative diagram of Fig. 4 / Eq. (1).

For random period databases and random RA^agg queries, executing the
rewritten plan over the PERIODENC encoding and decoding the result must
yield exactly the coalesced logical-model result -- which in turn (tested in
``tests/logical_model``) equals the abstract-model (per-snapshot) oracle.
The same property is verified for the un-optimised rewriting variants of
``repro.baselines``, which is the correctness half of the Section 9
optimisation argument.
"""

import pytest
from hypothesis import example, given, settings

from repro.abstract_model import evaluate
from repro.algebra import (
    Comparison,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Union,
    attr,
)
from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from repro.engine.catalog import Database
from repro.logical_model import PeriodDatabase
from repro.rewriter import QueryPipeline, period_decode, period_encode
from repro.semirings import NATURAL

from tests.strategies import (
    PROPERTY_DOMAIN,
    SCHEMA_R,
    SCHEMA_S,
    period_databases,
    queries,
)


def pipeline_for(database, **kwargs) -> QueryPipeline:
    """Load the logical-model database into a fresh pipeline instance."""
    catalog = Database()
    pipeline = QueryPipeline(PROPERTY_DOMAIN, database=catalog, **kwargs)
    for name in database.names():
        catalog.register(period_encode(database.relation(name), name), period=("t_begin", "t_end"))
    return pipeline


def overlapping_database() -> PeriodDatabase:
    """R and S overlapping in time, with one shared key / (cat, val) pair and one not.

    Random draws rarely give a join or a difference whose inputs meet, so
    every property below also runs the explicit examples of
    :data:`MEETING_QUERIES` over it.
    """
    database = PeriodDatabase(NATURAL, PROPERTY_DOMAIN)
    database.create_relation(
        "R", SCHEMA_R, [(("a", "a", 1), 0, 10, 1), (("b", "b", 2), 2, 12, 2)]
    )
    database.create_relation(
        "S", SCHEMA_S, [(("a", "a", 1), 4, 16, 1), (("c", "c", 3), 0, 8, 1)]
    )
    return database


def cat_val(relation: str) -> Projection:
    prefix = relation.lower()
    return Projection(
        RelationAccess(relation),
        ((attr(f"{prefix}_cat"), "cat"), (attr(f"{prefix}_val"), "val")),
    )


#: A join that drops a pair, a difference that removes something, a distinct that merges.
MEETING_QUERIES = (
    Projection(
        Join(
            RelationAccess("R"),
            RelationAccess("S"),
            Comparison("=", attr("r_key"), attr("s_key")),
        ),
        ((attr("r_cat"), "cat"), (attr("s_val"), "val")),
    ),
    Difference(cat_val("R"), cat_val("S")),
    Distinct(Union(cat_val("R"), cat_val("S"))),
)


def with_meeting_examples(test):
    """``test`` run on :func:`overlapping_database` with each query of MEETING_QUERIES too."""
    for query in reversed(MEETING_QUERIES):
        test = example(database=overlapping_database(), query=query)(test)
    return test


@given(database=period_databases(), query=queries())
@with_meeting_examples
def test_rewritten_plan_matches_logical_model(database, query):
    pipeline = pipeline_for(database)
    assert pipeline.execute_decoded(query) == evaluate(query, database)


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
@with_meeting_examples
def test_per_operator_coalescing_gives_same_result(database, query):
    """The single-final-coalesce optimisation does not change results."""
    optimized = pipeline_for(database).execute_decoded(query)
    unoptimized = pipeline_for(
        database, rewriter_cls=PerOperatorCoalesceRewriter
    ).execute_decoded(query)
    assert optimized == unoptimized


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
@with_meeting_examples
def test_naive_aggregation_path_gives_same_result(database, query):
    """Fused pre-aggregation + split equals the naive split-then-aggregate plan."""
    optimized = pipeline_for(database).execute_decoded(query)
    naive = pipeline_for(database, rewriter_cls=SplitThenAggregateRewriter).execute_decoded(query)
    assert optimized == naive


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
@with_meeting_examples
def test_uncoalesced_results_are_snapshot_equivalent(database, query):
    """Skipping the final coalesce loses uniqueness but not snapshot-equivalence (Lemma 6.1)."""
    pipeline = pipeline_for(database)
    coalesced = pipeline.execute_decoded(query)
    raw = pipeline.execute_rewritten(pipeline.rewriter.rewrite(query).child)
    assert period_decode(raw, pipeline.period_semiring).snapshot_equivalent(coalesced)


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
@with_meeting_examples
def test_optimizer_does_not_change_results(database, query):
    with_optimizer = pipeline_for(database).execute_decoded(query)
    without_optimizer = pipeline_for(database, optimize=False).execute_decoded(query)
    assert with_optimizer == without_optimizer
