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
from hypothesis import given, settings

from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from repro.engine.catalog import Database
from repro.logical_model import evaluate_period_query
from repro.rewriter import QueryPipeline, period_decode, period_encode

from tests.strategies import PROPERTY_DOMAIN, period_databases, queries


def pipeline_for(database, **kwargs) -> QueryPipeline:
    """Load the logical-model database into a fresh pipeline instance."""
    catalog = Database()
    pipeline = QueryPipeline(PROPERTY_DOMAIN, database=catalog, **kwargs)
    for name in database.names():
        catalog.register(period_encode(database.relation(name), name), period=("t_begin", "t_end"))
    return pipeline


@given(database=period_databases(), query=queries())
def test_rewritten_plan_matches_logical_model(database, query):
    pipeline = pipeline_for(database)
    assert pipeline.execute_decoded(query) == evaluate_period_query(query, database)


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
def test_per_operator_coalescing_gives_same_result(database, query):
    """The single-final-coalesce optimisation does not change results."""
    optimized = pipeline_for(database).execute_decoded(query)
    unoptimized = pipeline_for(
        database, rewriter_cls=PerOperatorCoalesceRewriter
    ).execute_decoded(query)
    assert optimized == unoptimized


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
def test_naive_aggregation_path_gives_same_result(database, query):
    """Fused pre-aggregation + split equals the naive split-then-aggregate plan."""
    optimized = pipeline_for(database).execute_decoded(query)
    naive = pipeline_for(database, rewriter_cls=SplitThenAggregateRewriter).execute_decoded(query)
    assert optimized == naive


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
def test_uncoalesced_results_are_snapshot_equivalent(database, query):
    """Skipping the final coalesce loses uniqueness but not snapshot-equivalence (Lemma 6.1)."""
    pipeline = pipeline_for(database)
    coalesced = pipeline.execute_decoded(query)
    raw = pipeline.execute_rewritten(pipeline.rewriter.rewrite(query).child)
    assert period_decode(raw, pipeline.period_semiring).snapshot_equivalent(coalesced)


@settings(max_examples=25)
@given(database=period_databases(), query=queries())
def test_optimizer_does_not_change_results(database, query):
    with_optimizer = pipeline_for(database).execute_decoded(query)
    without_optimizer = pipeline_for(database, optimize=False).execute_decoded(query)
    assert with_optimizer == without_optimizer
