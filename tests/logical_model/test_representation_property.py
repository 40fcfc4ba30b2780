"""Property-based tests: the logical model is a representation system.

Theorem 6.6 / 7.3 of the paper: period K-relations with ``ENC`` and the
timeslice operator form a representation system for RA^agg over snapshot
K-relations.  We verify the three conditions of Definition 4.5 on random
period databases and random queries:

1. uniqueness -- evaluating over the logical model yields coalesced
   (normal-form) annotations, and re-encoding the expanded snapshots
   reproduces exactly the same relation;
2. snapshot-reducibility -- slicing the logical-model result at any time
   point equals evaluating the query over the sliced inputs;
3. snapshot-preservation -- ``ENC`` of a snapshot relation has the same
   timeslices as the original.

Both models are evaluated by the one interpreter
(:func:`repro.abstract_model.evaluate`), over K^T and over K; the
reducibility and oracle properties run over N^T and over B^T databases, so
point-wise duplicate elimination and the monus meet a second K.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abstract_model import evaluate, evaluate_snapshot_query
from repro.logical_model import PeriodKRelation
from repro.semirings import BOOLEAN, NATURAL

from tests.strategies import PROPERTY_DOMAIN, period_databases, queries

BASE_SEMIRINGS = pytest.mark.parametrize("semiring", [NATURAL, BOOLEAN], ids=["N", "B"])


@BASE_SEMIRINGS
@given(data=st.data(), query=queries())
def test_snapshot_reducibility(semiring, data, query):
    """tau_T(Q(E)) == Q(tau_T(E)) for every T."""
    database = data.draw(period_databases(semiring=semiring))
    result = evaluate(query, database)
    for point in PROPERTY_DOMAIN.points():
        sliced_inputs = {
            name: database.relation(name).timeslice(point) for name in database.names()
        }
        expected = evaluate(query, sliced_inputs, database.base_semiring)
        assert result.timeslice(point) == expected


@given(database=period_databases(), query=queries())
def test_result_annotations_are_coalesced(database, query):
    result = evaluate(query, database)
    assert isinstance(result, PeriodKRelation)
    for _row, element in result:
        assert element.is_coalesced()
        assert not element.is_empty()


@BASE_SEMIRINGS
@given(data=st.data(), query=queries())
def test_matches_abstract_model_oracle(semiring, data, query):
    """Q over the logical model equals ENC(Q over the abstract model)."""
    database = data.draw(period_databases(semiring=semiring))
    logical = evaluate(query, database)
    oracle = evaluate_snapshot_query(query, database.to_snapshot_database())
    encoded_oracle = PeriodKRelation.encode(database.period_semiring, oracle)
    assert logical == encoded_oracle


@given(database=period_databases())
def test_enc_is_snapshot_preserving_and_invertible(database):
    """Conditions (1) and (3) of Definition 4.5 for the base relations."""
    for name in database.names():
        relation = database.relation(name)
        snapshots = relation.to_snapshot()
        re_encoded = PeriodKRelation.encode(database.period_semiring, snapshots)
        assert re_encoded == relation
        for point in PROPERTY_DOMAIN.points():
            assert snapshots.snapshot(point) == relation.timeslice(point)
