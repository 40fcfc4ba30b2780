"""Unit tests of the conformance harness on known-correct inputs.

These are the fast, always-on checks: the harness agrees with the paper's
running example across all four execution configurations, the oracle and
changepoint enumeration behave as specified, and ``assert_conformant``
raises a :class:`ConformanceError` carrying a counterexample when (and only
when) a configuration disagrees with the snapshot oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Distinct,
    Projection,
    RelationAccess,
    Selection,
)
from repro.conformance import (
    ConformanceError,
    assert_conformant,
    check_conformance,
    distinct_time_points,
    oracle_at,
    referenced_tables,
)
from repro.conformance.mutations import BrokenDistinctRewriter, NoFinalCoalesceRewriter
from repro.conformance.oracle import normal_form_violation
from repro.datasets import GeneratorConfig, generate_catalog
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.logical_model import PeriodKRelation
from repro.rewriter import T_BEGIN, T_END, period_encode
from repro.semirings import NATURAL
from repro.temporal import PeriodSemiring

from tests.strategies import PROPERTY_DOMAIN, period_facts


@pytest.fixture
def running_db() -> Database:
    return populate_database(Database())


def test_running_example_queries_conform(running_db):
    for query in (query_onduty(), query_skillreq()):
        report = assert_conformant(query, running_db, TIME_DOMAIN)
        assert report.ok
        # memory/sqlite x planner on/off, each checked at every changepoint.
        assert report.configurations == (
            ("memory", True),
            ("memory", False),
            ("sqlite", True),
            ("sqlite", False),
        )
        assert report.checks == 4 * len(report.points)


def test_distinct_time_points_cover_changepoints(running_db):
    points = distinct_time_points(running_db, ("works", "assign"), TIME_DOMAIN)
    # Tmin plus every in-domain begin/end of works and assign rows.
    assert points == [0, 3, 6, 8, 10, 12, 14, 16, 18, 20]


def test_distinct_time_points_sampling_is_deterministic(running_db):
    full = distinct_time_points(running_db, ("works",), TIME_DOMAIN)
    sampled = distinct_time_points(running_db, ("works",), TIME_DOMAIN, limit=3)
    again = distinct_time_points(running_db, ("works",), TIME_DOMAIN, limit=3)
    assert sampled == again
    assert len(sampled) == 3
    assert sampled[0] == TIME_DOMAIN.min_point
    assert set(sampled) <= set(full)


def test_oracle_matches_figure1(running_db):
    # Figure 1b: two SP workers on duty during [8, 10).
    result = oracle_at(query_onduty(), running_db, TIME_DOMAIN, 9)
    assert dict(result) == {(2,): 1}
    # ... and zero during the early-morning gap (the AG-bug row).
    result = oracle_at(query_onduty(), running_db, TIME_DOMAIN, 1)
    assert dict(result) == {(0,): 1}


def test_referenced_tables_in_first_reference_order(running_db):
    assert referenced_tables(query_skillreq(), running_db) == ("assign", "works")


def test_explicit_points_are_validated(running_db):
    with pytest.raises(ValueError):
        check_conformance(query_onduty(), running_db, TIME_DOMAIN, points=[99])


def test_empty_point_list_is_rejected(running_db):
    # A vacuous report (0 checks, ok=True) must be impossible to request.
    with pytest.raises(ValueError, match="no time points"):
        check_conformance(query_onduty(), running_db, TIME_DOMAIN, points=[])


def test_generated_catalog_conforms_including_adversarial_rows():
    config = GeneratorConfig(
        rows=18,
        domain_size=16,
        seed=11,
        interval_profile="mixed",
        duplicate_rate=0.25,
        null_rate=0.2,
        null_endpoint_rate=0.15,
        degenerate_rate=0.2,
    )
    database = generate_catalog(config)
    query = Aggregation(
        RelationAccess("R"),
        ("r_cat",),
        (
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", attr("r_val"), "total"),
        ),
    )
    assert_conformant(query, database, config.domain)


def test_assert_conformant_raises_with_minimized_counterexample(running_db):
    query = Distinct(
        Projection.of_attributes(
            Selection(
                RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))
            ),
            "skill",
        )
    )
    with pytest.raises(ConformanceError) as excinfo:
        assert_conformant(
            query, running_db, TIME_DOMAIN, rewriter_cls=BrokenDistinctRewriter
        )
    counterexample = excinfo.value.counterexample
    # The DISTINCT bug needs exactly two overlapping SP rows to show.
    assert len(counterexample.tables["works"]) == 2
    assert counterexample.error is None
    assert counterexample.expected != counterexample.actual
    assert "snapshot-conformance violation" in counterexample.describe()


def test_minimize_can_be_disabled(running_db):
    query = Distinct(Projection.of_attributes(RelationAccess("works"), "skill"))
    report = check_conformance(
        query,
        running_db,
        TIME_DOMAIN,
        rewriter_cls=BrokenDistinctRewriter,
        minimize=False,
    )
    assert not report.ok
    assert report.counterexample.shrink_checks == 0
    assert len(report.counterexample.tables["works"]) == 4  # untouched input


def test_a_wrong_snapshot_is_reported_before_the_normal_form():
    class WrongAndUncoalesced(NoFinalCoalesceRewriter, BrokenDistinctRewriter):
        pass

    database = Database()
    rows = [("A", "SP", 0, 5), ("B", "SP", 3, 8), ("C", "SP", 5, 10)]
    database.create_table("works", ("name", "skill", T_BEGIN, T_END), rows)
    query = Distinct(Projection.of_attributes(RelationAccess("works"), "skill"))
    counterexample = check_conformance(
        query, database, TIME_DOMAIN, rewriter_cls=WrongAndUncoalesced
    ).counterexample
    # SP holds twice at t=3.  Dropping A leaves B and C right at t=3 but
    # overlapping: the shrinker must not trade the mismatch for that.
    assert not counterexample.normal_form
    assert counterexample.point == 3
    assert counterexample.expected != counterexample.actual
    assert counterexample.tables == {"works": rows[:2]}


def test_a_normal_form_witness_names_the_value_and_its_periods(running_db):
    query = Projection.of_attributes(RelationAccess("works"), "skill")
    counterexample = check_conformance(
        query, running_db, TIME_DOMAIN, rewriter_cls=NoFinalCoalesceRewriter
    ).counterexample
    assert counterexample.normal_form
    assert counterexample.tables == {"works": [("Ann", "SP", 3, 10), ("Sam", "SP", 8, 16)]}
    assert (
        "value ('SP',) has periods [3, 10) x1 and [8, 16) x1 that overlap"
        in counterexample.describe()
    )


# -- the normal-form check (Definition 6.3) -------------------------------------------------------


def _period_table(rows):
    return Table("t", ("x", T_BEGIN, T_END), rows)


@pytest.mark.parametrize(
    "rows, named",
    [
        ([(1, 0, 5), (1, 3, 8)], "periods [0, 5) x1 and [3, 8) x1 that overlap"),
        ([(1, 0, 5), (1, 0, 8)], "periods [0, 5) x1 and [0, 8) x1 that overlap"),
        ([(2, 0, 9), (1, 2, 4), (1, 0, 9)], "periods [0, 9) x1 and [2, 4) x1 that overlap"),
        ([(1, 0, 5), (1, 5, 8)], "periods [0, 5) x1 and [5, 8) x1 that meet with equal counts"),
        (
            [(1, 0, 5), (1, 5, 8), (1, 0, 5), (1, 5, 8)],
            "periods [0, 5) x2 and [5, 8) x2 that meet with equal counts",
        ),
        ([(1, 4, 4)], "an empty period [4, 4) x1"),
        ([(1, 6, 2), (1, 6, 2)], "an empty period [6, 2) x2"),
        ([(1, None, 5)], "an empty period [None, 5) x1"),
        ([(1, 3, None)], "an empty period [3, None) x1"),
    ],
)
def test_normal_form_check_flags(rows, named):
    assert normal_form_violation(_period_table(rows)) == f"value (1,) has {named}"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(1, 0, 5), (1, 0, 5), (1, 5, 8)],  # they meet, with different counts
        [(1, 0, 3), (1, 5, 8), (1, 8, 9), (1, 8, 9)],
        [(1, 0, 5), (2, 0, 5), (2, 5, 9), (2, 5, 9)],  # other values never conflict
    ],
)
def test_normal_form_check_accepts(rows):
    assert normal_form_violation(_period_table(rows)) is None


@settings(max_examples=100, deadline=None)
@given(period_facts(("x", "n")))
def test_normal_form_check_accepts_every_encoding(facts):
    relation = PeriodKRelation.from_periods(
        PeriodSemiring(NATURAL, PROPERTY_DOMAIN), ("x", "n"), facts
    )
    assert normal_form_violation(period_encode(relation)) is None
