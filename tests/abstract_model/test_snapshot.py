"""Unit tests for snapshot K-relations and point-wise snapshot semantics."""

import pytest

from repro.abstract_model import (
    KRelation,
    SnapshotDatabase,
    SnapshotKRelation,
    evaluate,
    evaluate_snapshot_query,
)
from repro.algebra import (
    AggregateSpec,
    Aggregation,
    AlgebraError,
    Comparison,
    ConstantRelation,
    Projection,
    RelationAccess,
    Selection,
    attr,
    lit,
)
from repro.datasets.running_example import WORKS_ROWS, ASSIGN_ROWS
from repro.semirings import NATURAL
from repro.temporal import TimeDomain

DOMAIN = TimeDomain(0, 24)


def works_snapshot_relation() -> SnapshotKRelation:
    return SnapshotKRelation.from_periods(
        NATURAL,
        DOMAIN,
        ("name", "skill"),
        [((name, skill), b, e, 1) for name, skill, b, e in WORKS_ROWS],
    )


def running_example_database() -> SnapshotDatabase:
    database = SnapshotDatabase(NATURAL, DOMAIN)
    database.add_relation("works", works_snapshot_relation())
    database.add_relation(
        "assign",
        SnapshotKRelation.from_periods(
            NATURAL,
            DOMAIN,
            ("mach", "req_skill"),
            [((mach, skill), b, e, 1) for mach, skill, b, e in ASSIGN_ROWS],
        ),
    )
    return database


class TestSnapshotKRelation:
    def test_snapshots_from_periods(self):
        relation = works_snapshot_relation()
        # At 08:00 three workers are on duty (Figure 2, bottom).
        assert len(relation.snapshot(8)) == 3
        assert relation.snapshot(8).annotation(("Ann", "SP")) == 1
        # At 00:00 nobody works.
        assert len(relation.snapshot(0)) == 0

    def test_from_periods_skips_null_end_points(self):
        """A fact with a NULL end point holds at no point (SQL comparison semantics)."""
        relation = SnapshotKRelation.from_periods(
            NATURAL,
            DOMAIN,
            ("a",),
            [(("x",), None, 5, 1), (("y",), 3, None, 1), (("z",), 2, 4, 1)],
        )
        assert {row for _point, snapshot in relation.populated() for row in snapshot.rows()} == {
            ("z",)
        }

    def test_populated_snapshots_in_time_order(self):
        relation = works_snapshot_relation()
        relation.snapshot(0)  # created lazily, still empty
        points = [point for point, _snapshot in relation.populated()]
        assert points == sorted(set(range(3, 16)) | set(range(18, 20)))

    def test_set_snapshot_schema_checked(self):
        relation = works_snapshot_relation()
        with pytest.raises(ValueError):
            relation.set_snapshot(0, KRelation(NATURAL, ("other",)))

    def test_snapshot_point_validated(self):
        with pytest.raises(ValueError):
            works_snapshot_relation().snapshot(24)

    def test_equality_is_pointwise(self):
        assert works_snapshot_relation() == works_snapshot_relation()


class TestSnapshotDatabase:
    def test_timeslice_returns_all_relations(self):
        database = running_example_database()
        snapshot = database.timeslice(8)
        assert set(snapshot) == {"works", "assign"}
        assert len(snapshot["works"]) == 3

    def test_mismatched_domain_rejected(self):
        database = SnapshotDatabase(NATURAL, DOMAIN)
        other = SnapshotKRelation(NATURAL, TimeDomain(0, 5), ("x",))
        with pytest.raises(ValueError):
            database.add_relation("bad", other)

    def test_names_and_contains(self):
        database = running_example_database()
        assert set(database.names()) == {"works", "assign"}
        assert "works" in database and "missing" not in database


class TestSnapshotSemantics:
    def test_qonduty_matches_figure_1b(self):
        database = running_example_database()
        query = Aggregation(
            Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
            (),
            (AggregateSpec("count", None, "cnt"),),
        )
        result = evaluate_snapshot_query(query, database)
        expected_counts = {8: 2, 9: 2, 3: 1, 12: 1, 0: 0, 17: 0, 21: 0, 19: 1}
        for point, count in expected_counts.items():
            assert result.snapshot(point).annotation((count,)) == 1

    def test_snapshot_reducibility(self):
        """tau_T(Q(D)) == Q(tau_T(D)) for every T (Definition 4.4)."""
        database = running_example_database()
        query = Projection.of_attributes(
            Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
            "name",
        )
        result = evaluate_snapshot_query(query, database)
        for point in DOMAIN.points():
            assert result.snapshot(point) == evaluate(query, database.timeslice(point))

    def test_constant_relation_in_plan(self):
        database = running_example_database()
        query = ConstantRelation(("v",), ((1,), (2,)))
        result = evaluate_snapshot_query(query, database)
        assert result.snapshot(0).annotation((1,)) == 1

    def test_unknown_relation(self):
        with pytest.raises(AlgebraError):
            evaluate_snapshot_query(RelationAccess("missing"), running_example_database())
