"""Unit tests for period K-relations (the logical model)."""

import pytest

from repro.abstract_model import SnapshotKRelation, evaluate
from repro.algebra import (
    AggregateSpec,
    Aggregation,
    Comparison,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
    attr,
    lit,
)
from repro.logical_model import PeriodDatabase, PeriodKRelation
from repro.semirings import BOOLEAN, NATURAL, SemiringError
from repro.temporal import Interval, PeriodSemiring, TemporalElement, TimeDomain

DOMAIN = TimeDomain(0, 24)
NT = PeriodSemiring(NATURAL, DOMAIN)


def works() -> PeriodKRelation:
    return PeriodKRelation.from_periods(
        NT,
        ("name", "skill"),
        [
            (("Ann", "SP"), 3, 10, 1),
            (("Joe", "NS"), 8, 16, 1),
            (("Sam", "SP"), 8, 16, 1),
            (("Ann", "SP"), 18, 20, 1),
        ],
    )


class TestConstruction:
    def test_from_periods_merges_same_row(self):
        relation = works()
        ann = relation.annotation(("Ann", "SP"))
        assert ann.mapping == {Interval(3, 10): 1, Interval(18, 20): 1}
        assert len(relation) == 3

    def test_zero_and_empty_intervals_dropped(self):
        relation = PeriodKRelation.from_periods(
            NT, ("x",), [((1,), 5, 5, 1), ((2,), 3, 8, 0)]
        )
        assert len(relation) == 0

    def test_add_removes_rows_that_become_empty(self):
        relation = PeriodKRelation(NT, ("x",))
        relation.add((1,), TemporalElement.empty(NATURAL, DOMAIN))
        assert len(relation) == 0

    def test_arity_checked(self):
        relation = PeriodKRelation(NT, ("x", "y"))
        with pytest.raises(ValueError):
            relation.add((1,), NT.one)

    def test_annotations_always_coalesced(self):
        relation = PeriodKRelation(NT, ("x",))
        relation.add((1,), TemporalElement(NATURAL, DOMAIN, [(Interval(0, 5), 1), (Interval(5, 9), 1)]))
        assert relation.annotation((1,)).is_coalesced()
        assert relation.annotation((1,)).mapping == {Interval(0, 9): 1}


class TestTimesliceAndConversion:
    def test_timeslice(self):
        snapshot = works().timeslice(8)
        assert len(snapshot) == 3
        assert snapshot.annotation(("Ann", "SP")) == 1

    def test_to_snapshot_round_trip(self):
        relation = works()
        snapshot_relation = relation.to_snapshot()
        assert isinstance(snapshot_relation, SnapshotKRelation)
        encoded = PeriodKRelation.encode(NT, snapshot_relation)
        assert encoded == relation

    def test_encode_unique_for_equivalent_inputs(self):
        """ENC produces the same encoding for snapshot-equivalent relations."""
        split = PeriodKRelation.from_periods(
            NT,
            ("name", "skill"),
            [
                (("Ann", "SP"), 3, 8, 1),
                (("Ann", "SP"), 8, 10, 1),
                (("Joe", "NS"), 8, 16, 1),
                (("Sam", "SP"), 8, 16, 1),
                (("Ann", "SP"), 18, 20, 1),
            ],
        )
        assert split == works()
        assert PeriodKRelation.encode(NT, split.to_snapshot()) == PeriodKRelation.encode(
            NT, works().to_snapshot()
        )

    def test_encode_semiring_mismatch(self):
        snapshot = SnapshotKRelation(BOOLEAN, DOMAIN, ("x",))
        with pytest.raises(SemiringError):
            PeriodKRelation.encode(NT, snapshot)

    def test_snapshot_equivalent(self):
        other = PeriodKRelation.from_periods(
            NT,
            ("name", "skill"),
            [
                (("Ann", "SP"), 3, 10, 1),
                (("Joe", "NS"), 8, 16, 1),
                (("Sam", "SP"), 8, 16, 1),
                (("Ann", "SP"), 18, 20, 1),
            ],
        )
        assert works().snapshot_equivalent(other)
        assert not works().snapshot_equivalent(PeriodKRelation(NT, ("name", "skill")))


class TestOperators:
    def test_select(self):
        selected = works().select(Comparison("=", attr("skill"), lit("SP")))
        assert set(selected.rows()) == {("Ann", "SP"), ("Sam", "SP")}

    def test_project_adds_annotations(self):
        projected = works().project([(attr("skill"), "skill")])
        assert projected.annotation(("SP",)).mapping == {
            Interval(3, 8): 1,
            Interval(8, 10): 2,
            Interval(10, 16): 1,
            Interval(18, 20): 1,
        }

    def test_join_intersects_periods(self):
        machines = PeriodKRelation.from_periods(
            NT, ("mach", "req_skill"), [(("M1", "SP"), 6, 14, 1)]
        )
        joined = works().join(
            machines, Comparison("=", attr("skill"), attr("req_skill"))
        )
        assert joined.annotation(("Ann", "SP", "M1", "SP")).mapping == {Interval(6, 10): 1}
        assert joined.annotation(("Sam", "SP", "M1", "SP")).mapping == {Interval(8, 14): 1}
        assert ("Joe", "NS", "M1", "SP") not in joined

    def test_join_requires_disjoint_schemas(self):
        with pytest.raises(ValueError):
            works().join(works())

    def test_union_and_difference(self):
        left = PeriodKRelation.from_periods(NT, ("x",), [((1,), 0, 10, 2)])
        right = PeriodKRelation.from_periods(NT, ("x",), [((1,), 5, 15, 1)])
        union = left.union(right)
        assert union.annotation((1,)).mapping == {
            Interval(0, 5): 2,
            Interval(5, 10): 3,
            Interval(10, 15): 1,
        }
        difference = left.difference(right)
        assert difference.annotation((1,)).mapping == {
            Interval(0, 5): 2,
            Interval(5, 10): 1,
        }

    def test_difference_requires_monus(self):
        from repro.semirings import TROPICAL

        tropical_t = PeriodSemiring(TROPICAL, DOMAIN)
        relation = PeriodKRelation.from_periods(tropical_t, ("x",), [((1,), 0, 5, 3)])
        with pytest.raises(SemiringError):
            relation.difference(relation)

    def test_rename(self):
        renamed = works().rename({"skill": "ability"})
        assert renamed.schema == ("name", "ability")

    def test_distinct(self):
        doubled = PeriodKRelation.from_periods(
            NT, ("x",), [((1,), 0, 10, 3), ((1,), 5, 12, 2)]
        )
        distinct = doubled.distinct()
        assert distinct.annotation((1,)).mapping == {Interval(0, 12): 1}


class TestAggregation:
    def test_count_with_gaps_matches_figure_1b(self):
        selected = works().select(Comparison("=", attr("skill"), lit("SP")))
        counted = selected.aggregate((), (AggregateSpec("count", None, "cnt"),))
        assert counted.annotation((0,)).mapping == {
            Interval(0, 3): 1,
            Interval(16, 18): 1,
            Interval(20, 24): 1,
        }
        assert counted.annotation((2,)).mapping == {Interval(8, 10): 1}

    def test_grouped_aggregation_has_no_gap_rows(self):
        grouped = works().aggregate(("skill",), (AggregateSpec("count", None, "cnt"),))
        # Groups exist only while a member exists: no (skill, 0) rows.
        assert all(row[1] > 0 for row in grouped.rows())
        assert grouped.annotation(("SP", 2)).mapping == {Interval(8, 10): 1}

    def test_aggregation_multiplicity_weighting(self):
        relation = PeriodKRelation.from_periods(NT, ("v",), [((10,), 0, 10, 3)])
        result = relation.aggregate(
            (), (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("v"), "s"))
        )
        assert result.annotation((3, 30)).mapping == {Interval(0, 10): 1}
        assert result.annotation((0, None)).mapping == {Interval(10, 24): 1}

    def test_unknown_group_attribute(self):
        with pytest.raises(ValueError):
            works().aggregate(("missing",), (AggregateSpec("count", None, "c"),))

    def test_aggregation_restricted_to_n_and_b(self):
        from repro.semirings import TROPICAL

        tropical_t = PeriodSemiring(TROPICAL, DOMAIN)
        relation = PeriodKRelation.from_periods(tropical_t, ("x",), [((1,), 0, 5, 3)])
        with pytest.raises(SemiringError):
            relation.aggregate((), (AggregateSpec("count", None, "c"),))


class TestNullEndPoints:
    def test_from_periods_skips_null_end_points(self):
        """A fact with a NULL end point holds at no point, as in ``period_decode``."""
        relation = PeriodKRelation.from_periods(
            NT, ("a",), [(("x",), None, 5, 1), (("y",), 3, None, 1), (("z",), 2, 4, 1)]
        )
        assert relation.rows() == [("z",)]
        assert relation.annotation(("z",)).mapping == {Interval(2, 4): 1}


class TestOneInterpreter:
    """Plans over a :class:`PeriodDatabase` run on :func:`repro.abstract_model.evaluate`."""

    @staticmethod
    def database() -> PeriodDatabase:
        database = PeriodDatabase(NATURAL, DOMAIN)
        database.add_relation("works", works())
        database.create_relation(
            "assign", ("mach", "req_skill"), [(("M1", "SP"), 6, 14, 1)]
        )
        return database

    def test_database_is_a_mapping_of_its_relations(self):
        database = self.database()
        assert set(database) == {"works", "assign"} and len(database) == 2
        assert database["works"] == works()
        assert "missing" not in database

    def test_every_operator_returns_a_period_relation(self):
        """Each RA operator keeps the K^T class, and an aggregation above it evaluates."""
        works_access = RelationAccess("works")
        sp = Comparison("=", attr("skill"), lit("SP"))
        skills = Projection.of_attributes(works_access, "skill")
        required = Rename(
            Projection.of_attributes(RelationAccess("assign"), "req_skill"),
            (("req_skill", "skill"),),
        )
        operators = {
            "constant": ConstantRelation(("skill",), (("SP",), ("XX",))),
            "selection": Selection(works_access, sp),
            "projection": skills,
            "rename": required,
            "join": Join(
                works_access,
                RelationAccess("assign"),
                Comparison("=", attr("skill"), attr("req_skill")),
            ),
            "union": Union(skills, required),
            "difference": Difference(skills, required),
            "distinct": Distinct(skills),
            "aggregation": Aggregation(
                works_access, ("skill",), (AggregateSpec("count", None, "cnt"),)
            ),
        }
        database = self.database()
        for name, plan in operators.items():
            result = evaluate(plan, database)
            assert type(result) is PeriodKRelation, name
            counted = evaluate(
                Aggregation(plan, (), (AggregateSpec("count", None, "cnt"),)), database
            )
            assert type(counted) is PeriodKRelation, name
            # The ungrouped count covers the whole domain, gaps included.
            total = TemporalElement.empty(NATURAL, DOMAIN)
            for _row, element in counted:
                total = total.plus(element)
            assert total == NT.one, name

    def test_constant_rows_hold_at_every_point(self):
        constant = ConstantRelation(("skill",), (("SP",), ("SP",)))
        result = evaluate(constant, self.database())
        assert result.annotation(("SP",)) == NT.from_int(2)
