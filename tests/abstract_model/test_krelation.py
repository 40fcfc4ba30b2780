"""Unit tests for K-relations and RA^agg over them (the non-temporal layer)."""

import pytest

from repro.abstract_model import KRelation
from repro.algebra import AggregateSpec, Comparison, attr, lit
from repro.semirings import BOOLEAN, NATURAL, POLYNOMIAL, SemiringError, TROPICAL
from repro.semirings.provenance import Polynomial


def works_relation():
    return KRelation(
        NATURAL,
        ("name", "skill"),
        {("Pete", "SP"): 1, ("Bob", "SP"): 1, ("Alice", "NS"): 1},
    )


def assign_relation():
    return KRelation(NATURAL, ("mach", "req_skill"), {("M1", "SP"): 4, ("M2", "NS"): 5})


class TestConstruction:
    def test_zero_annotations_not_stored(self):
        relation = KRelation(NATURAL, ("a",), {(1,): 0})
        assert len(relation) == 0
        assert (1,) not in relation

    def test_from_rows_accumulates_duplicates(self):
        relation = KRelation.from_rows(NATURAL, ("a",), [(1,), (1,), (2,)])
        assert relation.annotation((1,)) == 2
        assert relation.annotation((2,)) == 1

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KRelation(NATURAL, ("a", "b"), {(1,): 1})

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            KRelation(NATURAL, ("a", "a"))

    def test_add_to_zero_removes_row(self):
        relation = KRelation(BOOLEAN, ("a",))
        relation.add((1,), True)
        assert (1,) in relation
        # adding False keeps it; B has no negative elements so rows never vanish
        relation.add((1,), False)
        assert relation.annotation((1,)) is True


class TestPositiveAlgebra:
    def test_select(self):
        selected = works_relation().select(Comparison("=", attr("skill"), lit("SP")))
        assert set(selected.rows()) == {("Pete", "SP"), ("Bob", "SP")}

    def test_project_sums_annotations(self):
        projected = works_relation().project([(attr("skill"), "skill")])
        assert projected.annotation(("SP",)) == 2
        assert projected.annotation(("NS",)) == 1

    def test_join_multiplies_annotations_paper_example_4_1(self):
        joined = works_relation().join(
            assign_relation(), Comparison("=", attr("skill"), attr("req_skill"))
        )
        result = joined.project([(attr("mach"), "mach")])
        assert result.annotation(("M1",)) == 8
        assert result.annotation(("M2",)) == 5

    def test_join_requires_disjoint_schemas(self):
        with pytest.raises(ValueError):
            works_relation().join(works_relation())

    def test_union_adds(self):
        a = KRelation(NATURAL, ("x",), {(1,): 2})
        b = KRelation(NATURAL, ("x",), {(1,): 3, (2,): 1})
        union = a.union(b)
        assert union.annotation((1,)) == 5
        assert union.annotation((2,)) == 1

    def test_union_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KRelation(NATURAL, ("x",)).union(KRelation(NATURAL, ("x", "y")))

    def test_union_semiring_mismatch_rejected(self):
        with pytest.raises(SemiringError):
            KRelation(NATURAL, ("x",)).union(KRelation(BOOLEAN, ("x",)))

    def test_rename(self):
        renamed = works_relation().rename({"skill": "ability"})
        assert renamed.schema == ("name", "ability")
        assert renamed.annotation(("Pete", "SP")) == 1

    def test_rename_unknown_attribute(self):
        with pytest.raises(ValueError):
            works_relation().rename({"nope": "x"})

    def test_homomorphism_commutes_with_query(self):
        """Example 4.1: evaluating in N then mapping to B equals set semantics."""
        joined = works_relation().join(
            assign_relation(), Comparison("=", attr("skill"), attr("req_skill"))
        )
        n_result = joined.project([(attr("mach"), "mach")])
        b_result = KRelation(
            BOOLEAN, n_result.schema, {row: ann > 0 for row, ann in n_result}
        )
        set_works = KRelation(
            BOOLEAN, ("name", "skill"), {row: True for row, _ in works_relation()}
        )
        set_assign = KRelation(
            BOOLEAN, ("mach", "req_skill"), {row: True for row, _ in assign_relation()}
        )
        direct = set_works.join(
            set_assign, Comparison("=", attr("skill"), attr("req_skill"))
        ).project([(attr("mach"), "mach")])
        assert b_result == direct


class TestDifference:
    def test_bag_difference(self):
        a = KRelation(NATURAL, ("x",), {(1,): 3, (2,): 1})
        b = KRelation(NATURAL, ("x",), {(1,): 1, (2,): 5})
        difference = a.difference(b)
        assert difference.annotation((1,)) == 2
        assert (2,) not in difference

    def test_set_difference(self):
        a = KRelation(BOOLEAN, ("x",), {(1,): True, (2,): True})
        b = KRelation(BOOLEAN, ("x",), {(1,): True})
        assert set(a.difference(b).rows()) == {(2,)}

    def test_difference_requires_monus(self):
        a = KRelation(TROPICAL, ("x",), {(1,): 3})
        with pytest.raises(SemiringError):
            a.difference(a)


class TestDistinct:
    def test_multiplicities_collapse_to_one(self):
        relation = KRelation(NATURAL, ("x",), {(1,): 5, (2,): 2})
        distinct = relation.distinct()
        assert distinct.annotation((1,)) == 1
        assert distinct.annotation((2,)) == 1


class TestAggregation:
    def test_count_weighs_multiplicities(self):
        relation = KRelation(NATURAL, ("g", "v"), {("a", 10): 2, ("a", 20): 1, ("b", 5): 1})
        result = relation.aggregate(("g",), (AggregateSpec("count", None, "cnt"),))
        assert result.annotation(("a", 3)) == 1
        assert result.annotation(("b", 1)) == 1

    def test_sum_and_avg_weigh_multiplicities(self):
        relation = KRelation(NATURAL, ("v",), {(10,): 2, (40,): 1})
        result = relation.aggregate(
            (),
            (
                AggregateSpec("sum", attr("v"), "total"),
                AggregateSpec("avg", attr("v"), "mean"),
            ),
        )
        assert result.rows() == [(60, 20.0)]

    def test_min_max_ignore_multiplicities(self):
        relation = KRelation(NATURAL, ("v",), {(10,): 5, (40,): 1})
        result = relation.aggregate(
            (), (AggregateSpec("min", attr("v"), "lo"), AggregateSpec("max", attr("v"), "hi"))
        )
        assert result.rows() == [(10, 40)]

    def test_empty_input_without_grouping_yields_row(self):
        relation = KRelation(NATURAL, ("v",))
        result = relation.aggregate(
            (), (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("v"), "s"))
        )
        assert result.rows() == [(0, None)]

    def test_empty_input_with_grouping_yields_nothing(self):
        relation = KRelation(NATURAL, ("g", "v"))
        result = relation.aggregate(("g",), (AggregateSpec("count", None, "cnt"),))
        assert len(result) == 0

    def test_nulls_ignored(self):
        relation = KRelation(NATURAL, ("v",), {(None,): 2, (10,): 1})
        result = relation.aggregate(
            (),
            (
                AggregateSpec("count", attr("v"), "cnt"),
                AggregateSpec("sum", attr("v"), "total"),
            ),
        )
        assert result.rows() == [(1, 10)]

    def test_boolean_relation_counts_distinct_tuples(self):
        relation = KRelation(BOOLEAN, ("g", "v"), {("a", 1): True, ("a", 2): True})
        result = relation.aggregate(("g",), (AggregateSpec("count", None, "cnt"),))
        assert result.annotation(("a", 2)) == True  # noqa: E712

    def test_aggregation_rejected_for_other_semirings(self):
        relation = KRelation(POLYNOMIAL, ("v",), {(1,): Polynomial.variable("x")})
        with pytest.raises(SemiringError):
            relation.aggregate((), (AggregateSpec("count", None, "cnt"),))

    def test_unknown_group_by_attribute(self):
        with pytest.raises(ValueError):
            works_relation().aggregate(("nope",), (AggregateSpec("count", None, "c"),))


class TestViews:
    def test_equality(self):
        assert works_relation() == works_relation()
        assert works_relation() != assign_relation()
