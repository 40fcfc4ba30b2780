"""Unit tests for the logical algebra operator AST."""

import pytest

from repro.algebra import (
    AggregateSpec,
    Aggregation,
    AlgebraError,
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
    col_eq,
    lit,
)
from repro.algebra.expressions import Comparison


class TestRelationAccess:
    def test_no_children(self):
        assert RelationAccess("works").children() == ()

    def test_period_override(self):
        access = RelationAccess("works", period=("vt_begin", "vt_end"))
        assert access.period == ("vt_begin", "vt_end")


class TestTreeStructure:
    def test_children_and_with_children(self):
        selection = Selection(RelationAccess("r"), Comparison("=", attr("a"), lit(1)))
        assert selection.children() == (RelationAccess("r"),)
        replaced = selection.with_children(RelationAccess("s"))
        assert replaced.child == RelationAccess("s")
        assert replaced.predicate == selection.predicate

    def test_walk_visits_all_nodes(self):
        plan = Union(
            Projection.of_attributes(RelationAccess("r"), "a"),
            Selection(RelationAccess("s"), Comparison("=", attr("a"), lit(1))),
        )
        names = [type(node).__name__ for node in plan.walk()]
        assert names == ["Union", "Projection", "RelationAccess", "Selection", "RelationAccess"]

    def test_binary_with_children(self):
        join = Join(RelationAccess("r"), RelationAccess("s"), col_eq("a", "b"))
        rebuilt = join.with_children(RelationAccess("x"), RelationAccess("y"))
        assert rebuilt.left == RelationAccess("x")
        assert rebuilt.predicate == join.predicate
        assert Difference(RelationAccess("r"), RelationAccess("s")).with_children(
            RelationAccess("a"), RelationAccess("b")
        ) == Difference(RelationAccess("a"), RelationAccess("b"))


class TestProjection:
    def test_of_attributes_shortcut(self):
        projection = Projection.of_attributes(RelationAccess("r"), "a", "b")
        assert projection.output_names == ("a", "b")
        assert projection.columns[0] == (attr("a"), "a")

    def test_repr(self):
        projection = Projection(RelationAccess("r"), ((attr("a"), "x"),))
        assert "AS x" in repr(projection)


class TestAggregateSpec:
    def test_count_star_allows_missing_argument(self):
        spec = AggregateSpec("count", None, "cnt")
        assert spec.argument is None

    def test_other_functions_require_argument(self):
        with pytest.raises(AlgebraError):
            AggregateSpec("sum", None, "total")

    def test_unknown_function_rejected(self):
        with pytest.raises(AlgebraError):
            AggregateSpec("median", attr("a"), "m")

    def test_repr(self):
        assert repr(AggregateSpec("count", None, "cnt")) == "count(*) AS cnt"


class TestAggregation:
    def test_output_names(self):
        aggregation = Aggregation(
            RelationAccess("r"),
            ("g",),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("v"), "s")),
        )
        assert aggregation.output_names == ("g", "cnt", "s")

    def test_repr_mentions_grouping(self):
        aggregation = Aggregation(RelationAccess("r"), (), (AggregateSpec("count", None, "c"),))
        assert "group by ()" in repr(aggregation)


class TestOtherOperators:
    def test_constant_relation(self):
        constant = ConstantRelation(("a", "b"), ((1, 2), (3, 4)))
        assert constant.schema == ("a", "b")
        assert len(constant.rows) == 2

    def test_rename_repr(self):
        assert "a->b" in repr(Rename(RelationAccess("r"), (("a", "b"),)))

    def test_distinct_children(self):
        distinct = Distinct(RelationAccess("r"))
        assert distinct.children() == (RelationAccess("r"),)
        assert distinct.with_children(RelationAccess("s")).child == RelationAccess("s")

    def test_plans_are_hashable_and_comparable(self):
        plan_a = Selection(RelationAccess("r"), col_eq("a", "b"))
        plan_b = Selection(RelationAccess("r"), col_eq("a", "b"))
        assert plan_a == plan_b
        assert len({plan_a, plan_b}) == 1
