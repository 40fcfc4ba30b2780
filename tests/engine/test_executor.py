"""Unit tests for the multiset plan executor (bag semantics, physical choices)."""

import pytest

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
    and_,
    attr,
    lit,
)
from repro.engine import Database, ExecutorError, execute


@pytest.fixture
def database():
    db = Database()
    db.create_table("r", ("r_id", "r_cat", "r_val"), [(1, "a", 10), (2, "a", 20), (3, "b", 30)])
    db.create_table("s", ("s_id", "s_val"), [(1, 100), (1, 100), (2, 200)])
    return db


class TestBasicOperators:
    def test_scan(self, database):
        assert len(execute(RelationAccess("r"), database)) == 3

    def test_scan_with_alias_renames_table_only(self, database):
        result = execute(RelationAccess("r", alias="r2"), database)
        assert result.name == "r2"
        assert result.schema == ("r_id", "r_cat", "r_val")

    def test_unknown_relation(self, database):
        with pytest.raises(Exception):
            execute(RelationAccess("missing"), database)

    def test_selection(self, database):
        result = execute(
            Selection(RelationAccess("r"), Comparison("=", attr("r_cat"), lit("a"))), database
        )
        assert len(result) == 2

    def test_projection_preserves_duplicates(self, database):
        result = execute(Projection.of_attributes(RelationAccess("s"), "s_val"), database)
        assert sorted(result.rows) == [(100,), (100,), (200,)]

    def test_projection_with_expression(self, database):
        from repro.algebra.expressions import Arithmetic

        result = execute(
            Projection(RelationAccess("r"), ((Arithmetic("*", attr("r_val"), lit(2)), "double"),)),
            database,
        )
        assert sorted(result.rows) == [(20,), (40,), (60,)]

    def test_rename(self, database):
        result = execute(Rename(RelationAccess("s"), (("s_val", "amount"),)), database)
        assert result.schema == ("s_id", "amount")

    def test_rename_unknown_attribute(self, database):
        with pytest.raises(ExecutorError):
            execute(Rename(RelationAccess("s"), (("missing", "x"),)), database)

    def test_constant(self, database):
        result = execute(ConstantRelation(("x",), ((1,), (2,))), database)
        assert result.rows == [(1,), (2,)]

    def test_distinct(self, database):
        result = execute(Distinct(Projection.of_attributes(RelationAccess("s"), "s_id")), database)
        assert sorted(result.rows) == [(1,), (2,)]


class TestJoins:
    def test_equi_join_uses_hash_join(self, database):
        statistics = {}
        result = execute(
            Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("r_id"), attr("s_id"))),
            database,
            statistics,
        )
        assert len(result) == 3  # r1 matches the two duplicate s rows, r2 one
        assert statistics.get("join_strategy.hash") == 1

    def test_theta_join_falls_back_to_nested_loop(self, database):
        statistics = {}
        result = execute(
            Join(RelationAccess("r"), RelationAccess("s"), Comparison("<", attr("r_id"), attr("s_id"))),
            database,
            statistics,
        )
        assert len(result) == 1  # only r_id=1 < s_id=2
        assert statistics.get("join_strategy.nested_loop") == 1

    def test_equality_with_residual(self, database):
        predicate = and_(
            Comparison("=", attr("r_id"), attr("s_id")),
            Comparison(">", attr("s_val"), lit(150)),
        )
        result = execute(Join(RelationAccess("r"), RelationAccess("s"), predicate), database)
        assert len(result) == 1

    def test_cross_product(self, database):
        result = execute(Join(RelationAccess("r"), RelationAccess("s")), database)
        assert len(result) == 9

    def test_overlapping_schemas_rejected(self, database):
        with pytest.raises(ExecutorError):
            execute(Join(RelationAccess("r"), RelationAccess("r")), database)


class TestSetOperations:
    def test_union_all(self, database):
        plan = Union(
            Projection.of_attributes(RelationAccess("r"), "r_id"),
            Projection.of_attributes(RelationAccess("s"), "s_id"),
        )
        assert len(execute(plan, database)) == 6

    def test_union_arity_mismatch(self, database):
        plan = Union(RelationAccess("r"), RelationAccess("s"))
        with pytest.raises(ExecutorError):
            execute(plan, database)

    def test_except_all_respects_multiplicities(self, database):
        left = Projection.of_attributes(RelationAccess("s"), "s_id")  # 1,1,2
        right = ConstantRelation(("x",), ((1,),))
        result = execute(Difference(left, right), database)
        assert sorted(result.rows) == [(1,), (2,)]

    def test_except_all_truncates_at_zero(self, database):
        left = ConstantRelation(("x",), ((1,),))
        right = ConstantRelation(("x",), ((1,), (1,)))
        assert execute(Difference(left, right), database).rows == []


class TestAggregation:
    def test_grouped_aggregation(self, database):
        plan = Aggregation(
            RelationAccess("r"),
            ("r_cat",),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("r_val"), "total")),
        )
        result = execute(plan, database)
        assert sorted(result.rows) == [("a", 2, 30), ("b", 1, 30)]

    def test_global_aggregation_on_empty_input(self, database):
        plan = Aggregation(
            Selection(RelationAccess("r"), Comparison("=", attr("r_cat"), lit("zzz"))),
            (),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("avg", attr("r_val"), "mean")),
        )
        assert execute(plan, database).rows == [(0, None)]

    def test_min_max(self, database):
        plan = Aggregation(
            RelationAccess("r"),
            (),
            (AggregateSpec("min", attr("r_val"), "lo"), AggregateSpec("max", attr("r_val"), "hi")),
        )
        assert execute(plan, database).rows == [(10, 30)]

    def test_unknown_group_attribute(self, database):
        plan = Aggregation(RelationAccess("r"), ("nope",), (AggregateSpec("count", None, "c"),))
        with pytest.raises(ExecutorError):
            execute(plan, database)
