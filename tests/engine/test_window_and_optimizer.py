"""Unit tests for the rule-based plan optimizer."""

import pytest

from repro.algebra import (
    Comparison,
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
from repro.engine import Database, execute
from repro.planner import optimize
from repro.planner import available_attributes, split_conjuncts


class TestOptimizer:
    @pytest.fixture
    def database(self):
        db = Database()
        db.create_table("r", ("r_id", "r_cat"), [(1, "a"), (2, "b")])
        db.create_table("s", ("s_id", "s_val"), [(1, 10), (2, 20)])
        return db

    def test_split_conjuncts(self):
        predicate = and_(
            Comparison("=", attr("a"), lit(1)),
            and_(Comparison(">", attr("b"), lit(2)), Comparison("<", attr("c"), lit(3))),
        )
        assert len(split_conjuncts(predicate)) == 3

    def test_available_attributes(self, database):
        plan = Join(RelationAccess("r"), RelationAccess("s"), None)
        assert available_attributes(plan, database) == {"r_id", "r_cat", "s_id", "s_val"}
        assert available_attributes(RelationAccess("unknown"), database) is None

    def test_selection_pushed_below_join(self, database):
        plan = Selection(
            Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("r_id"), attr("s_id"))),
            Comparison("=", attr("r_cat"), lit("a")),
        )
        optimized = optimize(plan, database)
        # the top-level operator is now the join, with the selection inside its left input
        assert isinstance(optimized, Join)
        assert isinstance(optimized.left, Selection)
        assert execute(optimized, database).rows == execute(plan, database).rows

    def test_mixed_conjuncts_split_between_inputs(self, database):
        plan = Selection(
            Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("r_id"), attr("s_id"))),
            and_(
                Comparison("=", attr("r_cat"), lit("a")),
                Comparison(">", attr("s_val"), lit(5)),
                Comparison("=", attr("r_id"), attr("s_id")),
            ),
        )
        optimized = optimize(plan, database)
        assert execute(optimized, database).rows == execute(plan, database).rows

    def test_selection_pushed_through_union(self, database):
        plan = Selection(
            Union(RelationAccess("r"), RelationAccess("r")),
            Comparison("=", attr("r_cat"), lit("a")),
        )
        optimized = optimize(plan, database)
        assert isinstance(optimized, Union)
        assert sorted(execute(optimized, database).rows) == sorted(execute(plan, database).rows)

    def test_selection_pushed_through_rename(self, database):
        plan = Selection(
            Rename(RelationAccess("r"), (("r_cat", "category"),)),
            Comparison("=", attr("category"), lit("a")),
        )
        optimized = optimize(plan, database)
        assert isinstance(optimized, Rename)
        assert execute(optimized, database).rows == execute(plan, database).rows

    def test_adjacent_projections_collapse(self, database):
        plan = Projection.of_attributes(
            Projection.of_attributes(RelationAccess("r"), "r_id", "r_cat"), "r_id"
        )
        optimized = optimize(plan, database)
        assert isinstance(optimized, Projection)
        assert isinstance(optimized.child, RelationAccess)
        assert execute(optimized, database).rows == execute(plan, database).rows

    def test_optimizer_preserves_semantics_without_catalog(self, database):
        plan = Selection(
            Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("r_id"), attr("s_id"))),
            Comparison("=", attr("r_cat"), lit("a")),
        )
        optimized = optimize(plan, None)
        assert execute(optimized, database).rows == execute(plan, database).rows
