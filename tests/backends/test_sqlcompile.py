"""Unit tests for the plan-to-SQL compiler, one operator at a time.

Each operator (including the rewriter's physical coalesce/split/temporal
aggregate) is compiled to SQL, run on sqlite3, and compared against the
in-memory engine on the same hand-built inputs -- multiset equality, since
both are bag-semantics evaluators.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.expressions import Arithmetic, Comparison, and_, attr, col_eq, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.backends import SQLCompiler, SQLiteBackend, compile_plan
from repro.engine.catalog import Database
from repro.errors import BackendError
from repro.engine.executor import execute
from repro.rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)


@pytest.fixture
def database() -> Database:
    db = Database()
    db.create_table(
        "r",
        ["x", "y", "t_begin", "t_end"],
        [
            ("a", 1, 0, 10),
            ("a", 1, 5, 15),
            ("a", 2, 0, 4),
            ("b", None, 2, 8),
            ("b", 3, 2, 8),
        ],
        period=("t_begin", "t_end"),
    )
    db.create_table(
        "s",
        ["u", "v", "t_begin2", "t_end2"],
        [("a", 9, 1, 6), ("c", 8, 0, 20), ("a", 9, 1, 6)],
        period=("t_begin2", "t_end2"),
    )
    return db


def run_both(plan, database):
    mem = execute(plan, database)
    sql = SQLiteBackend().execute(plan, database)
    return mem, sql


def assert_same(plan, database):
    mem, sql = run_both(plan, database)
    assert mem.schema == sql.schema
    assert Counter(mem.rows) == Counter(sql.rows)


class TestRelationalOperators:
    def test_relation_access(self, database):
        assert_same(RelationAccess("r"), database)

    def test_unknown_relation(self, database):
        with pytest.raises(BackendError):
            compile_plan(RelationAccess("nope"), database)

    def test_constant_relation(self, database):
        constant = ConstantRelation(
            ("k", "w"), ((None, 1), ("x'y", 2), ("x'y", 2))
        )
        assert_same(constant, database)

    def test_empty_constant_relation(self, database):
        assert_same(ConstantRelation(("k",), ()), database)

    def test_selection(self, database):
        plan = Selection(RelationAccess("r"), Comparison(">", attr("y"), lit(1)))
        assert_same(plan, database)

    def test_selection_null_semantics(self, database):
        # y IS NULL rows must be dropped by y != 3 exactly like the engine.
        plan = Selection(RelationAccess("r"), Comparison("!=", attr("y"), lit(3)))
        mem, sql = run_both(plan, database)
        assert Counter(mem.rows) == Counter(sql.rows)
        assert all(row[1] is not None for row in sql.rows)

    def test_projection_duplicates_preserved(self, database):
        plan = Projection.of_attributes(RelationAccess("r"), "x")
        mem, sql = run_both(plan, database)
        assert len(sql) == 5  # bag semantics: no implicit dedup
        assert Counter(mem.rows) == Counter(sql.rows)

    def test_projection_expressions(self, database):
        plan = Projection(
            RelationAccess("r"),
            ((attr("x"), "x"), (Comparison("<", attr("t_begin"), lit(3)), "early"),),
        )
        mem, sql = run_both(plan, database)
        # Engine produces booleans, SQLite 0/1; they compare equal in Python.
        assert Counter(mem.rows) == Counter(sql.rows)

    def test_rename(self, database):
        plan = Rename(RelationAccess("s"), (("u", "k"), ("v", "w")))
        assert_same(plan, database)

    def test_rename_unknown_attribute(self, database):
        with pytest.raises(BackendError):
            compile_plan(Rename(RelationAccess("s"), (("zz", "k"),)), database)

    def test_join_with_predicate(self, database):
        plan = Join(RelationAccess("r"), RelationAccess("s"), col_eq("x", "u"))
        assert_same(plan, database)

    def test_cross_join(self, database):
        assert_same(Join(RelationAccess("r"), RelationAccess("s")), database)

    def test_self_join_via_rename(self, database):
        renamed = Rename(
            RelationAccess("s"),
            (("u", "u2"), ("v", "v2"), ("t_begin2", "b2"), ("t_end2", "e2")),
        )
        plan = Join(RelationAccess("s"), renamed, col_eq("u", "u2"))
        assert_same(plan, database)

    def test_join_shared_attributes_rejected(self, database):
        with pytest.raises(BackendError):
            compile_plan(Join(RelationAccess("r"), RelationAccess("r")), database)

    def test_union_all(self, database):
        left = Projection.of_attributes(RelationAccess("r"), "x")
        right = Projection.of_attributes(RelationAccess("s"), "u")
        assert_same(Union(left, right), database)

    def test_distinct(self, database):
        plan = Distinct(Projection.of_attributes(RelationAccess("r"), "x"))
        assert_same(plan, database)


class TestDifference:
    def test_multiplicities(self, database):
        left = Projection.of_attributes(RelationAccess("r"), "x")
        right = Rename(Projection.of_attributes(RelationAccess("s"), "u"), (("u", "x"),))
        assert_same(Difference(left, right), database)

    def test_difference_with_nulls(self, database):
        # NULL values must group together (Python None semantics).
        left = Projection.of_attributes(RelationAccess("r"), "y")
        right = ConstantRelation(("y",), ((None,), (1,)))
        assert_same(Difference(left, right), database)

    def test_exhaustive_small_multisets(self, database):
        values = ["p", "p", "p", "q", None]
        db = Database()
        db.create_table("left_t", ["x"], [(v,) for v in values])
        db.create_table("right_t", ["x"], [("p",), (None,), (None,)])
        plan = Difference(RelationAccess("left_t"), RelationAccess("right_t"))
        mem, sql = run_both(plan, db)
        assert Counter(mem.rows) == Counter(sql.rows) == Counter({("p",): 2, ("q",): 1})


class TestAggregation:
    def test_grouped(self, database):
        plan = Aggregation(
            RelationAccess("r"),
            ("x",),
            (
                AggregateSpec("count", None, "cnt"),
                AggregateSpec("count", attr("y"), "cnt_y"),
                AggregateSpec("sum", attr("y"), "total"),
                AggregateSpec("avg", attr("y"), "mean"),
                AggregateSpec("min", attr("y"), "low"),
                AggregateSpec("max", attr("y"), "high"),
            ),
        )
        assert_same(plan, database)

    def test_ungrouped_on_empty_input_yields_one_row(self, database):
        empty = Selection(RelationAccess("r"), Comparison(">", attr("y"), lit(99)))
        plan = Aggregation(
            empty,
            (),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("y"), "s")),
        )
        mem, sql = run_both(plan, database)
        assert Counter(mem.rows) == Counter(sql.rows) == Counter({(0, None): 1})

    def test_grouped_on_empty_input_yields_no_rows(self, database):
        empty = Selection(RelationAccess("r"), Comparison(">", attr("y"), lit(99)))
        plan = Aggregation(empty, ("x",), (AggregateSpec("count", None, "cnt"),))
        mem, sql = run_both(plan, database)
        assert len(mem) == len(sql) == 0


class TestTemporalOperators:
    def test_coalesce_matches_engine(self, database):
        plan = CoalesceOperator(RelationAccess("r"))
        assert_same(plan, database)

    def test_coalesce_keeps_multiplicities(self, database):
        db = Database()
        db.create_table(
            "m",
            ["x", "t_begin", "t_end"],
            [("a", 0, 10)] * 3 + [("a", 5, 20)] * 2,
            period=("t_begin", "t_end"),
        )
        plan = CoalesceOperator(RelationAccess("m"))
        mem, sql = run_both(plan, db)
        expected = Counter(
            {("a", 0, 5): 3, ("a", 5, 10): 5, ("a", 10, 20): 2}
        )
        assert Counter(mem.rows) == Counter(sql.rows) == expected

    def test_coalesce_drops_degenerate_intervals(self, database):
        db = Database()
        db.create_table(
            "m", ["x", "t_begin", "t_end"], [("a", 5, 5), ("a", 7, 3)],
            period=("t_begin", "t_end"),
        )
        mem, sql = run_both(CoalesceOperator(RelationAccess("m")), db)
        assert len(mem) == len(sql) == 0

    def test_coalesce_custom_period_names(self, database):
        plan = CoalesceOperator(RelationAccess("s"), period=("t_begin2", "t_end2"))
        assert_same(plan, database)

    def test_split_matches_engine(self, database):
        plan = SplitOperator(RelationAccess("r"), RelationAccess("r"), ("x",))
        assert_same(plan, database)

    def test_split_empty_group_by(self, database):
        plan = SplitOperator(RelationAccess("r"), RelationAccess("r"), ())
        assert_same(plan, database)

    def test_split_missing_group_attribute(self, database):
        plan = SplitOperator(RelationAccess("r"), RelationAccess("r"), ("zz",))
        with pytest.raises(BackendError):
            compile_plan(plan, database)

    def test_temporal_aggregate_matches_engine(self, database):
        plan = TemporalAggregateOperator(
            RelationAccess("r"),
            ("x",),
            (
                AggregateSpec("count", attr("y"), "cnt"),
                AggregateSpec("sum", attr("y"), "total"),
                AggregateSpec("min", attr("y"), "low"),
            ),
        )
        assert_same(plan, database)

    def test_temporal_aggregate_ungrouped(self, database):
        plan = TemporalAggregateOperator(
            RelationAccess("r"), (), (AggregateSpec("count", attr("x"), "cnt"),)
        )
        assert_same(plan, database)

    def test_decomposable_aggregates_run_as_one_sweep(self, database):
        """count/sum/avg need no join of segments with the rows covering them."""
        plan = TemporalAggregateOperator(
            RelationAccess("r"),
            ("x",),
            (
                AggregateSpec("count", None, "rows"),
                AggregateSpec("count", attr("y"), "cnt"),
                AggregateSpec("sum", attr("y"), "total"),
                AggregateSpec("avg", attr("y"), "mean"),
            ),
        )
        assert " JOIN " not in compile_plan(plan, database).sql
        # Group b holds a NULL y next to a 3: counted in rows, not in cnt.
        assert_same(plan, database)

    def test_swept_sum_and_avg_of_all_null_segments_are_null(self, database):
        db = Database()
        db.create_table(
            "m",
            ["g", "v", "t_begin", "t_end"],
            [("a", None, 0, 10), ("a", 2.5, 5, 8), ("a", 4, 5, 12), ("b", None, 1, 2)],
            period=("t_begin", "t_end"),
        )
        plan = TemporalAggregateOperator(
            RelationAccess("m"),
            ("g",),
            (AggregateSpec("sum", attr("v"), "total"), AggregateSpec("avg", attr("v"), "mean")),
        )
        mem, sql = run_both(plan, db)
        assert Counter(mem.rows) == Counter(sql.rows)
        assert ("a", None, None, 0, 5) in sql.rows and ("b", None, None, 1, 2) in sql.rows

    def test_swept_aggregate_over_expression_arguments(self, database):
        plan = TemporalAggregateOperator(
            Selection(RelationAccess("r"), Comparison(">=", attr("t_end"), lit(5))),
            ("x",),
            (AggregateSpec("sum", Arithmetic("*", attr("y"), lit(2)), "doubled"),),
        )
        assert_same(plan, database)


def _base_rows(plan, database):
    """The join-order rule, restated: rows of every leaf occurrence beneath ``plan``."""
    versions = database.snapshot()
    return sum(
        versions[node.name].count if isinstance(node, RelationAccess) else len(node.rows)
        for node in plan.walk()
        if isinstance(node, (RelationAccess, ConstantRelation))
    )


class TestJoinOrder:
    """Which ``CROSS JOIN`` input SQLite loops over: the one with more base rows beneath it."""

    @pytest.fixture
    def db(self) -> Database:
        db = Database()
        db.create_table("big", ["k", "p"], [(i % 7, i) for i in range(50)])
        db.create_table("small", ["j", "q"], [(i, i) for i in range(5)])
        db.create_table("twin", ["m", "w"], [(i, -i) for i in range(5)])
        return db

    def test_the_larger_input_goes_outside_from_either_side(self, db):
        left = Join(RelationAccess("big"), RelationAccess("small"), col_eq("k", "j"))
        right = Join(RelationAccess("small"), RelationAccess("big"), col_eq("j", "k"))
        assert 'FROM "big" AS __l CROSS JOIN "small" AS __r' in compile_plan(left, db).sql
        assert 'FROM "big" AS __r CROSS JOIN "small" AS __l' in compile_plan(right, db).sql
        for plan in (left, right):
            assert_same(plan, db)

    def test_a_tie_keeps_the_left_input_outside(self, db):
        for first, second in (("small", "twin"), ("twin", "small")):
            plan = Join(RelationAccess(first), RelationAccess(second))
            sql = compile_plan(plan, db).sql
            assert f'FROM "{first}" AS __l CROSS JOIN "{second}" AS __r' in sql
            assert_same(plan, db)

    def test_a_filter_does_not_shrink_its_input(self, db):
        """Base rows, not an estimate: one surviving row of ``big`` still counts 50."""
        filtered = Selection(RelationAccess("big"), Comparison("=", attr("p"), lit(7)))
        plan = Join(RelationAccess("small"), filtered, col_eq("j", "k"))
        assert 'FROM "big" AS __r CROSS JOIN "small" AS __l' in compile_plan(plan, db).sql
        assert_same(plan, db)

    def test_an_operator_counts_the_sum_of_its_inputs(self, db):
        """``small`` + ``twin`` (10) beneath the inner join outweighs a 6-row table."""
        db.create_table("six", ["s", "z"], [(i, i) for i in range(6)])
        pair = Join(RelationAccess("small"), RelationAccess("twin"), col_eq("j", "m"))
        plan = Join(RelationAccess("six"), pair, col_eq("s", "j"))
        sql = compile_plan(plan, db).sql
        assert 'AS __r CROSS JOIN "six" AS __l' in sql
        assert 'FROM "six" AS __l' not in sql
        assert_same(plan, db)

    def test_a_constant_relation_counts_its_rows(self, db):
        constant = ConstantRelation(("c", "n"), tuple((i, i) for i in range(6)))
        smaller = Join(constant, RelationAccess("small"), col_eq("c", "j"))
        larger = Join(constant, RelationAccess("big"), col_eq("c", "k"))
        assert 'AS __l CROSS JOIN "small" AS __r' in compile_plan(smaller, db).sql
        assert 'FROM "big" AS __r CROSS JOIN' in compile_plan(larger, db).sql
        for plan in (smaller, larger):
            assert_same(plan, db)

    def test_a_recompile_reads_the_new_version_after_a_write(self, db):
        plan = Join(RelationAccess("small"), RelationAccess("big"), col_eq("j", "k"))
        assert 'FROM "big" AS __r' in compile_plan(plan, db).sql
        db.insert("small", [(i, i) for i in range(5, 55)])  # 55 rows against 50
        assert 'FROM "small" AS __l' in compile_plan(plan, db).sql
        assert_same(plan, db)
        db.delete("small", [(i, i) for i in range(5, 55)])
        assert 'FROM "big" AS __r' in compile_plan(plan, db).sql
        db.table("small").extend([(i, i) for i in range(5, 55)])  # behind the catalog's back
        assert 'FROM "small" AS __l' in compile_plan(plan, db).sql

    def test_either_order_is_the_same_bag(self, db, monkeypatch):
        """Flipping every join's order changes the SQL, never the result."""
        db.create_table("dim", ["d", "e"], [(0, "x"), (1, "y")])
        inner = Join(
            Selection(RelationAccess("big"), Comparison("<", attr("p"), lit(20))),
            RelationAccess("dim"),
            col_eq("k", "d"),
        )
        plan = Join(inner, RelationAccess("small"), col_eq("k", "j"))
        expected = Counter(execute(plan, db).rows)
        statements = set()
        for flipped in (False, True):
            if flipped:  # the smaller input outside, everywhere
                monkeypatch.setattr(SQLCompiler, "_rows", lambda self, node: -_base_rows(node, db))
            statements.add(compile_plan(plan, db).sql)
            backend = SQLiteBackend.for_database(db, optimize=False)
            try:
                assert Counter(backend.execute(plan, db).rows) == expected
            finally:
                backend.close()
        assert len(statements) == 2


class TestCompilerMechanics:
    def test_deep_plans_stay_flat(self, database):
        """30+ stacked operators must compile (CTE chain, no parser overflow)."""
        plan = RelationAccess("r")
        for _ in range(40):
            plan = Selection(plan, Comparison(">=", attr("t_end"), lit(0)))
        assert_same(plan, database)

    def test_shared_subplans_compile_once(self, database):
        shared = Selection(RelationAccess("r"), Comparison(">", attr("y"), lit(0)))
        plan = SplitOperator(shared, shared, ("x",))
        compiled = compile_plan(plan, database)
        # The shared child appears as one CTE, referenced twice.
        assert compiled.sql.count('FROM "r"') == 1
        assert_same(plan, database)

    def test_structurally_equal_subplans_compile_once(self, database):
        """Memoisation is structural: equal sub-plans need not be one object."""

        def joined():
            return Join(RelationAccess("r"), RelationAccess("s"), col_eq("x", "u"))

        first = Projection.of_attributes(joined(), "x", "v")
        second = Projection.of_attributes(joined(), "x", "v")
        assert first.child is not second.child
        plan = Difference(first, second)
        compiled = compile_plan(plan, database)
        assert compiled.sql.count("CROSS JOIN") == 1
        assert_same(plan, database)

    def test_linear_chains_fuse_into_the_consuming_block(self, database):
        """Rename / Projection / Selection edit a SELECT block; only breakers get CTEs."""
        chain = Selection(
            Rename(
                Projection.of_attributes(
                    Selection(RelationAccess("r"), Comparison(">", attr("y"), lit(0))),
                    "x",
                    "y",
                ),
                (("y", "z"),),
            ),
            Comparison("<", attr("z"), lit(3)),
        )
        compiled = compile_plan(chain, database)
        assert compiled.sql == 'SELECT "x", "y" AS "z" FROM "r"\nWHERE "y" > 0 AND "y" < 3'
        assert_same(chain, database)
        assert compile_plan(Distinct(chain), database).sql.count(" AS (") == 1

    def test_computed_columns_are_not_copied_into_later_expressions(self, database):
        plan = RelationAccess("r")
        for _ in range(12):
            plan = Projection(
                plan,
                ((attr("x"), "x"), (Arithmetic("+", attr("y"), attr("y")), "y")),
            )
        compiled = compile_plan(plan, database)
        assert len(compiled.sql) < 2_000  # linear; substitution would double per level
        assert_same(plan, database)

    def test_group_by_constant_column_is_not_positional(self, database):
        constant = Projection(RelationAccess("r"), ((attr("y"), "y"), (lit(1), "one")))
        plan = Aggregation(constant, ("one",), (AggregateSpec("sum", attr("y"), "total"),))
        assert_same(plan, database)

    def test_helper_column_names_are_reserved(self, database):
        db = Database()
        db.create_table("t", ["__ts", "t_begin", "t_end"], [(1, 0, 5)])
        with pytest.raises(BackendError, match="helper columns"):
            compile_plan(CoalesceOperator(RelationAccess("t")), db)

    def test_zero_column_relation_rejected(self, database):
        with pytest.raises(BackendError):
            compile_plan(ConstantRelation((), ((),)), database)

    def test_compiled_sql_is_one_statement(self, database):
        compiled = compile_plan(CoalesceOperator(RelationAccess("r")), database)
        assert compiled.sql.lstrip().upper().startswith("WITH RECURSIVE")
        assert ";" not in compiled.sql
