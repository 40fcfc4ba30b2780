"""Unit + property tests for the sort-merge interval join."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Comparison, Join, RelationAccess, Selection, and_, attr, lit
from repro.engine import Database, execute

from tests.strategies import without_interval_join


def bag(table):
    return Counter(table.rows)


def overlap_predicate():
    return and_(
        Comparison("<", attr("l_begin"), attr("r_end")),
        Comparison("<", attr("r_begin"), attr("l_end")),
    )


def make_database(left_rows, right_rows):
    db = Database()
    db.create_table("l", ("l_id", "l_key", "l_begin", "l_end"), left_rows)
    db.create_table("r", ("r_id", "r_key", "r_begin", "r_end"), right_rows)
    return db


class TestIntervalJoin:
    @pytest.fixture
    def database(self):
        return make_database(
            [(1, "a", 0, 5), (2, "a", 4, 9), (3, "b", 10, 12)],
            [(10, "a", 3, 6), (20, "b", 11, 15), (30, "a", 20, 25)],
        )

    def test_overlap_pattern_uses_interval_strategy(self, database):
        statistics = {}
        plan = Join(RelationAccess("l"), RelationAccess("r"), overlap_predicate())
        result = execute(plan, database, statistics)
        assert statistics.get("join_strategy.interval") == 1
        baseline = execute(without_interval_join(plan), database)
        assert bag(result) == bag(baseline)
        assert len(result) > 0

    def test_disabled_interval_join_falls_back_to_nested_loop(self, database):
        statistics = {}
        plan = Join(RelationAccess("l"), RelationAccess("r"), overlap_predicate())
        execute(without_interval_join(plan), database, statistics)
        assert statistics.get("join_strategy.nested_loop") == 1
        assert "join_strategy.interval" not in statistics

    def test_equality_conjunct_partitions_the_sweep(self, database):
        statistics = {}
        plan = Join(
            RelationAccess("l"),
            RelationAccess("r"),
            and_(
                Comparison("=", attr("l_key"), attr("r_key")), overlap_predicate()
            ),
        )
        result = execute(plan, database, statistics)
        assert statistics.get("join_strategy.interval") == 1
        baseline = execute(without_interval_join(plan), database)
        assert bag(result) == bag(baseline)

    def test_reversed_comparisons_are_normalised(self, database):
        plan = Join(
            RelationAccess("l"),
            RelationAccess("r"),
            and_(
                Comparison(">", attr("r_end"), attr("l_begin")),
                Comparison(">", attr("l_end"), attr("r_begin")),
            ),
        )
        statistics = {}
        result = execute(plan, database, statistics)
        assert statistics.get("join_strategy.interval") == 1
        assert bag(result) == bag(execute(without_interval_join(plan), database))

    def test_extra_residual_conjunct_filters_pairs(self, database):
        plan = Join(
            RelationAccess("l"),
            RelationAccess("r"),
            and_(overlap_predicate(), Comparison(">", attr("r_id"), lit(15))),
        )
        statistics = {}
        result = execute(plan, database, statistics)
        assert statistics.get("join_strategy.interval") == 1
        assert bag(result) == bag(execute(without_interval_join(plan), database))

    def test_single_direction_comparison_is_not_an_interval_join(self, database):
        plan = Join(
            RelationAccess("l"),
            RelationAccess("r"),
            Comparison("<", attr("l_begin"), attr("r_end")),
        )
        statistics = {}
        execute(plan, database, statistics)
        assert statistics.get("join_strategy.nested_loop") == 1

    def test_degenerate_intervals_follow_raw_predicate_semantics(self):
        # A zero-length "interval" [5, 5) still satisfies the raw strict
        # comparisons against [4, 6): 5 < 6 and 4 < 5.
        db = make_database([(1, "a", 5, 5), (2, "a", 9, 7)], [(10, "a", 4, 6)])
        plan = Join(RelationAccess("l"), RelationAccess("r"), overlap_predicate())
        result = execute(plan, db)
        baseline = execute(without_interval_join(plan), db)
        assert bag(result) == bag(baseline)
        assert (1, "a", 5, 5, 10, "a", 4, 6) in result.rows

    def test_null_end_points_never_match(self):
        db = make_database(
            [(1, "a", None, 5), (2, "a", 0, None), (3, "a", 0, 5)],
            [(10, "a", 1, 4), (20, "a", None, None)],
        )
        plan = Join(RelationAccess("l"), RelationAccess("r"), overlap_predicate())
        result = execute(plan, db)
        assert bag(result) == bag(execute(without_interval_join(plan), db))
        assert all(row[0] == 3 and row[4] == 10 for row in result.rows)

    def test_null_equality_keys_never_match(self):
        """SQL semantics: NULL = NULL is not true, on every join strategy."""
        db = make_database(
            [(1, None, 0, 5), (2, "a", 0, 5)], [(10, None, 1, 4), (20, "a", 1, 4)]
        )
        equi = Comparison("=", attr("l_key"), attr("r_key"))
        reference = execute(
            Selection(Join(RelationAccess("l"), RelationAccess("r"), None), equi), db
        )
        hash_result = execute(Join(RelationAccess("l"), RelationAccess("r"), equi), db)
        assert bag(hash_result) == bag(reference)
        interval_result = execute(
            Join(
                RelationAccess("l"),
                RelationAccess("r"),
                and_(equi, overlap_predicate()),
            ),
            db,
        )
        assert all(row[1] == "a" for row in interval_result.rows)


# -- randomized differential: interval sweep == nested loop ----------------------------------

interval_values = st.one_of(st.none(), st.integers(min_value=0, max_value=12))


def interval_rows():
    row = st.tuples(
        st.integers(0, 5),  # id (duplicates allowed -> duplicate rows)
        st.sampled_from(["x", "y", None]),  # partition key incl. NULLs
        interval_values,  # begin (possibly NULL, possibly >= end)
        interval_values,  # end
    )
    return st.lists(row, max_size=12)


@settings(max_examples=200, deadline=None)
@given(left=interval_rows(), right=interval_rows(), with_key=st.booleans())
def test_interval_join_differential(left, right, with_key):
    db = make_database(left, right)
    predicate = overlap_predicate()
    if with_key:
        predicate = and_(Comparison("=", attr("l_key"), attr("r_key")), predicate)
    plan = Join(RelationAccess("l"), RelationAccess("r"), predicate)
    statistics = {}
    sweep = execute(plan, db, statistics)
    fallback = execute(without_interval_join(plan), db)
    assert statistics.get("join_strategy.interval") == 1
    assert bag(sweep) == bag(fallback)
