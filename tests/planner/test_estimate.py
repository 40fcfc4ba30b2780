"""Cardinality estimates over ANALYZE statistics, and the reader that acts on them.

:func:`repro.planner.estimate_plan` is the System-R-style estimator; the
SQL compiler pins each join's ``CROSS JOIN`` order with it, which is why
``repro.stats`` exists (``explain()``'s ``estimated_rows`` is the other
reader, pinned in ``tests/algebra/test_explain_tree.py``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import Join, RelationAccess, Selection
from repro.backends import SQLiteBackend
from repro.backends.sqlcompile import compile_plan
from repro.engine import Database, execute
from repro.planner import estimate_plan


def estimate_rows(plan, database):
    return estimate_plan(plan, database)[id(plan)]


def _catalog(analyze=True):
    """Three period tables with very different sizes and key skew."""
    database = Database()
    database.create_table(
        "fact",
        ("fk", "fval", "f_begin", "f_end"),
        [("k%d" % (i % 4), i, 0, 50) for i in range(200)],
        period=("f_begin", "f_end"),
    )
    database.create_table(
        "big",
        ("bk", "bval", "b_begin", "b_end"),
        [("k%d" % (i % 4), i, 0, 50) for i in range(100)],
        period=("b_begin", "b_end"),
    )
    database.create_table(
        "dim",
        ("dk", "dval", "d_begin", "d_end"),
        [("k0", 0, 0, 50), ("k1", 1, 0, 50)],
        period=("d_begin", "d_end"),
    )
    if analyze:
        database.analyze()
    return database


class TestEstimates:
    def test_relation_estimate_is_the_analyzed_row_count(self):
        database = _catalog()
        assert estimate_rows(RelationAccess("fact"), database) == 200.0

    def test_unanalyzed_relation_falls_back_to_actual_size(self):
        database = Database()
        database.create_table("t", ("a",), [(1,), (2,), (3,)])
        assert estimate_rows(RelationAccess("t"), database) == 3.0

    def test_equality_selectivity_uses_distinct_counts(self):
        database = _catalog()
        plan = Selection(
            RelationAccess("fact"), Comparison("=", attr("fk"), lit("k0"))
        )
        # 4 distinct keys -> 1/4 of 200 rows.
        assert estimate_rows(plan, database) == pytest.approx(50.0)

    def test_range_selectivity_reads_the_histogram(self):
        database = Database()
        database.create_table(
            "spread",
            ("t_begin", "t_end"),
            [(i, i + 1) for i in range(100)],
            period=("t_begin", "t_end"),
        )
        database.analyze()
        low = Selection(
            RelationAccess("spread"), Comparison("<", attr("t_begin"), lit(10))
        )
        high = Selection(
            RelationAccess("spread"), Comparison("<", attr("t_begin"), lit(90))
        )
        assert estimate_rows(low, database) < estimate_rows(high, database)
        assert estimate_rows(low, database) == pytest.approx(10.0, rel=0.25)

    def test_join_estimate_combines_ndv_and_density(self):
        database = _catalog()
        join = Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            Comparison("=", attr("fk"), attr("bk")),
        )
        # 200 * 100 / max_ndv(4) = 5000.
        assert estimate_rows(join, database) == pytest.approx(5000.0)

    def test_estimate_plan_keys_every_node_by_id(self):
        database = _catalog()
        plan = Selection(
            RelationAccess("fact"), Comparison("=", attr("fk"), lit("k0"))
        )
        estimates = estimate_plan(plan, database)
        assert set(estimates) == {id(node) for node in plan.walk()}

    def test_sql_join_order_follows_the_statistics(self):
        """The larger estimated input is outside the ``CROSS JOIN``.

        Without statistics ``fval = 7`` keeps the default tenth of ``fact``
        (20 rows > ``dim``'s 2); analyzed, ``fval`` has 200 distinct values
        (1 row < 2), so the same plan compiles to different SQL.
        """
        selective = Selection(
            RelationAccess("fact"), Comparison("=", attr("fval"), lit(7))
        )
        inner = Join(
            selective, RelationAccess("dim"), Comparison("=", attr("fk"), attr("dk"))
        )
        plan = Join(
            inner, RelationAccess("big"), Comparison("=", attr("fk"), attr("bk"))
        )
        plain, analyzed = _catalog(analyze=False), _catalog()
        dim = RelationAccess("dim")
        assert estimate_rows(selective, plain) > estimate_rows(dim, plain)
        assert estimate_rows(selective, analyzed) < estimate_rows(dim, analyzed)
        assert 'FROM "fact" AS __l CROSS JOIN "dim" AS __r' in compile_plan(plan, plain).sql
        assert 'FROM "dim" AS __r CROSS JOIN "fact" AS __l' in compile_plan(plan, analyzed).sql
        # Either order is the same bag: SQLite agrees with the engine on both.
        for database in (plain, analyzed):
            backend = SQLiteBackend.for_database(database, optimize=False)
            try:
                rows = backend.execute(plan, database).rows
            finally:
                backend.close()
            assert Counter(rows) == Counter(execute(plan, database).rows)
