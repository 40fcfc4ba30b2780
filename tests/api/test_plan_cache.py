"""The rewritten-plan cache: warm executions skip REWR and the planner.

The acceptance criterion of the fluent-API PR: a second execution of the
same (structurally equal) query must reuse the cached rewritten plan --
asserted through the pipeline's statistics counters (``rewrite.invocations``
and ``planner.*`` only appear when the rewriter/planner actually ran) --
and return identical rows.
"""

from collections import Counter

import pytest

from repro import connect
from repro.datasets.running_example import (
    ASSIGN_ROWS,
    TIME_DOMAIN,
    WORKS_ROWS,
    query_onduty,
)
from repro.rewriter import QueryPipeline


@pytest.fixture
def session():
    session = connect(domain=TIME_DOMAIN)
    session.load("works", ["name", "skill"], WORKS_ROWS)
    session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)
    return session


def onduty(session):
    return session.table("works").where("skill = 'SP'").agg(cnt="count(*)")


class TestWarmCacheSkipsRewriteAndPlanner:
    def test_counters(self, session):
        cold_statistics: dict = {}
        cold_rows = onduty(session).rows(cold_statistics)
        assert cold_statistics["plan_cache.misses"] == 1
        assert cold_statistics["rewrite.invocations"] == 1
        assert any(key.startswith("planner.") for key in cold_statistics)

        warm_statistics: dict = {}
        warm_rows = onduty(session).rows(warm_statistics)
        assert warm_statistics["plan_cache.hits"] == 1
        assert "plan_cache.misses" not in warm_statistics
        assert "rewrite.invocations" not in warm_statistics
        assert not any(key.startswith("planner.") for key in warm_statistics)
        assert Counter(warm_rows) == Counter(cold_rows)

        info = session.cache_info()
        assert info.hits == 1
        assert info.misses == 1
        assert info.size == 1

    def test_structurally_equal_chains_share_one_entry(self, session):
        # Two *separately built* chains over equal expressions hash alike.
        onduty(session).rows()
        onduty(session).rows()
        onduty(session).rows()
        info = session.cache_info()
        assert info.size == 1
        assert info.misses == 1
        assert info.hits == 2

    def test_hand_built_tree_hits_the_fluent_entry(self, session):
        onduty(session).rows()
        statistics: dict = {}
        session.query(query_onduty()).rows(statistics)
        assert statistics["plan_cache.hits"] == 1

    def test_different_queries_get_different_entries(self, session):
        onduty(session).rows()
        session.table("works").where("skill = 'NS'").agg(cnt="count(*)").rows()
        assert session.cache_info().size == 2

    def test_the_key_is_schema_version_planner_switch_and_query(self, session):
        onduty(session).rows()
        (key,) = session.pipeline._cache
        assert key == (session.database.schema_version, True, query_onduty())


class TestInvalidation:
    def test_planner_toggle_changes_the_key(self, session):
        onduty(session).rows()
        session.planner = False
        statistics: dict = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.misses"] == 1
        assert statistics["rewrite.invocations"] == 1
        session.planner = True
        statistics = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.hits"] == 1

    def test_ddl_invalidates_cached_plans(self, session):
        onduty(session).rows()
        # Reloading a table is DDL: the schema version moves, so the cached
        # plan (which baked in the old catalog shape) must not be reused.
        session.load("works", ["name", "skill"], WORKS_ROWS[:2])
        statistics: dict = {}
        rows = onduty(session).rows(statistics)
        assert statistics["plan_cache.misses"] == 1
        assert "plan_cache.hits" not in statistics
        # And the result reflects the new data (only Ann's first shift).
        assert (1, 3, 10) in rows
        # Entries keyed under an older schema version can never hit again:
        # they are dropped, not kept beside the live one.
        for _ in range(20):
            session.load("works", ["name", "skill"], WORKS_ROWS[:2])
            onduty(session).rows()
        assert session.cache_info().size == 1

    def test_row_inserts_do_not_invalidate(self, session):
        onduty(session).rows()
        session.database.insert("works", [("Zoe", "SP", 0, 2)])
        statistics: dict = {}
        rows = onduty(session).rows(statistics)
        assert statistics["plan_cache.hits"] == 1
        assert (1, 0, 2) in rows

    def test_clear_plan_cache(self, session):
        onduty(session).rows()
        session.clear_plan_cache()
        assert session.cache_info().size == 0
        statistics: dict = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.misses"] == 1

    def test_materialize_is_ddl_and_bumps_schema_version(self, session):
        # Registering a view creates its backing table: DDL, exactly like
        # load().  Plans cached before the view existed must not be reused
        # (they could now shadow or miss the new catalog entry).
        onduty(session).rows()
        before = session.database.schema_version
        session.materialize(onduty(session), name="onduty_view")
        assert session.database.schema_version > before
        statistics: dict = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.misses"] == 1
        assert "plan_cache.hits" not in statistics

    def test_view_apply_is_dml_and_does_not_invalidate(self, session):
        from repro import Delta

        view = session.materialize(onduty(session), name="onduty_view")
        onduty(session).rows()
        before = session.database.schema_version
        view.apply([Delta.inserts("works", [("Zoe", "SP", 0, 2)])])
        assert session.database.schema_version == before
        statistics: dict = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.hits"] == 1

    def test_catalog_dml_feeding_a_view_does_not_invalidate(self, session):
        view = session.materialize(onduty(session), name="onduty_view")
        onduty(session).rows()
        before = session.database.schema_version
        session.insert("works", [("Zoe", "SP", 0, 2)])
        session.delete("works", [("Zoe", "SP", 0, 2)])
        assert session.database.schema_version == before
        assert view.verify()  # the view tracked both mutations ...
        statistics: dict = {}
        onduty(session).rows(statistics)
        assert statistics["plan_cache.hits"] == 1  # ... without invalidating


class TestCacheScope:
    @pytest.mark.parametrize("planner", [True, False])
    def test_every_session_caches(self, planner):
        session = connect(domain=TIME_DOMAIN, planner=planner)
        session.load("works", ["name", "skill"], WORKS_ROWS)
        statistics: dict = {}
        onduty(session).rows(statistics)
        onduty(session).rows(statistics)
        assert statistics["rewrite.invocations"] == 1
        assert session.cache_info() == (1, 1, 1)

    def test_bare_pipeline_stays_uncached_by_default(self):
        pipeline = QueryPipeline(TIME_DOMAIN)
        pipeline.load_table("works", ["name", "skill"], WORKS_ROWS)
        statistics: dict = {}
        pipeline.execute(query_onduty(), statistics)
        pipeline.execute(query_onduty(), statistics)
        assert statistics["rewrite.invocations"] == 2
        assert "plan_cache.hits" not in statistics

    def test_warm_cache_agrees_across_backends(self, session):
        cold = onduty(session).rows()
        statistics: dict = {}
        sqlite_rows = session.execute(
            onduty(session).plan, statistics, backend="sqlite"
        ).rows
        # The sqlite execution reused the plan cached by the memory run...
        assert statistics["plan_cache.hits"] == 1
        # ...and produces the same bag of rows.
        assert Counter(sqlite_rows) == Counter(cold)
