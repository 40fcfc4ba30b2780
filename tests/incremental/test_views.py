"""Unit tests for :mod:`repro.incremental`: views, deltas, Z-set plumbing.

Tier-1 coverage of the materialized-view surface -- registration, catalog
DML propagation, detached delta application, staleness on DDL, the error
contract, and the lifetime counters -- on small deterministic catalogs.
The randomized depth lives in ``test_delta_differential.py`` (marked
``incremental``); these tests pin the behaviours one at a time.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Delta, IncrementalError, MaterializedView, connect
from repro.engine import TableError
from repro.incremental import add_into, zset_diff, zset_of


ROWS_R = [
    ("a", 1, 0, 10),
    ("b", 2, 5, 20),
    ("a", 3, 10, 30),
    ("b", 2, 5, 20),  # duplicate: bag semantics
]


@pytest.fixture
def session():
    with connect(domain=(0, 48)) as session:
        session.load("R", ["k", "v"], ROWS_R)
        session.load("S", ["k2", "w"], [("a", 10, 0, 40), ("c", 20, 0, 40)])
        yield session


# -- Z-set primitives --------------------------------------------------------------------


class TestZSets:
    def test_zset_of_counts_duplicates(self):
        assert zset_of([(1,), (2,), (1,)]) == {(1,): 2, (2,): 1}

    def test_add_into_consolidates_and_counts_cancellations(self):
        target = {(1,): 2, (2,): 1}
        cancelled = add_into(target, {(1,): -2, (3,): 1})
        assert target == {(2,): 1, (3,): 1}
        assert cancelled == 1  # the (1,) entry hit exactly zero

    def test_zset_diff(self):
        assert zset_diff({(1,): 2, (2,): 1}, {(1,): 1, (3,): 4}) == {
            (1,): 1,
            (2,): 1,
            (3,): -4,
        }

    def test_delta_constructors(self):
        delta = Delta.inserts("R", [(1,), (1,)])
        assert delta.entries == {(1,): 2} and delta.weight() == 2
        delta = Delta.deletes("R", [(1,)])
        assert delta.entries == {(1,): -1} and delta.weight() == -1
        assert not Delta("R", {})
        assert len(Delta("R", {(1,): 1, (2,): -1})) == 2


# -- registration and basic maintenance --------------------------------------------------


class TestMaterialize:
    def test_view_contents_match_direct_execution(self, session):
        relation = session.table("R").where("v >= 2")
        view = session.materialize(relation, name="big")
        assert isinstance(view, MaterializedView)
        assert Counter(view.rows()) == Counter(relation.table().rows)
        assert view.counters["incremental.full_refresh"] == 1

    def test_view_is_queryable_as_a_table(self, session):
        session.materialize(session.table("R").where("v >= 2"), name="big")
        assert "big" in session.database
        assert Counter(session.table("big").table().rows) == Counter(
            session.view("big").rows()
        )

    def test_catalog_insert_updates_view_without_refresh(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        session.insert("R", [("c", 9, 0, 5), ("c", 1, 0, 5)])
        assert view.verify()
        assert ("c", 9, 0, 5) in view.rows()
        assert ("c", 1, 0, 5) not in view.rows()
        assert view.counters["incremental.full_refresh"] == 1  # still the build

    def test_catalog_delete_updates_view(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        session.delete("R", [("b", 2, 5, 20)])
        assert view.verify()
        assert Counter(view.rows())[("b", 2, 5, 20)] == 1  # one of two copies left

    def test_detached_apply_returns_and_diverges(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        statistics = {}
        view.apply([Delta.inserts("R", [("z", 5, 1, 2)])], statistics=statistics)
        assert ("z", 5, 1, 2) in view.rows()
        assert statistics["incremental.delta_rows"] == 1
        # The catalog never saw the delta: full re-execution now disagrees.
        assert not view.verify()
        assert session.database.table("R").rows == ROWS_R
        # Catalog DML lands on top of what the view holds.
        session.insert("R", [("c", 9, 0, 5)])
        assert Counter(view.rows()) == Counter(
            [row for row in ROWS_R if row[1] >= 2] + [("z", 5, 1, 2), ("c", 9, 0, 5)]
        )
        assert session.database.table("R").rows == ROWS_R + [("c", 9, 0, 5)]

    def test_grouped_aggregate_view_resweeps_only_dirty_groups(self, session):
        view = session.materialize(
            session.table("R").group_by("k").agg(total="sum(v)"), name="totals"
        )
        before = view.counters["incremental.resweep_groups"]
        session.insert("R", [("a", 7, 2, 4)])
        assert view.verify()
        touched = view.counters["incremental.resweep_groups"] - before
        assert touched >= 1  # group "a" was re-swept ...
        session.insert("R", [("b", 1, 2, 4)])
        assert view.verify()

    def test_join_view_tracks_both_sides(self, session):
        relation = session.table("R").join(session.table("S"), "k = k2")
        view = session.materialize(relation, name="joined")
        session.insert("R", [("c", 9, 0, 30)])
        assert view.verify()
        session.insert("S", [("b", 40, 0, 30)])
        assert view.verify()
        session.delete("S", [("a", 10, 0, 40)])
        assert view.verify()

    def test_multiple_views_do_not_invalidate_each_other(self, session):
        view_r = session.materialize(session.table("R").where("v >= 2"), name="vr")
        view_s = session.materialize(session.table("S").where("w >= 10"), name="vs")
        session.insert("R", [("c", 9, 0, 5)])
        session.insert("S", [("c", 30, 0, 5)])
        assert view_r.verify() and view_s.verify()
        assert view_r.counters["incremental.full_refresh"] == 1
        assert view_s.counters["incremental.full_refresh"] == 1


class TestStackedViews:
    """A view over a view: the lower view's change is the upper view's delta."""

    @pytest.fixture
    def generated(self):
        from repro.datasets.generator import GeneratorConfig, generate_catalog

        config = GeneratorConfig(rows=400, domain_size=64, seed=7, groups=8, values=16, keys=50)
        with connect(domain=config.domain, database=generate_catalog(config)) as session:
            yield session

    def test_deleting_base_rows_keeps_the_view_above_correct(self, generated):
        session = generated
        lower = session.materialize(session.table("R").group_by("r_key").agg(cnt="count(*)"), "v1")
        upper = session.materialize(session.table("v1").group_by("cnt").agg(n="count(*)"), "v2")
        session.delete("R", session.database.table("R").rows[:30])
        assert lower.verify()
        assert upper.verify()
        assert upper.counters["incremental.full_refresh"] == 1  # maintained, not rebuilt
        session.insert("R", [("k0", "g0", 1, 0, 64)])
        assert lower.verify() and upper.verify()

    def test_a_full_refresh_below_reaches_the_view_above(self, generated):
        # At the parent the lower view's refresh (after DDL replaced R) told
        # nobody: the upper view kept the pre-refresh contents, and
        # upper.verify() answered False with nothing raised.
        session = generated
        database = session.database
        lower = session.materialize(session.table("R").group_by("r_key").agg(cnt="count(*)"), "v1")
        upper = session.materialize(session.table("v1").group_by("cnt").agg(n="count(*)"), "v2")
        table = database.table("R")
        database.create_table("R", table.schema, list(table.rows), period=database.period_of("R"))
        session.delete("R", table.rows[:30])
        assert lower.verify() and upper.verify()
        assert lower.counters["incremental.full_refresh"] == 2
        assert upper.counters["incremental.full_refresh"] == 2
        session.insert("R", table.rows[:30])  # and both are maintained again afterwards
        assert lower.verify() and upper.verify()
        assert upper.counters["incremental.full_refresh"] == 2

    def test_a_detached_apply_reaches_the_view_above(self, session):
        lower = session.materialize(session.table("R").where("v >= 2"), name="big")
        upper = session.materialize(session.table("big").group_by("k").agg(n="count(*)"), "per_k")
        lower.apply([Delta.inserts("R", [("z", 5, 0, 10)])])
        expected = session.table("big").group_by("k").agg(n="count(*)").rows()
        assert Counter(upper.table().rows) == Counter(expected)

    def test_only_a_reader_of_the_view_is_handed_its_change(self, session, monkeypatch):
        published = []
        monkeypatch.setattr(
            MaterializedView, "_publish", lambda view, new, old: published.append(view.name)
        )
        first = session.materialize(session.table("R").where("v >= 2"), name="big")
        session.materialize(session.table("R").group_by("k").agg(n="count(*)"), "per_k")
        session.insert("R", [("z", 5, 0, 10)])
        first.refresh()
        assert published == []  # neither view reads the other's table
        session.materialize(session.table("big").group_by("k").agg(n="count(*)"), "above")
        session.insert("R", [("y", 7, 0, 10)])
        first.refresh()
        assert published == ["big", "big"]


class TestStaleness:
    def test_ddl_reload_marks_stale_and_refreshes(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        assert not view.stale
        session.load("R", ["k", "v"], [("x", 5, 0, 10)])  # wholesale replacement
        assert view.stale
        session.insert("R", [("y", 7, 0, 10)])  # next delta triggers the refresh
        assert not view.stale
        assert view.verify()
        assert view.counters["incremental.full_refresh"] == 2
        assert Counter(view.rows()) == Counter(
            [("x", 5, 0, 10), ("y", 7, 0, 10)]
        )

    def test_ddl_on_unrelated_table_does_not_refresh(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        session.load("S", ["k2", "w"], [("z", 1, 0, 4)])
        assert not view.stale


class TestErrors:
    def test_duplicate_view_name_rejected(self, session):
        session.materialize(session.table("R"), name="dup")
        with pytest.raises(IncrementalError):
            session.materialize(session.table("R"), name="dup")

    def test_view_name_clashing_with_table_rejected(self, session):
        with pytest.raises(IncrementalError):
            session.materialize(session.table("R"), name="S")

    def test_unknown_view_lookup(self, session):
        with pytest.raises(IncrementalError):
            session.view("nope")

    def test_delta_for_unread_relation_rejected(self, session):
        view = session.materialize(session.table("R"), name="only_r")
        with pytest.raises(IncrementalError):
            view.apply([Delta.inserts("S", [("q", 1, 0, 1)])])

    def test_bag_delete_beyond_multiplicity_rejected(self, session):
        view = session.materialize(session.table("R"), name="v")
        with pytest.raises(IncrementalError):
            view.apply([Delta("R", {("a", 1, 0, 10): -5})])


    def test_dml_on_a_backing_table_is_refused_before_any_change(self, session):
        # At the parent both writes succeeded: the insert showed up in the
        # view, and the delete replaced the backing list -- after which no
        # base-table write ever reached a reader again, yet verify() (which
        # compared internal state) kept answering True.
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        before = Counter(view.rows())
        with pytest.raises(IncrementalError, match="backing table"):
            session.insert("big", [("q", 9, 0, 5)])
        with pytest.raises(IncrementalError, match="backing table"):
            session.delete("big", [("b", 2, 5, 20)])
        assert Counter(view.rows()) == before and view.verify()
        session.insert("R", [("c", 9, 0, 5)])  # the view is still attached
        assert ("c", 9, 0, 5) in session.table("big").rows() and view.verify()

    def test_an_insert_refused_for_one_malformed_row_leaves_the_view_in_step(self, session):
        # At the parent the rows before the malformed one landed in R and no
        # observer ran: the view never heard of them and verify() said False.
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        base, before = Counter(session.table("R").rows()), Counter(view.rows())
        with pytest.raises(TableError, match="row arity 2"):
            session.insert("R", [("c", 9, 0, 5), ("bad", 1)])
        assert Counter(session.table("R").rows()) == base
        assert Counter(view.rows()) == before and view.verify()

    def test_verify_compares_the_rows_readers_get(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        for row in [("c", 9, 0, 5), ("d", 9, 0, 5)]:  # before and after a first delta
            # Below the session nothing knows about views: a direct catalog
            # write lands in the list readers are served, and verify() says so.
            session.database.insert("big", [("q", 9, 0, 5)])
            assert ("q", 9, 0, 5) in view.rows() and not view.verify()
            session.insert("R", [row])  # the next delta rebuilds the list
            assert ("q", 9, 0, 5) not in view.rows() and view.verify()


class TestLifecycle:
    def test_views_listing_and_drop(self, session):
        session.materialize(session.table("R"), name="one")
        session.materialize(session.table("S"), name="two")
        assert sorted(session.views()) == ["one", "two"]
        session.drop_view("one")
        assert sorted(session.views()) == ["two"]
        assert "one" not in session.database
        # A dropped view stops observing DML (no error, no zombie updates).
        session.insert("R", [("q", 1, 0, 1)])
        assert session.view("two").verify()

    def test_explain_lists_counters(self, session):
        view = session.materialize(session.table("R").where("v >= 2"), name="big")
        session.insert("R", [("c", 9, 0, 5)])
        text = view.explain()
        assert "incremental.delta_rows" in text
        assert "incremental.full_refresh = 1" in text
        # One line after the plan says how the view is maintained.
        plan_lines = view.plan.explain_tree().count("\n") + 1
        assert text.splitlines()[1 + plan_lines] == "partitioned by (k, v): R.k, R.v"
        assert view.partition_key == ("k", "v")
        ungrouped = session.materialize(session.table("R").agg(n="count(*)"), name="n")
        assert "\nunpartitioned: every delta re-executes the plan\n" in ungrouped.explain()
        assert ungrouped.partition_key == ()


class TestPlannerMatrix:
    @pytest.mark.parametrize("planner", [True, False])
    def test_aggregate_view_under_all_configs(self, planner):
        with connect(domain=(0, 48), planner=planner) as session:
            session.load("R", ["k", "v"], ROWS_R)
            view = session.materialize(
                session.table("R").group_by("k").agg(cnt="count(*)"), name="counts"
            )
            session.insert("R", [("c", 4, 3, 9), ("a", 4, 3, 9)])
            assert view.verify()
            session.delete("R", [("b", 2, 5, 20)])
            assert view.verify()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_monus_views_verify_on_either_backend(self, backend):
        # One value whose left rows overlap: the sweep's coalesced rows and
        # the host's split rows must both compare equal under verify().
        with connect(domain=(0, 48), backend=backend) as session:
            session.load("R", ["k"], [("a", 0, 10), ("a", 3, 5)])
            session.load("S", ["k"], [("a", 3, 5)])
            left, right = session.table("R"), session.table("S")
            difference = session.materialize(left.difference(right), name="d")
            distinct = session.materialize(left.distinct(), name="u")
            assert sorted(difference.rows()) == [("a", 0, 10)]
            assert sorted(distinct.rows()) == [("a", 0, 10)]
            assert difference.verify() and distinct.verify()
            session.insert("S", [("a", 0, 2)])
            assert sorted(difference.rows()) == [("a", 2, 10)]
            assert difference.verify() and distinct.verify()
