"""Materialized views over the wire: the server's view frames.

The server owns one shared pipeline, so a view registered by one client is
maintained by every client's DML -- these tests pin the frame surface
(``materialize`` / ``insert`` / ``delete`` / ``view_apply`` / ``view_rows``
/ ``view_info`` / ``view_verify`` / ``drop_view``), the cross-client
sharing, and the error mapping.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Delta, connect
from repro.errors import IncrementalError, PlanError
from repro.server import QueryServer


@pytest.fixture
def server():
    with QueryServer(connect(domain=(0, 100))) as running:
        yield running


@pytest.fixture
def session(server):
    with connect(f"repro://127.0.0.1:{server.port}") as session:
        session.load(
            "R", ["k", "v"], [("a", 1, 0, 10), ("b", 2, 5, 20), ("a", 3, 10, 30)]
        )
        yield session


def make_view(session, name="v_cnt"):
    relation = session.table("R").where("v > 1").group_by("k").agg(cnt="count(*)")
    return session.materialize(relation, name=name)


class TestRemoteViews:
    def test_materialize_reports_schema_and_rows(self, session):
        view = make_view(session)
        assert view.schema == ("k", "cnt", "t_begin", "t_end")
        assert len(view.rows()) > 0
        assert session.views() == ("v_cnt",)
        assert view.base_relations == ("R",)
        assert not view.stale

    def test_remote_dml_maintains_the_view(self, session):
        view = make_view(session)
        session.insert("R", [("c", 9, 0, 50)])
        assert any(row[0] == "c" for row in view.rows())
        assert view.verify()
        session.delete("R", [("b", 2, 5, 20)])
        assert all(row[0] != "b" for row in view.rows())
        assert view.verify()
        counters = view.counters
        assert counters["incremental.full_refresh"] == 1
        assert counters["incremental.delta_rows"] >= 2

    def test_detached_view_apply_over_the_wire(self, session):
        view = make_view(session)
        statistics: dict = {}
        size = view.apply(
            [Delta.inserts("R", [("z", 7, 2, 8)])], statistics=statistics
        )
        assert size == len(view.rows())
        assert any(row[0] == "z" for row in view.rows())
        assert statistics["incremental.delta_rows"] == 1
        # Detached deltas never reach the server catalog: now diverged.
        assert not view.verify()

    def test_view_is_shared_across_clients(self, server, session):
        view = make_view(session)
        with connect(f"repro://127.0.0.1:{server.port}") as other:
            assert other.views() == ("v_cnt",)
            other.insert("R", [("c", 5, 1, 9)])
            handle = other.view("v_cnt")
            assert Counter(handle.rows()) == Counter(view.rows())
            assert handle.verify()
        assert view.verify()  # the registering client sees the same state

    def test_view_survives_as_queryable_table(self, session):
        view = make_view(session)
        assert Counter(session.table("v_cnt").table().rows) == Counter(view.rows())
        assert len(view.table().rows) == len(view)

    def test_drop_view(self, session):
        make_view(session)
        session.drop_view("v_cnt")
        assert session.views() == ()
        assert "v_cnt" not in session.tables()

    def test_errors_travel_as_their_taxonomy_classes(self, session):
        # The wire protocol preserves the exception taxonomy: unknown views
        # and bad deltas arrive as IncrementalError, bag violations on
        # catalog DML as the planner-layer TableError (a PlanError).
        with pytest.raises(IncrementalError):
            session.view("nope")
        with pytest.raises(PlanError):
            session.delete("R", [("not", "there", 0, 0)])
        view = make_view(session)
        with pytest.raises(IncrementalError):
            view.apply([Delta.inserts("S", [("q", 1, 0, 1)])])
        assert view.verify()  # the failed frames left the view untouched

    def test_dml_on_a_backing_table_is_an_error_frame(self, server, session):
        view = make_view(session)
        before = Counter(view.rows())
        with pytest.raises(IncrementalError, match="backing table"):
            session.insert("v_cnt", [("q", 1, 0, 5)])
        with pytest.raises(IncrementalError, match="backing table"):
            session.delete("v_cnt", [before.most_common(1)[0][0]])
        assert Counter(view.rows()) == before and view.verify()
        # Still attached: another client's base-table write reaches it.
        with connect(f"repro://127.0.0.1:{server.port}") as other:
            other.insert("R", [("c", 9, 0, 50)])
        assert any(row[0] == "c" for row in view.rows()) and view.verify()
