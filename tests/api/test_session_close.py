"""Uniform closed-session behaviour: every verb fails fast after close().

One rule for the one session class, checked on both transports: everything
that reaches the transport raises, lazy builders do not.
"""

import pytest

from repro import QueryServer, connect
from repro.algebra.operators import RelationAccess
from repro.errors import BackendError, BackendUnavailableError
from repro.logical_model import PeriodKRelation
from repro.semirings import NATURAL
from repro.temporal import PeriodSemiring, TimeDomain


@pytest.fixture(params=["in-process", "repro"])
def session(request):
    if request.param == "repro":
        server = QueryServer(connect(domain=(0, 24))).start()
        request.addfinalizer(server.stop)
        session = connect(server.url)
    else:
        session = connect(domain=(0, 24))
    session.load(
        "works",
        ["name", "skill"],
        [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)],
    )
    session.materialize(session.table("works").where("skill = 'SP'"), "sp_works")
    return session


class TestClose:
    def test_close_is_idempotent(self, session):
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # no error
        assert session.closed

    def test_context_manager_closes(self, session):
        with session:
            assert session.table("works").rows()
        assert session.closed

    @pytest.mark.parametrize(
        "terminal",
        [
            lambda r: r.rows(),
            lambda r: r.table(),
            lambda r: r.decoded(),
            lambda r: r.snapshot(8),
            lambda r: r.pretty(),
            lambda r: r.check(),
            lambda r: r.explain(),
            lambda r: r.session.view("sp_works"),
            lambda r: r.session.views(),
            lambda r: r.session.load("more", ["v"], [(1, 0, 5)]),
            lambda r: r.session.load_relation(
                "more", PeriodKRelation(PeriodSemiring(NATURAL, TimeDomain(0, 24)), ("v",))
            ),
            lambda r: r.session.table("works"),
            lambda r: r.session.cache_info(),
            lambda r: r.session.clear_plan_cache(),
        ],
        ids=[
            "rows", "table", "decoded", "snapshot", "pretty", "check", "explain",
            "view", "views", "load", "load_relation", "session.table", "cache_info",
            "clear_plan_cache",
        ],
    )
    def test_every_terminal_raises_after_close(self, session, terminal):
        relation = session.table("works")
        session.close()
        with pytest.raises(BackendUnavailableError, match="session is closed"):
            terminal(relation)

    def test_closed_error_is_a_backend_error(self, session):
        """One ``except BackendError`` covers closed sessions too."""
        relation = session.table("works")
        session.close()
        with pytest.raises(BackendError):
            relation.rows()

    def test_building_chains_on_closed_session_still_works(self, session):
        """Only execution needs the transport; plan construction stays lazy."""
        relation = session.table("works")
        session.close()
        chained = relation.where("skill = 'SP'").agg(cnt="count(*)")
        assert session.query(RelationAccess("works")).plan == relation.plan
        with pytest.raises(BackendUnavailableError):
            chained.rows()


class TestCloseInProcess:
    def test_execute_raises_immediately_without_touching_backend(self):
        calls = []

        class Spy:
            name = "spy"

            def execute(self, plan, database, statistics=None, limits=None):
                calls.append(plan)
                raise AssertionError("closed session must not reach the backend")

        session = connect(domain=(0, 24), backend=Spy())
        works = session.load("works", ["name"], [("Ann", 0, 5)])
        session.close()
        with pytest.raises(BackendUnavailableError):
            works.rows()
        assert calls == []

    def test_close_closes_owned_backend_instance(self):
        closed = []

        class Closeable:
            name = "closeable"

            def execute(self, plan, database, statistics=None, limits=None):
                raise AssertionError("unused")

            def close(self):
                closed.append(True)

        session = connect(domain=(0, 24), backend=Closeable())
        session.close()
        assert closed == [True]
