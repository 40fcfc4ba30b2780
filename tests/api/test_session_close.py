"""Uniform closed-session behaviour: every terminal fails fast after close()."""

import pytest

from repro import connect
from repro.errors import BackendError, BackendUnavailableError


def _session():
    session = connect(domain=(0, 24))
    session.load(
        "works",
        ["name", "skill"],
        [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)],
    )
    session.materialize(session.table("works").where("skill = 'SP'"), "sp_works")
    return session


class TestClose:
    def test_close_is_idempotent(self):
        session = _session()
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # no error
        assert session.closed

    def test_context_manager_closes(self):
        with _session() as session:
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
        ],
        ids=[
            "rows", "table", "decoded", "snapshot", "pretty", "check", "explain",
            "view", "views",
        ],
    )
    def test_every_terminal_raises_after_close(self, terminal):
        session = _session()
        relation = session.table("works")
        session.close()
        with pytest.raises(BackendUnavailableError, match="session is closed"):
            terminal(relation)

    def test_closed_error_is_a_backend_error(self):
        """One ``except BackendError`` covers closed sessions too."""
        session = _session()
        session.close()
        with pytest.raises(BackendError):
            session.table("works").rows()

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

    def test_building_chains_on_closed_session_still_works(self):
        """Only execution needs the backend; plan construction stays lazy."""
        session = _session()
        relation = session.table("works")
        session.close()
        chained = relation.where("skill = 'SP'").agg(cnt="count(*)")
        with pytest.raises(BackendUnavailableError):
            chained.rows()
