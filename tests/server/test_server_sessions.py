"""Sessions over ``repro://``: lifecycle, in-process parity, fault mapping."""

from __future__ import annotations

import pytest

from repro import (
    BackendUnavailableError,
    ExecutionPolicy,
    PlanError,
    QueryServer,
    connect,
)
from repro.api.relation import FluentError
from repro.errors import is_transient

ROWS = [
    ("Ann", "SP", 3, 10),
    ("Joe", "NS", 8, 16),
    ("Sam", "SP", 8, 16),
    ("Ann", "SP", 18, 20),
]


@pytest.fixture(scope="module")
def server():
    with QueryServer(connect(domain=(0, 24))) as running:
        running.session.load("works", ["name", "skill"], ROWS)
        yield running


@pytest.fixture()
def remote(server):
    session = connect(server.url)
    yield session
    session.close()


@pytest.fixture(scope="module")
def local():
    with connect("memory://?domain=0:24") as session:
        session.load("works", ["name", "skill"], ROWS)
        yield session


class TestLifecycle:
    def test_connect_repro_dsn_returns_the_one_session_class(self, server, local):
        with connect(server.url) as session:
            assert type(session) is type(local)
            assert (session.domain.min_point, session.domain.max_point) == (0, 24)
            assert not hasattr(session, "pipeline")  # it is the server's

    def test_dead_address_raises_transient(self):
        with pytest.raises(BackendUnavailableError) as error:
            connect("repro://127.0.0.1:1")
        assert is_transient(error.value)

    def test_transparent_reconnect_after_transport_loss(self, remote):
        assert remote.table("works").where("skill = 'SP'").rows()
        # Simulate a dropped connection: the next request reconnects.
        remote._transport._connection.close()
        assert remote.table("works").where("skill = 'SP'").rows()


class TestLocalParity:
    """Remote terminals must match local semantics byte for byte."""

    def chain(self, session):
        return session.table("works").where("skill = 'SP'").agg(cnt="count(*)")

    def test_rows_and_table(self, remote, local):
        remote_table = self.chain(remote).table()
        local_table = self.chain(local).table()
        assert remote_table.schema == local_table.schema
        assert sorted(remote_table.rows) == sorted(local_table.rows)
        assert sorted(self.chain(remote).rows()) == sorted(self.chain(local).rows())

    def test_pretty(self, remote, local):
        assert self.chain(remote).pretty() == self.chain(local).pretty()

    def test_decoded_and_snapshot(self, remote, local):
        assert self.chain(remote).decoded() == self.chain(local).decoded()
        assert self.chain(remote).snapshot(8) == self.chain(local).snapshot(8)

    def test_explain(self, remote, server):
        # The server renders explain over the very session it multiplexes.
        text = self.chain(remote).explain()
        assert text == self.chain(server.session).explain()
        assert "logical plan:" in text and "REWR plan:" in text

    def test_check_runs_server_side(self, remote):
        report = self.chain(remote).check(backends=["memory"], max_points=4)
        assert report.ok
        assert report.checks > 0
        assert report.configurations
        report.raise_if_failed()

    def test_check_rejects_non_wire_options(self, remote):
        with pytest.raises(FluentError, match="remote check does not support"):
            self.chain(remote).check(rewriter_cls=object)

    def test_unknown_table_message_parity(self, remote, local):
        with pytest.raises(FluentError) as remote_error:
            remote.table("nope")
        with pytest.raises(FluentError) as local_error:
            local.table("nope")
        assert str(remote_error.value) == str(local_error.value)

    def test_load_over_the_wire(self, server):
        with connect(server.url) as session:
            relation = session.load("wire_loaded", ["v"], [(1, 0, 5), (2, 3, 9)])
            assert sorted(relation.rows()) == [(1, 0, 5), (2, 3, 9)]
            assert "wire_loaded" in session.tables()
            # Visible to the server-local session too: one shared catalog.
            assert "wire_loaded" in server.session.database

    def test_query_wraps_operator_trees(self, remote, local):
        from repro.algebra.operators import RelationAccess

        assert sorted(remote.query(RelationAccess("works")).rows()) == sorted(
            local.query(RelationAccess("works")).rows()
        )
        with pytest.raises(FluentError, match="Operator tree"):
            remote.query("works")


class TestFaultMapping:
    def test_server_side_plan_error_reraises_client_side(self, remote):
        from repro.algebra.operators import RelationAccess

        with pytest.raises(PlanError):
            remote.query(RelationAccess("missing_table")).rows()

    def test_unknown_backend_is_transient_backend_unavailable(self, remote):
        from repro.algebra.operators import RelationAccess

        with pytest.raises(BackendUnavailableError) as error:
            remote.execute(RelationAccess("works"), backend="nope")
        assert is_transient(error.value)

    def test_policy_failover_to_named_backend(self, remote):
        from repro.algebra.operators import RelationAccess

        policy = ExecutionPolicy(retries=1, fallback_backend="memory")
        statistics = {}
        table = remote.execute(
            RelationAccess("works"), statistics, backend="nope", policy=policy
        )
        assert len(table.rows) == len(ROWS)
        assert statistics["execution.retries"] == 1
        assert statistics["execution.fallbacks"] == 1
        info = remote.execution_info()
        assert info.retries >= 1 and info.fallbacks >= 1

    def test_server_timeout_maps_to_query_timeout(self, remote):
        from repro.errors import QueryTimeoutError

        policy = ExecutionPolicy(timeout_seconds=0.0)
        with pytest.raises(QueryTimeoutError):
            remote.table("works").with_policy(policy).rows()

    def test_row_budget_enforced_server_side(self, remote):
        from repro.errors import ResourceLimitError

        policy = ExecutionPolicy(max_result_rows=1)
        with pytest.raises(ResourceLimitError):
            remote.table("works").with_policy(policy).rows()

    def test_instance_backends_cannot_cross_the_wire(self, remote):
        from repro.algebra.operators import RelationAccess

        class Backend:
            name = 42  # not addressable by name

        with pytest.raises(FluentError, match="by name"):
            remote.execute(RelationAccess("works"), backend=Backend())


class TestSharedCache:
    def test_cross_client_warm_hit(self, server):
        server.session.clear_plan_cache()
        with connect(server.url) as first, connect(server.url) as second:
            chain = lambda s: s.table("works").where("skill = 'NS'").distinct()  # noqa: E731
            cold, warm = {}, {}
            chain(first).rows(cold)
            chain(second).rows(warm)
            assert cold.get("plan_cache.misses", 0) == 1
            assert warm.get("plan_cache.hits", 0) == 1
            info = second.cache_info()
            assert info.hits >= 1 and info.size >= 1

    def test_clear_plan_cache_remote(self, server, remote):
        remote.table("works").rows()
        remote.clear_plan_cache()
        assert remote.cache_info().size == 0

    def test_server_execution_info(self, remote):
        info = remote.server_execution_info()
        assert info.retries >= 0
