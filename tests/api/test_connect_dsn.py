"""connect() DSN parsing: memory://, sqlite:///, repro://, and the domain= form."""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro import Session, TimeDomain, connect
from repro.api.relation import FluentError

ROWS = [(1, "a", 0, 5), (2, "b", 3, 9)]


class TestMemoryDsn:
    def test_domain_from_query_param(self):
        with connect("memory://?domain=0:24") as session:
            assert isinstance(session, Session)
            assert session.domain == TimeDomain(0, 24)

    def test_domain_from_keyword(self):
        with connect("memory://", domain=(2, 10)) as session:
            assert session.domain == TimeDomain(2, 10)

    def test_dsn_param_overrides_keyword(self):
        with connect("memory://?domain=0:8", domain=(0, 99)) as session:
            assert session.domain == TimeDomain(0, 8)

    def test_planner_param(self):
        with connect("memory://?domain=0:8&planner=off") as session:
            assert session.planner is False
            assert session.pipeline.caching  # a session always caches

    def test_backend_param(self):
        with connect("memory://?domain=0:8&backend=sqlite") as session:
            assert session.backend == "sqlite"

    @pytest.mark.parametrize(
        "open_session",
        [
            lambda: connect("memory://?domain=0:8&backend=nope"),
            lambda: connect(domain=(0, 8), backend="nope"),
        ],
        ids=["dsn", "keyword"],
    )
    def test_unknown_backend_name_fails_at_connect(self, open_session):
        """Like a bad planner switch: not at the first query."""
        with pytest.raises(
            repro.BackendUnavailableError,
            match=r"unknown backend 'nope'; available: \[.*'memory', 'sqlite'",
        ):
            open_session()

    def test_unknown_backend_name_fails_at_assignment(self):
        """``session.backend = name`` is the third way in, checked like the other two."""
        with connect(domain=(0, 8)) as session:
            with pytest.raises(
                repro.BackendUnavailableError,
                match=r"unknown backend 'nope'; available: \[.*'memory', 'sqlite'",
            ):
                session.backend = "nope"
            assert session.backend == "memory"
            session.backend = "sqlite"
            assert session.backend == "sqlite"

    def test_missing_domain_raises(self):
        with pytest.raises(FluentError, match="needs a time domain"):
            connect("memory://")

    @pytest.mark.parametrize(
        "query",
        ["compression=lz4", "coalesce=none", "plan_cache=off", "use_temporal_aggregate=off"],
    )
    def test_unknown_param_raises(self, query):
        with pytest.raises(FluentError, match=r"unsupported memory://.*\['domain', 'planner'"):
            connect(f"memory://?domain=0:8&{query}")

    def test_memory_only_param_rejected_on_sqlite(self, tmp_path):
        with pytest.raises(FluentError, match="unsupported sqlite://"):
            connect(f"sqlite:///{tmp_path / 'x.db'}?domain=0:8&backend=memory")

    @pytest.mark.parametrize(
        "query",
        ["planner=off", "backend=sqlite", "domain=0:5", "bogus=1"],
    )
    def test_repro_dsn_rejects_params_it_cannot_honour(self, query):
        # Raised while parsing: no connection is attempted.
        with pytest.raises(FluentError, match="unsupported repro://"):
            connect(f"repro://127.0.0.1:1?{query}")

    @pytest.mark.parametrize(
        "keyword",
        [
            {"planner": False},
            {"backend": "sqlite"},
            {"database": repro.Database()},
            {"domain": (0, 5)},
        ],
        ids=lambda keyword: next(iter(keyword)),
    )
    def test_repro_dsn_rejects_local_only_keywords(self, keyword):
        with pytest.raises(FluentError, match="local-only"):
            connect("repro://127.0.0.1:1", **keyword)

    def test_malformed_domain_raises(self):
        with pytest.raises(FluentError, match="lo:hi"):
            connect("memory://?domain=eight")

    def test_malformed_bool_raises(self):
        with pytest.raises(FluentError, match="boolean"):
            connect("memory://?domain=0:8&planner=maybe")


class TestSqliteDsn:
    def test_file_backed_session_executes_and_persists(self, tmp_path):
        path = tmp_path / "temporal.db"
        with connect(f"sqlite:///{path}?domain=0:12") as session:
            session.load("r", ["v", "tag"], ROWS)
            sqlite_rows = sorted(session.table("r").where("v >= 1").rows())
        with connect("memory://?domain=0:12") as memory:
            memory.load("r", ["v", "tag"], ROWS)
            assert sorted(memory.table("r").where("v >= 1").rows()) == sqlite_rows
        # Durability: the queried table lives in the file after close.
        with sqlite3.connect(path) as raw:
            stored = raw.execute("SELECT COUNT(*) FROM r").fetchone()[0]
        assert stored == len(ROWS)

    def test_close_closes_the_file_backend(self, tmp_path):
        session = connect(f"sqlite:///{tmp_path / 'x.db'}?domain=0:12")
        session.load("r", ["v", "tag"], ROWS)
        session.table("r").rows()
        session.close()
        session.close()  # idempotent
        from repro.errors import BackendUnavailableError

        with pytest.raises(BackendUnavailableError):
            session.table("r").rows()

    def test_missing_path_raises(self):
        with pytest.raises(FluentError, match="file path"):
            connect("sqlite://?domain=0:12")


class TestTargetForms:
    @pytest.mark.parametrize("domain", [(0, 24), 24, TimeDomain(0, 24)])
    def test_domain_keyword_forms(self, domain):
        session = connect(domain=domain)
        assert isinstance(session, Session)
        assert session.domain == TimeDomain(0, 24)

    def test_domain_keyword_with_keywords(self):
        session = connect(
            domain=(0, 12), backend="sqlite", planner=False
        )
        assert session.backend == "sqlite"
        assert session.planner is False

    @pytest.mark.parametrize("domain", [(0, 24), 24, TimeDomain(0, 24)])
    def test_positional_domain_raises_naming_both_forms(self, domain):
        with pytest.raises(FluentError, match=r"memory://.*repro://.*domain= keyword"):
            connect(domain)

    def test_no_target_no_domain_raises(self):
        with pytest.raises(FluentError, match="connect needs a target"):
            connect()

    def test_unknown_scheme_raises(self):
        with pytest.raises(FluentError, match="unknown DSN scheme"):
            connect("postgres://localhost/db")
