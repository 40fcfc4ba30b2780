"""Sessions: the front door of the library.

:func:`connect` builds a :class:`Session` -- one object owning the engine
catalog, the snapshot rewriter, the planner switch, the execution backend
and a rewritten-plan cache -- and hands out lazy
:class:`~repro.api.relation.TemporalRelation` objects::

    from repro import connect

    session = connect("memory://?domain=0:24")      # or connect(domain=(0, 24))
    works = session.load("works", ["name", "skill"], [
        ("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16),
        ("Sam", "SP", 8, 16), ("Ann", "SP", 18, 20),
    ])
    onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
    print(onduty.pretty())          # executes through REWR + planner + backend
    print(onduty.snapshot(8))       # the 08:00 snapshot, by reducibility
    print(onduty.explain())         # the whole pipeline, rendered

Executing the same query again reuses the cached rewritten plan (REWR and
the planner are skipped entirely); :meth:`Session.cache_info` exposes the
hit counters, and any DDL on the catalog invalidates stale entries via the
catalog's schema version.

There is one :class:`Session` class.  Everything it can do besides running
a query is a *verb* of the table in :mod:`repro.server.verbs`
(:meth:`Session.call`), and what differs between ``memory://`` /
``sqlite://`` and ``repro://`` is only the transport underneath: in process
a verb is a direct function call on one
:class:`~repro.rewriter.pipeline.QueryPipeline` (:attr:`Session.pipeline`,
the single execution path of the library), over the wire it is one frame
exchange (:class:`~repro.client.WireTransport`).  Hand-built operator trees
enter through :meth:`Session.query` / :meth:`Session.execute`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..algebra.operators import Operator, RelationAccess
from ..client import WireTransport
from ..engine import ENGINE_NAME
from ..engine.catalog import Database
from ..engine.table import Table
from ..errors import BackendUnavailableError
from ..execution import (
    ExecutionBackend,
    ExecutionInfo,
    ExecutionPolicy,
    backend_name,
    check_backend_name,
)
from ..logical_model.period_relation import PeriodKRelation
from ..rewriter.periodenc import T_BEGIN, T_END, period_encode
from ..rewriter.pipeline import PlanCacheInfo, QueryPipeline, check_planner_switch
from ..server.core import DEFAULT_PORT
from ..server.verbs import VERBS
from ..temporal.timedomain import TimeDomain
from .relation import FluentError, TemporalRelation

__all__ = ["connect", "Session"]


def _as_domain(domain: Union[TimeDomain, Tuple[int, int], int]) -> TimeDomain:
    """Accept a TimeDomain, a ``(min, max)`` pair, or a size ``n`` (=> 0..n)."""
    if isinstance(domain, TimeDomain):
        return domain
    if isinstance(domain, int):
        return TimeDomain(0, domain)
    if isinstance(domain, tuple) and len(domain) == 2:
        return TimeDomain(domain[0], domain[1])
    raise FluentError(
        f"domain must be a TimeDomain, a (min, max) pair or an int, got {domain!r}"
    )


def _parse_dsn_domain(text: str) -> TimeDomain:
    try:
        lo, hi = text.split(":", 1)
        return TimeDomain(int(lo), int(hi))
    except (ValueError, TypeError) as exc:
        raise FluentError(
            f"DSN domain must look like 'lo:hi' (e.g. domain=0:24), got {text!r}"
        ) from exc


_DSN_BOOL = {"1": True, "true": True, "on": True, "0": False, "false": False, "off": False}


def _parse_dsn_planner(text: str) -> bool:
    value = _DSN_BOOL.get(text.lower())
    if value is None:
        raise FluentError(
            f"DSN parameter planner= must be a boolean (true/false, on/off, 1/0), got {text!r}"
        )
    return value


#: DSN query parameter -> parser of its text; each overrides the
#: :func:`connect` keyword of the same name.
_DSN_PARSERS: Dict[str, Callable[[str], Any]] = {
    "domain": _parse_dsn_domain,
    "planner": _parse_dsn_planner,
    "backend": str,
}

_LOCAL_DSN_PARAMS = ("domain", "planner")

#: Scheme -> the DSN parameters it can honour; anything else is rejected.
_DSN_PARAMS: Dict[str, Tuple[str, ...]] = {
    "memory": _LOCAL_DSN_PARAMS + ("backend",),
    "sqlite": _LOCAL_DSN_PARAMS,
    "repro": (),
}

#: The :func:`connect` keywords a ``repro://`` target honours: the policy
#: applies client-side; the rest configure an in-process pipeline such a
#: session does not have.
_REMOTE_KEYWORDS = ("policy",)


def connect(
    target: Optional[str] = None,
    backend: "str | ExecutionBackend | None" = "memory",
    planner: bool = True,
    database: Optional[Database] = None,
    policy: Optional[ExecutionPolicy] = None,
    domain: "Union[TimeDomain, Tuple[int, int], int, None]" = None,
) -> "Session":
    """Open a snapshot-semantics session: the transport-agnostic front door.

    ``target`` selects *where* queries execute, via a URL-style DSN:

    * ``"memory://?domain=0:24"`` -- an in-process session on the
      in-memory engine;
    * ``"sqlite:///path/to.db?domain=0:24"`` -- an in-process session
      executing on a durable file-backed SQLite database (three slashes =
      relative path, four = absolute), re-syncing queried tables per
      execution;
    * ``"repro://host:port"`` -- a session speaking the wire protocol to a
      :class:`~repro.server.QueryServer` (the domain comes from the
      server's welcome, never from the DSN).

    Without a DSN, ``connect(domain=(0, 24))`` opens an in-process in-memory
    session.  Every return value is the same :class:`Session` class -- a
    context manager with idempotent ``close()`` -- so calling code is
    transport-agnostic.

    The time domain of an in-process session comes from the DSN's ``domain=lo:hi``
    query parameter or the ``domain=`` keyword (DSN wins); the other local
    DSN parameters -- ``planner=on|off`` (the rule fixpoint of
    :mod:`repro.planner`; a boolean, anything else raises here) and on
    ``memory://`` also ``backend=name`` -- likewise override their keyword
    counterparts.  A backend *name* nobody registered raises
    :class:`~repro.errors.BackendUnavailableError` here, not at the first
    query.  ``planner`` is the one tuning option left, kept for the server
    CLI's ``--no-planner`` and ``examples/planner_stats.py``: a session
    always rewrites with :class:`~repro.rewriter.rewrite.SnapshotRewriter`
    and caches rewritten plans, and the in-memory engine takes no option.

    A ``repro://`` target has no local pipeline to configure: it takes no
    DSN parameter and honours only the ``policy`` keyword (which applies
    client-side).  Any DSN parameter, and any other keyword given a
    non-default value, raises :class:`FluentError` instead of being
    silently ignored.
    """
    keywords: Dict[str, Any] = {
        "domain": domain,
        "backend": backend,
        "planner": planner,
        "database": database,
        "policy": policy,
    }
    if target is not None and not isinstance(target, str):
        raise FluentError(
            f"connect() takes a DSN string (memory://?domain=lo:hi, "
            f"sqlite:///path?domain=lo:hi, repro://host:port) or the time "
            f"domain as the domain= keyword, not a positional {target!r}"
        )
    if target is None:
        if domain is None:
            raise FluentError(
                "connect needs a target: a DSN (memory://, sqlite:///path, "
                "repro://host:port) or a time domain via domain="
            )
        return _connect_local(**keywords)

    parts = urlsplit(target)
    scheme = parts.scheme.lower()
    if scheme not in _DSN_PARAMS:
        raise FluentError(
            f"unknown DSN scheme {parts.scheme!r} in {target!r}; expected "
            "memory://, sqlite:///path or repro://host:port"
        )
    params = {key: values[-1] for key, values in parse_qs(parts.query).items()}
    unsupported = sorted(set(params) - set(_DSN_PARAMS[scheme]))
    if unsupported:
        raise FluentError(
            f"unsupported {scheme}:// DSN parameter(s): {unsupported}; "
            f"{scheme}:// takes {list(_DSN_PARAMS[scheme]) or 'none'}"
        )

    for name, text in params.items():
        keywords[name] = _DSN_PARSERS[name](text)

    if scheme == "repro":
        ignored = sorted(
            name
            for name, value in keywords.items()
            if name not in _REMOTE_KEYWORDS and value != _CONNECT_DEFAULTS[name]
        )
        if ignored:
            raise FluentError(
                f"a repro:// session cannot honour the local-only keyword(s) "
                f"{ignored}; configure them on the server"
            )
        host = parts.hostname or "127.0.0.1"
        port = parts.port if parts.port is not None else DEFAULT_PORT
        return Session(WireTransport(host, port, policy=policy))

    if scheme == "sqlite":
        path = parts.path
        if path.startswith("/"):
            # SQLAlchemy convention: sqlite:///rel.db is relative,
            # sqlite:////abs.db is absolute.
            path = path[1:]
        if not path:
            raise FluentError("sqlite DSN needs a file path: sqlite:///path/to.db")
        from ..backends.sqlite import SQLiteBackend

        # The pipeline owns the planner pass; see QueryPipeline._run_plan.
        keywords["backend"] = SQLiteBackend.at_path(path, optimize=False)
    if keywords["domain"] is None:
        raise FluentError(
            f"a {scheme}:// DSN needs a time domain: append ?domain=lo:hi "
            "or pass domain=(lo, hi)"
        )
    return _connect_local(**keywords)


_CONNECT_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(connect).parameters.items()
}


def _connect_local(domain: Any, planner: bool, **options: Any) -> "Session":
    pipeline = QueryPipeline(_as_domain(domain), optimize=planner, plan_cache=True, **options)
    return Session(LocalTransport(pipeline))


class LocalTransport:
    """In process: a verb is one function call on the session's pipeline."""

    def __init__(self, pipeline: QueryPipeline) -> None:
        self.pipeline = pipeline
        self.domain = pipeline.domain
        # The pipeline's own methods, not wrappers around them.
        self.query = pipeline.execute
        self.execution_info = pipeline.execution_info

    @property
    def policy(self) -> Optional[ExecutionPolicy]:
        return self.pipeline.policy

    @policy.setter
    def policy(self, value: Optional[ExecutionPolicy]) -> None:
        self.pipeline.policy = value

    def describe(self) -> str:
        return (
            f"backend={backend_name(self.pipeline.backend)!r}, "
            f"tables={list(self.pipeline.database.names())}"
        )

    def call(self, verb: str, **args: Any) -> Any:
        return VERBS[verb].run(self.pipeline, **args)

    def view(self, call: Callable[..., Any], name: str, described: Any = None) -> Any:
        # The view object itself, by a direct lookup: ``session.view(name).rows()``
        # is a 70 us operation (the benchmark's view_churn reads).
        return self.pipeline.view(name)

    def close(self) -> None:
        """Close a backend *instance* the session owns (e.g. session-mode SQLite)."""
        close = getattr(self.pipeline.backend, "close", None)
        if callable(close):
            close()


class Session:
    """A connected snapshot-semantics session; build with :func:`connect`.

    Written once against :meth:`call` (the verbs of
    :mod:`repro.server.verbs`) and :meth:`execute` (the one streaming verb);
    the transport -- :class:`LocalTransport` or
    :class:`~repro.client.WireTransport` -- decides where they run.
    """

    def __init__(self, transport: Any) -> None:
        self._transport = transport
        self._closed = False

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session; everything that reaches the transport raises afterwards.

        After closing, every verb and all relation terminals (``.rows()``,
        ``.table()``, ``.check()``, ``.explain()``, ...) raise
        :class:`~repro.errors.BackendUnavailableError` without touching the
        backend or the server; building lazy relations (:meth:`query`, fluent
        chaining) still works.  The transport is closed too: a backend
        *instance* owned by an in-process session (one passed to
        :func:`connect` with a ``close`` method, such as a session-mode
        SQLite backend), or the connection of a ``repro://`` one.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._transport.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendUnavailableError(
                "session is closed; open a new one with repro.connect(...)"
            )

    def call(self, verb: str, **args: Any) -> Any:
        """Run one verb of :data:`repro.server.verbs.VERBS` on this session's transport."""
        self._ensure_open()
        return self._transport.call(verb, **args)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------------------

    @property
    def domain(self) -> TimeDomain:
        return self._transport.domain

    @property
    def pipeline(self) -> QueryPipeline:
        """The shared execution path (REWR + planner + backend + plan cache).

        In-process sessions only: a ``repro://`` session's pipeline is the
        server's.
        """
        return self._transport.pipeline

    @property
    def database(self) -> Database:
        """The engine catalog this session owns (or was attached to)."""
        return self.pipeline.database

    @property
    def planner(self) -> bool:
        return self.pipeline.optimize

    @planner.setter
    def planner(self, value: bool) -> None:
        self.pipeline.optimize = check_planner_switch(value)

    @property
    def backend(self) -> "str | ExecutionBackend | None":
        return self.pipeline.backend

    @backend.setter
    def backend(self, value: "str | ExecutionBackend | None") -> None:
        if isinstance(value, str):
            check_backend_name(value)  # like connect(): not at the first query
        self.pipeline.backend = value

    @property
    def executor(self) -> str:
        """The name of the in-memory engine; read-only, the same on every transport.

        Not a setting -- there is one engine.  The attribute exists because
        the benchmark suite reads it to name the engine it probes.
        """
        return ENGINE_NAME

    @property
    def policy(self) -> Optional[ExecutionPolicy]:
        """The session-default execution policy (``None`` = unconstrained)."""
        return self._transport.policy

    @policy.setter
    def policy(self, value: Optional[ExecutionPolicy]) -> None:
        self._transport.policy = value

    def execution_info(self) -> ExecutionInfo:
        """Lifetime ``(retries, timeouts, fallbacks)`` of this session's policy runs.

        The policy's retries and failover run where the session is: in the
        pipeline in process, client-side over ``repro://`` (they must
        survive transport failures); :meth:`server_execution_info` is the
        executing pipeline's own.
        """
        return self._transport.execution_info()

    def server_execution_info(self) -> ExecutionInfo:
        """The executing pipeline's lifetime fault-tolerance counters."""
        return self.call("execution_info")

    def tables(self) -> List[str]:
        """The names of the catalog tables."""
        return self.call("tables")

    def ping(self) -> bool:
        """Liveness probe (a round-trip over ``repro://``)."""
        self.call("ping")
        return True

    def __repr__(self) -> str:
        state = "closed" if self._closed else self._transport.describe()
        return f"Session(domain={self.domain!r}, {state})"

    # -- relations --------------------------------------------------------------------

    def table(self, name: str) -> TemporalRelation:
        """A lazy relation over a catalog table (must exist already)."""
        names = self.tables()
        if name not in names:
            raise FluentError(
                f"unknown table {name!r}; loaded tables: "
                f"{sorted(names)} (use session.load(...) first)"
            )
        return TemporalRelation(self, RelationAccess(name))

    def load(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> TemporalRelation:
        """Create a period table and return a lazy relation over it.

        ``schema`` lists the *data* attributes; the two period attributes
        are appended automatically (with the names given in ``period``) and
        each row is expected to end with its begin and end time points.
        """
        self.call("load", name=name, schema=schema, rows=rows, period=period)
        return TemporalRelation(self, RelationAccess(name))

    def load_relation(self, name: str, relation: PeriodKRelation) -> TemporalRelation:
        """Register a logical-model relation (PERIODENC-encoded) and wrap it."""
        table = period_encode(relation, name)
        return self.load(name, table.schema[:-2], table.rows)

    def query(self, plan: Operator) -> TemporalRelation:
        """Wrap a hand-built operator tree as a lazy relation.

        The bridge for existing code and for differential testing: a wrapped
        tree executes through exactly the same pipeline (and plan cache) as
        a fluent chain.
        """
        if not isinstance(plan, Operator):
            raise FluentError(f"query expects an Operator tree, got {plan!r}")
        return TemporalRelation(self, plan)

    # -- execution (operator-tree level; the relations call into these) ---------------

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate a logical query under snapshot semantics; a period table.

        Over ``repro://`` backends are addressed by name, and ``statistics``
        receives the server's per-request counters.
        """
        self._ensure_open()
        return self._transport.query(query, statistics, backend, policy)

    def check(self, query: Operator, **kwargs: Any):
        """Snapshot-conformance check of one query against the oracle.

        Runs :func:`repro.conformance.check_conformance` over the executing
        pipeline's catalog and domain, defaulting ``rewriter_cls`` to that
        pipeline's *own* rewriter -- so the certified configuration is the
        one this session actually executes.  In process any keyword argument
        passes through and overrides (``backends=``, ``optimize_modes=``,
        ``points=``, ``rewriter_cls=``, ...); over ``repro://`` the JSON-able
        subset :class:`repro.server.verbs.CheckOptions` does.
        """
        return self.call("check", plan=query, options=kwargs)

    # -- materialized views -----------------------------------------------------------

    def materialize(self, relation: TemporalRelation, name: str) -> Any:
        """Register a relation as an incrementally maintained view.

        The relation's rewritten plan is evaluated once and its contents
        registered as catalog table ``name`` (DDL -- cached plans
        invalidate); afterwards catalog DML (``session.insert`` /
        ``session.delete``, from *any* client of a server) keeps the view
        current by re-running its plan on the partitions a write touches
        instead of re-executing it whole; ``insert`` / ``delete`` naming the
        view's own backing table raise :class:`~repro.errors.IncrementalError`.
        Returns the :class:`~repro.incremental.MaterializedView` itself in
        process and a :class:`~repro.client.RemoteView` proxy over
        ``repro://``; their ``apply`` / ``rows`` / ``verify`` / ``counters``
        expose the incremental counters: ``incremental.delta_rows`` (delta
        entries applied), ``incremental.resweep_groups`` (dirty partitions
        recomputed), ``incremental.consolidated_rows`` (delta entries that
        deleted stored input rows) and ``incremental.full_refresh``
        (rebuilds: the registration, then one per DDL on a base table).
        """
        if not isinstance(relation, TemporalRelation):
            raise FluentError(
                f"materialize expects a TemporalRelation, got {relation!r}"
            )
        materialized = self.call("materialize", name=name, plan=relation.plan)
        return self._transport.view(self.call, name, materialized)

    def view(self, name: str) -> Any:
        """A registered view by name (see :meth:`materialize` for what comes back)."""
        self._ensure_open()
        return self._transport.view(self.call, name)

    def views(self) -> Tuple[str, ...]:
        """Names of the registered materialized views."""
        return tuple(self.call("view_info")["views"])

    def drop_view(self, name: str) -> None:
        """Unregister a view and drop its backing table (DDL)."""
        self.call("drop_view", name=name)

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Append rows to a catalog table (DML; feeds registered views)."""
        self.call("insert", name=name, rows=rows)

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Delete one copy per given row (DML; feeds registered views)."""
        self.call("delete", name=name, rows=rows)

    # -- plan cache -------------------------------------------------------------------

    def cache_info(self) -> PlanCacheInfo:
        """Lifetime ``(hits, misses, size)`` of the rewritten-plan cache.

        Over ``repro://`` the server's shared cache, all clients combined.
        """
        return self.call("cache_info")

    def clear_plan_cache(self) -> None:
        self.call("clear_cache")
