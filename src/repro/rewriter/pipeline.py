"""The snapshot execution path: REWR + planner + backend dispatch.

:class:`QueryPipeline` plays the role of the database middleware the paper
builds: it sits in front of an ordinary multiset engine whose tables are SQL
period relations, accepts non-temporal queries that should be interpreted
under snapshot semantics (the ``SEQ VT (...)`` blocks of the paper's SQL
extension), rewrites them with REWR and hands the rewritten plans to an
execution backend.  It is the single implementation behind the fluent
session API (:mod:`repro.api`), the query server, the conformance harness
and the experiment drivers, and :meth:`QueryPipeline._run_plan` is the only
place a plan is dispatched to a backend.  It owns the catalog, the
rewriter, the planner switch, the default execution backend and
(optionally) a **rewritten-plan cache**:

* plans are keyed by the structural hash/equality of the logical query
  (every expression and operator node is an immutable, hashable dataclass),
  the planner switch, and the catalog's schema version;
* a cache hit skips REWR *and* the planner entirely -- the pipeline reports
  ``plan_cache.hits`` / ``plan_cache.misses`` through the statistics
  mapping, and ``rewrite.invocations`` is only counted when the rewriter
  actually runs, so tests and benchmarks can assert the skip.

Mutating the catalog's shape (create/replace/drop of a table) invalidates
cached plans automatically through
:attr:`repro.engine.catalog.Database.schema_version`; inserting rows does
not, because rewriting and planning never look at the data.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.executor import execute as engine_execute
from ..errors import IncrementalError
from ..engine.table import Table
from ..execution import (
    ExecutionBackend,
    ExecutionInfo,
    ExecutionPolicy,
    PolicyCounters,
    QueryLimits,
    check_backend_name,
    resolve_backend,
)
from ..logical_model.period_relation import PeriodKRelation
from ..planner import optimize as planner_optimize
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain
from .periodenc import T_BEGIN, T_END, period_decode, period_encode
from .rewrite import SnapshotRewriter

__all__ = ["QueryPipeline", "PlanCacheInfo", "ExecutionInfo"]


def check_planner_switch(value: Any) -> bool:
    """``value`` when it is ``True`` or ``False``; anything else raises.

    The one check behind ``QueryPipeline(optimize=)``, ``connect(planner=)``
    and the ``Session.planner`` setter, so a wrong value fails where it is
    written and not at the first query.
    """
    if value is True or value is False:
        return value
    raise ValueError(
        f"the planner switch is True (the rule fixpoint) or False (REWR's plan "
        f"as it is), got {value!r}"
    )


class PlanCacheInfo(NamedTuple):
    """Lifetime counters of a pipeline's rewritten-plan cache."""

    hits: int
    misses: int
    size: int


class QueryPipeline:
    """Rewrites snapshot queries and executes them on a backend.

    Parameters
    ----------
    domain:
        The time domain queries are interpreted over.
    database:
        An existing engine catalog to attach to (a fresh one when omitted).
    optimize:
        Run the planner's rule fixpoint (:func:`repro.planner.optimize`)
        over rewritten plans; ``False`` executes REWR's plan as it is.
        Anything but a boolean raises here, not at the first query.
    backend:
        Default execution host for rewritten plans: a registered backend
        name (``"memory"``, ``"sqlite"``; an unknown name raises here, not at
        the first query) or an
        :class:`~repro.execution.ExecutionBackend` instance.  ``None`` keeps
        the in-memory engine -- there is one, the columnar engine behind
        :func:`repro.engine.execute`; :meth:`execute` can override per query.
    rewriter_cls:
        The :class:`~repro.rewriter.rewrite.SnapshotRewriter` (sub)class that
        performs REWR: the ablation passes :mod:`repro.baselines.rewriters`,
        the mutation tests a deliberately broken one; sessions never pass one.
    plan_cache:
        Memoise rewritten plans across executions (off by default;
        :func:`repro.connect` sessions turn it on).
    policy:
        Default :class:`~repro.execution.ExecutionPolicy` (deadline, row
        budget, retries, failover); :meth:`execute` can override per query.
    """

    def __init__(
        self,
        domain: TimeDomain,
        database: Optional[Database] = None,
        optimize: bool = True,
        backend: "str | ExecutionBackend | None" = None,
        rewriter_cls: type[SnapshotRewriter] = SnapshotRewriter,
        plan_cache: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.domain = domain
        self.database = database if database is not None else Database()
        self.period_semiring = PeriodSemiring(NATURAL, domain)
        self.optimize = check_planner_switch(optimize)
        if isinstance(backend, str):
            check_backend_name(backend)  # likewise: not at the first query
        self.backend = backend
        self.policy = policy
        self.rewriter = rewriter_cls(self.database, domain)
        self._cache: Optional[Dict[Tuple[Any, ...], Operator]] = (
            {} if plan_cache else None
        )
        #: The schema version every cached entry was rewritten under.
        self._cache_version: Optional[int] = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._policy_counters = PolicyCounters()
        self._views: "Dict[str, Any]" = {}

    # -- data loading -----------------------------------------------------------------

    def load_table(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> Table:
        """Create a period table; each row already carries its begin/end values."""
        full_schema = tuple(schema) + tuple(period)
        return self.database.create_table(name, full_schema, rows, period=period)

    def load_period_relation(self, name: str, relation: PeriodKRelation) -> Table:
        """Register a logical-model relation under its PERIODENC encoding."""
        table = period_encode(relation, name)
        return self.database.register(table, period=(T_BEGIN, T_END))

    # -- materialized views -----------------------------------------------------------

    def materialize(
        self,
        query: Operator,
        name: str,
    ) -> "Any":
        """Register ``query`` as an incrementally maintained view.

        The rewritten/optimized plan is evaluated once, its result
        registered as catalog table ``name`` (DDL: this bumps the schema
        version and so invalidates cached plans -- views invalidate like
        plan-cache entries), and the view subscribes to catalog DML so
        subsequent :meth:`~repro.engine.catalog.Database.insert` /
        ``delete`` re-run the plan on the partitions they touch instead of
        re-executing it whole.
        Returns the :class:`~repro.incremental.MaterializedView`.
        """
        from ..incremental.view import MaterializedView

        # One write: no DML lands between the view's first evaluation and
        # its subscription, and the backing table appears with it.
        with self.database.writing():
            if name in self._views:
                raise IncrementalError(f"a view named {name!r} is already registered")
            if name in self.database:
                raise IncrementalError(
                    f"cannot materialize as {name!r}: a catalog table of that "
                    "name already exists"
                )
            view = MaterializedView(name, query, self)
            self._views[name] = view
            self.database.add_dml_observer(view._observe_dml)
        return view

    def view(self, name: str) -> "Any":
        try:
            return self._views[name]
        except KeyError as exc:
            raise IncrementalError(
                f"unknown view {name!r}; registered views: {sorted(self._views)}"
            ) from exc

    def view_names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    def drop_view(self, name: str) -> None:
        """Unregister a view and drop its backing table (DDL)."""
        with self.database.writing():
            view = self.view(name)
            self.database.remove_dml_observer(view._observe_dml)
            del self._views[name]
            self.database.drop_table(name)

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Catalog DML: append rows to a table (feeds registered views)."""
        with self.database.writing():
            self._refuse_view_dml(name)
            self.database.insert(name, rows)

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Catalog DML: delete one copy per given row (feeds registered views)."""
        with self.database.writing():
            self._refuse_view_dml(name)
            self.database.delete(name, rows)

    def _refuse_view_dml(self, name: str) -> None:
        # A view's backing table holds what its plan derives: rows written
        # into it directly would be served until the next delta replaces
        # them, and match no base table.
        if name in self._views:
            raise IncrementalError(
                f"{name!r} is the backing table of a materialized view; write "
                f"to {sorted(self._views[name].base_relations)} or feed the "
                "view Deltas through apply()"
            )

    # -- plan cache -------------------------------------------------------------------

    @property
    def caching(self) -> bool:
        return self._cache is not None

    def cache_info(self) -> PlanCacheInfo:
        return PlanCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            size=len(self._cache) if self._cache is not None else 0,
        )

    def clear_plan_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()

    @property
    def planner_mode(self) -> str:
        """``optimize`` as a string, for ``planner.optimize(mode=)``."""
        # Read only by the frozen benchmark suite (benchmarks/suite/
        # harness.py:344, probes.py:89,94); goes with optimize()'s ``mode``
        # keyword once the next ``benchmark`` PR stops passing it.
        return "syntactic" if self.optimize else "off"

    def _cache_key(self, query: Operator) -> Tuple[Any, ...]:
        return (self.database.schema_version, self.optimize, query)

    # -- rewriting --------------------------------------------------------------------

    def rewrite(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
    ) -> Operator:
        """REWR(query) after optimisation (if enabled), through the cache.

        ``statistics`` receives ``planner.*`` rule counters on an actual
        rewrite, plus ``plan_cache.hits`` / ``plan_cache.misses`` when the
        cache is enabled and ``rewrite.invocations`` whenever REWR runs.
        """
        if self._cache is None:
            return self.rewrite_stages(query, statistics)[-1]
        key = self._cache_key(query)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            if statistics is not None:
                statistics["plan_cache.hits"] = (
                    statistics.get("plan_cache.hits", 0) + 1
                )
            return cached
        plan = self.rewrite_stages(query, statistics)[-1]
        self._cache_misses += 1
        if statistics is not None:
            statistics["plan_cache.misses"] = (
                statistics.get("plan_cache.misses", 0) + 1
            )
        if key[0] != self._cache_version:
            # DDL since the last entry: plans of an older catalog shape never hit
            # again.  The version stays in the key: a rewrite racing a DDL misses.
            self._cache.clear()
            self._cache_version = key[0]
        self._cache[key] = plan
        return plan

    def rewrite_stages(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
    ) -> Tuple[Operator, ...]:
        """One uncached rewrite, stage by stage; the last plan is what executes.

        ``(REWR plan,)`` with the planner off, ``(REWR plan, planned plan)``
        otherwise.  :meth:`rewrite` caches the last stage and ``explain()``
        renders all of them, so what is shown is what runs.
        """
        plan = self.rewriter.rewrite(query)
        if statistics is not None:
            statistics["rewrite.invocations"] = (
                statistics.get("rewrite.invocations", 0) + 1
            )
        if not self.optimize:
            return (plan,)
        return (plan, planner_optimize(plan, self.database, statistics))

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate ``query`` under snapshot semantics; return a period table."""
        plan = self.rewrite(query, statistics)
        return self.execute_rewritten(plan, statistics, backend, policy)

    def execute_rewritten(
        self,
        plan: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
        observations: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Table:
        """Run an already rewritten/optimized plan on the chosen backend.

        The effective :class:`~repro.execution.ExecutionPolicy` (the
        ``policy`` argument, falling back to the pipeline default) governs
        the attempt: one deadline and row budget cover the whole call,
        transient failures are retried up to ``policy.retries`` times with
        the policy's seeded backoff, and when the primary backend stays down
        the query runs once more on ``policy.fallback_backend`` (when set).
        Retries, timeouts and fallbacks are counted into ``statistics``
        (``execution.*`` keys) and the pipeline's :meth:`execution_info`.
        """
        chosen = backend if backend is not None else self.backend
        effective = policy if policy is not None else self.policy

        # The one way this call reaches a backend: primary attempts, retries
        # and the fallback all carry the same statistics and observations.
        def run(target: "str | ExecutionBackend | None", limits: Optional[QueryLimits]) -> Table:
            return self._run_plan(
                plan, statistics, target, limits, observations=observations
            )

        return self._policy_counters.run(effective, run, chosen, statistics)

    def execute_limited(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        """One policy-free execution under externally owned :class:`QueryLimits`.

        The query server's entry point: the server creates (and keeps a
        handle on) the per-request deadline so a ``cancel`` frame can expire
        it from the event loop while the worker thread executes
        (:meth:`repro.execution.Deadline.cancel`); retries and failover stay
        with the *client's* policy, which observes transport failures.
        """
        plan = self.rewrite(query, statistics)
        chosen = backend if backend is not None else self.backend
        return self._run_plan(plan, statistics, chosen, limits)

    def _run_plan(
        self,
        plan: Operator,
        statistics: Optional[Dict[str, int]],
        chosen: "str | ExecutionBackend | None",
        limits: Optional[QueryLimits],
        observations: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Table:
        if chosen is None or chosen == "memory":
            return engine_execute(
                plan, self.database, statistics, limits=limits, observations=observations
            )
        return self._host(chosen).execute(plan, self.database, statistics, limits=limits)

    @staticmethod
    def _host(chosen: "str | ExecutionBackend") -> ExecutionBackend:
        """The backend instance that runs pipeline-routed (already planned) plans."""
        resolved = resolve_backend(chosen)
        if getattr(resolved, "optimize", False):
            # The pipeline already applied (or deliberately skipped, with
            # ``optimize=False``) the planner; the backend must not spend a
            # redundant pass on the plan -- or worse, override that choice.
            # The flag is flipped on a shallow copy because the resolved
            # backend may be a shared session instance (or come from a
            # registry factory handing out a shared object) that the
            # pipeline does not own; outside pipeline-routed plans it keeps
            # its own setting.
            resolved = copy.copy(resolved)
            resolved.optimize = False
        return resolved

    def explain_host(self, plan: Operator) -> Optional[List[str]]:
        """The default backend's own account of how it runs a rewritten plan.

        Lines from the backend's ``explain(plan, database)`` (the SQLite
        backend: statement size and ``EXPLAIN QUERY PLAN``); ``None`` for
        the in-memory engine and for hosts without one.
        """
        if self.backend is None or self.backend == "memory":
            return None
        explain = getattr(self._host(self.backend), "explain", None)
        return None if explain is None else explain(plan, self.database)

    def execution_info(self) -> ExecutionInfo:
        """Lifetime retry/timeout/fallback counters of this pipeline."""
        return self._policy_counters.info()

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        """Evaluate and decode the result into a period K-relation (N^T)."""
        return period_decode(
            self.execute(query, statistics, backend, policy),
            self.period_semiring,
        )

    # -- introspection ----------------------------------------------------------------

    def explain(self, query: Operator) -> str:
        """The rewritten plan, rendered with :meth:`Operator.explain_tree`."""
        return self.rewrite(query).explain_tree()
