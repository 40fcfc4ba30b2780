"""The execution-host contract shared by the middleware, backends and API.

The paper's system is *middleware*: rewritten plans are ordinary multiset
queries that any host DBMS can run.  :class:`ExecutionBackend` captures the
contract a host needs to satisfy -- execute a logical plan against an engine
catalog and return a period :class:`~repro.engine.table.Table` -- together
with the registry that looks hosts up by name.

The contract lives here, *below* both :mod:`repro.rewriter` and
:mod:`repro.backends`, so that the middleware, the fluent session API
(:mod:`repro.api`) and the backends themselves can all import it without
creating an import cycle (``rewriter -> backends -> rewriter``, which used
to be papered over with a ``TYPE_CHECKING`` guard).  This module depends
only on the algebra, the engine substrate and the error taxonomy
(:mod:`repro.errors`).

Fault tolerance lives at this layer too:

* :class:`ExecutionPolicy` -- the user-facing configuration: per-query
  deadline, output-row budget, retry count with seeded exponential-backoff
  jitter, and an optional fallback backend.  Accepted by
  :func:`repro.api.connect`, per query via
  :meth:`~repro.api.TemporalRelation.with_policy`, and enforced by
  :class:`~repro.rewriter.pipeline.QueryPipeline`.
* :class:`Deadline` / :class:`QueryLimits` -- the per-execution runtime
  objects backends enforce cooperatively: the in-memory engine polls the
  deadline inside its operator and sweep loops, the SQLite backend installs
  a progress handler.

The built-in backends (``"memory"``, ``"sqlite"``) register themselves when
:mod:`repro.backends` is imported; :func:`resolve_backend` imports that
package on the first lookup miss, so callers never need to trigger the
registration by hand.  Additional backends (PostgreSQL, DuckDB, ...) can
register later without touching callers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from .algebra.operators import Operator
from .engine.catalog import Database
from .engine.table import Table
from .errors import (
    BackendError,
    BackendUnavailableError,
    QueryTimeoutError,
    is_transient,
)

__all__ = [
    "BackendError",
    "BackendUnavailableError",
    "Deadline",
    "ExecutionBackend",
    "ExecutionInfo",
    "ExecutionPolicy",
    "PolicyCounters",
    "QueryLimits",
    "register_backend",
    "check_backend_name",
    "resolve_backend",
    "available_backends",
    "backend_name",
    "sleep_backoff",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes logical plans (including the rewriter's physical operators).

    ``statistics``, when given, receives backend-specific counters merged
    into the mapping (the in-memory engine's operator counts, the SQL
    backends' statement/row counts).  ``limits`` -- always passed, as a
    keyword -- carries the per-execution deadline and row budget of an
    :class:`ExecutionPolicy`, which the backend enforces cooperatively.
    """

    name: str

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: "Optional[QueryLimits]" = None,
    ) -> Table:
        ...


# -- fault-tolerance primitives -------------------------------------------------------------------


class Deadline:
    """A wall-clock budget for one query execution (retries included).

    ``poll()`` is the cooperative check backends call inside hot loops: it
    is a cheap counter that only reads the clock every
    :data:`POLL_INTERVAL` calls (the first call always checks, so a zero
    deadline fails fast), raising :class:`~repro.errors.QueryTimeoutError`
    once expired.
    """

    #: Clock reads happen once per this many ``poll()`` calls.
    POLL_INTERVAL = 64

    __slots__ = ("seconds", "expires_at", "_polls", "cancelled")

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {seconds!r}")
        self.seconds = seconds
        self.expires_at = time.monotonic() + seconds
        self._polls = 0
        self.cancelled = False

    @property
    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def cancel(self) -> None:
        """Force the deadline to expire *now* (thread-safe).

        The cooperative cancellation hook of the query server: the event
        loop cancels a worker-thread execution by expiring the deadline the
        worker polls, so every backend's existing deadline enforcement (the
        engine's ``poll()`` loops, SQLite's progress handler) doubles as the
        cancellation path.  The resulting
        :class:`~repro.errors.QueryTimeoutError` names the cancellation.
        """
        self.cancelled = True
        self.expires_at = float("-inf")
        self._polls = 0  # the very next poll() reads the clock

    def check(self) -> None:
        """Raise :class:`~repro.errors.QueryTimeoutError` once expired."""
        if self.expired:
            if self.cancelled:
                raise QueryTimeoutError("query cancelled")
            raise QueryTimeoutError(
                f"query exceeded its {self.seconds:g}s deadline"
            )

    def poll(self) -> None:
        """Amortised :meth:`check`: reads the clock every few calls."""
        if self._polls % self.POLL_INTERVAL == 0:
            self.check()
        self._polls += 1

    def __repr__(self) -> str:
        return f"Deadline({self.seconds:g}s, remaining={self.remaining:.3f}s)"


@dataclass(frozen=True)
class QueryLimits:
    """The per-execution runtime limits derived from an :class:`ExecutionPolicy`.

    ``row_budget`` bounds the rows any single operator (and the final
    result) may produce -- the defence against runaway plans, enforced
    cooperatively by the in-memory engine and via bounded fetches on SQL
    backends.
    """

    deadline: Optional[Deadline] = None
    row_budget: Optional[int] = None


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance configuration for query execution.

    Accepted by :func:`repro.api.connect` (session default), per query via
    :meth:`~repro.api.TemporalRelation.with_policy`, and enforced in
    :class:`~repro.rewriter.pipeline.QueryPipeline`:

    * ``timeout_seconds`` -- wall-clock deadline covering the *whole*
      execution, retries and backoff sleeps included.  Exceeding it raises
      :class:`~repro.errors.QueryTimeoutError` on every backend.
    * ``max_result_rows`` -- row budget per operator/result; exceeding it
      raises :class:`~repro.errors.ResourceLimitError`.
    * ``retries`` -- how many times a *transient* failure (see
      :func:`repro.errors.is_transient`) is retried, sleeping the seeded
      exponential-backoff delays of :meth:`backoff_delays` in between.
    * ``fallback_backend`` -- opt-in graceful degradation: when the primary
      backend fails with a :class:`~repro.errors.BackendError` that retries
      cannot (or did not) clear, the query runs once more on this backend
      (e.g. ``"memory"`` when SQLite is down), surfaced in statistics as
      ``execution.fallbacks``.

    Instances are immutable and reusable across queries and sessions; the
    backoff jitter is a pure function of the policy's fields, so a fixed
    ``seed`` makes retry timing fully deterministic.
    """

    timeout_seconds: Optional[float] = None
    max_result_rows: Optional[int] = None
    retries: int = 0
    backoff_base_seconds: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 1.0
    backoff_jitter: float = 0.1
    seed: int = 0
    fallback_backend: "Union[str, ExecutionBackend, None]" = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be >= 0")
        if self.max_result_rows is not None and self.max_result_rows < 0:
            raise ValueError("max_result_rows must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")

    def backoff_delays(self) -> List[float]:
        """The sleep before each retry: exponential backoff with seeded jitter.

        Deterministic: two policies with equal fields produce identical
        delays (the jitter RNG is seeded from ``seed``), so fault-injection
        runs replay bit for bit.
        """
        rng = random.Random(self.seed)
        delays: List[float] = []
        for attempt in range(self.retries):
            base = min(
                self.backoff_max_seconds,
                self.backoff_base_seconds * self.backoff_multiplier**attempt,
            )
            delays.append(base * (1.0 + self.backoff_jitter * rng.random()))
        return delays

    def start_limits(self) -> Optional[QueryLimits]:
        """Begin an execution: a fresh deadline plus the row budget, or ``None``."""
        if self.timeout_seconds is None and self.max_result_rows is None:
            return None
        deadline = (
            Deadline(self.timeout_seconds)
            if self.timeout_seconds is not None
            else None
        )
        return QueryLimits(deadline=deadline, row_budget=self.max_result_rows)


# -- policy-governed execution --------------------------------------------------------------------


def sleep_backoff(delay: float, deadline: Optional[Deadline]) -> None:
    """Sleep a retry-backoff delay without overshooting the deadline."""
    if deadline is not None:
        deadline.check()
        delay = min(delay, max(0.0, deadline.remaining))
    if delay > 0:
        time.sleep(delay)


class ExecutionInfo(NamedTuple):
    """A snapshot of :class:`PolicyCounters`.

    Mirrors the per-call ``execution.retries`` / ``execution.timeouts`` /
    ``execution.fallbacks`` statistics keys, accumulated across every
    policy-governed execution one pipeline (or one ``repro://`` client) ran.
    """

    retries: int
    timeouts: int
    fallbacks: int


class PolicyCounters:
    """Lifetime fault-tolerance counters, and the policy loop that bumps them."""

    __slots__ = ("retries", "timeouts", "fallbacks")

    def __init__(self) -> None:
        self.retries = self.timeouts = self.fallbacks = 0

    def info(self) -> ExecutionInfo:
        return ExecutionInfo(self.retries, self.timeouts, self.fallbacks)

    def run(
        self,
        policy: Optional[ExecutionPolicy],
        attempt: "Callable[[Union[str, ExecutionBackend, None], Optional[QueryLimits]], Table]",
        backend: "Union[str, ExecutionBackend, None]",
        statistics: Optional[Dict[str, int]] = None,
    ) -> Table:
        """Run ``attempt(backend, limits)`` under an :class:`ExecutionPolicy`.

        The single implementation of the policy semantics, shared by
        :class:`~repro.rewriter.pipeline.QueryPipeline` (an attempt runs a
        plan on a backend) and the ``repro://`` client (an attempt ships a
        query frame, where a dropped connection surfaces as the transient
        :class:`~repro.errors.BackendUnavailableError` -- so retry and
        failover behave identically against local and remote backends):

        * every attempt runs under the policy's :class:`QueryLimits` (one
          deadline and row budget cover the whole call, retries and backoff
          sleeps included);
        * *transient* failures (see :func:`repro.errors.is_transient`) are
          retried up to ``policy.retries`` times with the policy's seeded
          backoff delays;
        * when the primary keeps failing with a
          :class:`~repro.errors.BackendError`, the attempt runs once more on
          ``policy.fallback_backend`` (when set);
        * :class:`~repro.errors.QueryTimeoutError` is permanent by design --
          the deadline covers the whole call, so neither a retry nor the
          fallback can beat it.

        Retries, fallbacks and timeouts are counted here and, as
        ``execution.*`` keys, into ``statistics``.
        """
        if policy is None:
            return attempt(backend, None)
        limits = policy.start_limits()
        deadline = limits.deadline if limits is not None else None
        delays = policy.backoff_delays()
        try:
            while True:
                try:
                    return attempt(backend, limits)
                except QueryTimeoutError:
                    raise
                except Exception as error:
                    if is_transient(error) and delays:
                        self._count("retries", statistics)
                        sleep_backoff(delays.pop(0), deadline)
                        continue
                    if policy.fallback_backend is not None and isinstance(
                        error, BackendError
                    ):
                        self._count("fallbacks", statistics)
                        return attempt(policy.fallback_backend, limits)
                    raise
        except QueryTimeoutError:
            self._count("timeouts", statistics)
            raise

    def _count(self, event: str, statistics: Optional[Dict[str, int]]) -> None:
        setattr(self, event, getattr(self, event) + 1)
        if statistics is not None:
            key = f"execution.{event}"
            statistics[key] = statistics.get(key, 0) + 1


# -- backend registry -----------------------------------------------------------------------------


_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {}


def backend_name(backend: "Union[str, ExecutionBackend, None]") -> str:
    """The name a backend argument goes by (``None`` is the in-memory engine)."""
    return getattr(backend, "name", backend) or "memory"


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend factory under a name (later wins, like a catalog)."""
    _REGISTRY[name] = factory


def _ensure_builtin_backends() -> None:
    """Import :mod:`repro.backends`, which registers ``memory``/``sqlite``."""
    from . import backends  # noqa: F401  (imported for its registration side effect)


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, in registration order."""
    _ensure_builtin_backends()
    return tuple(_REGISTRY)


def check_backend_name(name: str) -> None:
    """Raise :class:`BackendUnavailableError` unless ``name`` is registered."""
    if name not in _REGISTRY:
        _ensure_builtin_backends()
    if name not in _REGISTRY:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        )


def resolve_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Turn a backend name or instance into a backend instance."""
    if isinstance(backend, str):
        check_backend_name(backend)
        return _REGISTRY[backend]()
    if isinstance(backend, ExecutionBackend):
        return backend
    raise BackendError(f"not a backend: {backend!r}")
