"""The structured error taxonomy of the whole query path.

The paper's deployment story is middleware on top of a stock RDBMS; in
production that means living with transient backend failures (locked
databases, slow queries, runaway plans).  Every error the library raises at
a public boundary derives from :class:`ReproError`, so callers can write
one ``except`` for the whole pipeline -- and each class is classified
**transient** (retrying the same call may succeed: a locked SQLite
database, an injected fault, a briefly unreachable backend) or
**permanent** (retrying cannot help: a syntax error, an unsupported plan,
an exhausted deadline or row budget).  The retry/failover machinery of
:class:`repro.execution.ExecutionPolicy` keys off exactly this
classification via :func:`is_transient`.

This module sits at the very bottom of the package -- it imports nothing
from :mod:`repro` -- so every layer (algebra, engine, planner, rewriter,
backends, API) can adopt the taxonomy without import cycles.

Class hierarchy::

    ReproError
    +-- ParseError (also ValueError)      permanent   malformed query text / fluent chain
    |   +-- FluentError                   permanent   malformed fluent chain / session call
    +-- PlanError                         permanent   plan construction, rewrite, planning
    +-- QueryTimeoutError (also TimeoutError)
    |                                     permanent   deadline exhausted (a fresh call
    |                                                 gets a fresh deadline; retrying
    |                                                 under the same one cannot help)
    +-- ResourceLimitError                permanent   row budget exceeded
    +-- BackendError                      either      execution host failed (``transient=``
    |   |                                             set per instance, e.g. SQLITE_BUSY)
    |   +-- BackendUnavailableError       transient   host missing / closed / injected outage
    +-- ProtocolError                     permanent   malformed wire frame / message
    +-- IncrementalError                  permanent   inconsistent view delta state

The query-server wire protocol (:mod:`repro.server`, :mod:`repro.client`)
maps onto the same taxonomy: error frames carry the class name of the
server-side failure and the client re-raises the matching class, while
client-observed transport failures (a dropped connection, an unreachable
host) surface as :class:`BackendUnavailableError` -- so
:class:`repro.execution.ExecutionPolicy` retry and failover work unchanged
against a remote backend.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ReproError",
    "ParseError",
    "FluentError",
    "PlanError",
    "BackendError",
    "BackendUnavailableError",
    "IncrementalError",
    "ProtocolError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "is_transient",
]


class ReproError(Exception):
    """Base class of every error the library raises at a public boundary.

    ``transient`` classifies the failure for retry purposes; it is a class
    default that concrete classes (or individual instances, see
    :class:`BackendError`) override.
    """

    #: Class-level default; ``True`` means retrying the same call may succeed.
    transient: bool = False


class ParseError(ReproError, ValueError):
    """Malformed query text or fluent-chain construction (permanent).

    Also a :class:`ValueError` for backwards compatibility: the API
    boundary historically raised ad-hoc ``ValueError`` subclasses
    (``ExpressionSyntaxError``, ``FluentError``), which now live under this
    class.
    """


class FluentError(ParseError):
    """Raised for malformed fluent chains and session calls (before any execution).

    A :class:`ParseError` (and hence still a ``ValueError``, as before the
    taxonomy existed); re-exported by :mod:`repro.api`.
    """


class PlanError(ReproError):
    """A plan could not be built, rewritten, optimized or executed (permanent).

    The algebra's :class:`~repro.algebra.operators.AlgebraError` (and with
    it the rewriter's ``RewriteError`` and the engine's ``ExecutorError``)
    derive from this class.
    """


class BackendError(ReproError):
    """An execution host rejected or failed a plan.

    Permanent by default; pass ``transient=True`` for failures that a
    retry may clear (SQLite's ``database is locked`` / ``busy``, an
    injected fault)::

        raise BackendError("database is locked", transient=True)
    """

    def __init__(self, *args: Any, transient: bool | None = None) -> None:
        super().__init__(*args)
        if transient is not None:
            self.transient = transient


class BackendUnavailableError(BackendError):
    """The execution host cannot be reached at all.

    Raised when a backend name does not resolve, when a closed session or
    backend is used, and by the fault-injection harness for simulated
    outages.  Classified transient -- an outage may clear -- which also
    makes it the canonical trigger for the failover path of
    :class:`repro.execution.ExecutionPolicy`.
    """

    transient = True


class ProtocolError(ReproError):
    """A malformed wire frame or message on the query-server protocol.

    Raised by the framing layer (:mod:`repro.server.protocol`) for frames
    exceeding the size bound, truncated payloads, undecodable JSON, unknown
    message or plan-node types.  Classified permanent: resending the same
    bytes cannot help.  Transport-level failures (the peer vanished) are
    *not* protocol errors -- they map to
    :class:`BackendUnavailableError` so the retry machinery engages.
    """


class IncrementalError(ReproError):
    """A materialized view's delta state became inconsistent (permanent).

    Raised when applying a :class:`~repro.incremental.Delta` would drive a
    base or view multiplicity negative -- deleting a row that is not there,
    or feeding a detached delta stream that diverged from the catalog.  The
    view state is left untouched; the caller must fix the stream (or call
    :meth:`~repro.incremental.MaterializedView.refresh`).
    """


class QueryTimeoutError(ReproError, TimeoutError):
    """The query exceeded its :class:`~repro.execution.ExecutionPolicy` deadline.

    Classified permanent: the deadline budget covers the *whole* execution,
    retries included, so once it is exhausted another attempt under the
    same policy cannot succeed.  A fresh call gets a fresh deadline.
    """


class ResourceLimitError(ReproError):
    """An operator or result exceeded the policy's row budget (permanent)."""


def is_transient(error: BaseException) -> bool:
    """Is ``error`` worth retrying?  ``False`` for non-repro errors."""
    return bool(getattr(error, "transient", False))
