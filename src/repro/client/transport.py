"""The ``repro://`` transport under :class:`~repro.api.Session`.

:class:`WireTransport` is what a session holds instead of a local pipeline
when it was opened with ``connect("repro://host:port")``: every verb of
:mod:`repro.server.verbs` becomes one request/reply exchange on a
:class:`~repro.client.connection.RemoteConnection`, and ``query`` becomes a
streamed exchange, executing through the server's *shared* plan cache (one
client's cold query is every other client's warm hit).

Division of labour with the server:

* **rewrite + execute + deadline + row budget** run server-side (the query
  frame carries the remaining ``timeout_seconds`` and ``max_result_rows``
  of the effective :class:`~repro.execution.ExecutionPolicy`);
* **retries + failover** run client-side through the shared
  :meth:`~repro.execution.PolicyCounters.run`, because the transport is one
  of the failure modes being tolerated: a dropped connection surfaces as
  the transient :class:`~repro.errors.BackendUnavailableError`, the retry
  reconnects, and ``fallback_backend`` names the backend the *server*
  should degrade to;
* **decoding** (``.decoded`` / ``.snapshot``) runs client-side on the
  streamed period rows, against the domain announced in the welcome frame.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..algebra.operators import Operator
from ..engine.table import Table
from ..errors import FluentError
from ..execution import (
    ExecutionInfo,
    ExecutionPolicy,
    PolicyCounters,
    QueryLimits,
    backend_name,
)
from ..server.verbs import QUERY, VERBS
from ..temporal.timedomain import TimeDomain
from .connection import RemoteConnection

__all__ = ["WireTransport", "RemoteView"]


class WireTransport:
    """Session verbs and queries as frames to a :class:`~repro.server.QueryServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[ExecutionPolicy] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self._connection = RemoteConnection(host, port, connect_timeout)
        #: Session-default policy; its retries and failover run client-side.
        self.policy = policy
        self._counters = PolicyCounters()
        # Fail fast on a dead address and learn the domain immediately.
        lo, hi = self._connection.ensure_connected()["domain"]
        self.domain = TimeDomain(lo, hi)

    def describe(self) -> str:
        return f"repro://{self._connection.host}:{self._connection.port}"

    def close(self) -> None:
        self._connection.close()

    def execution_info(self) -> ExecutionInfo:
        """Client-observed counters: retries and failover run on this side."""
        return self._counters.info()

    def call(self, verb: str, **args: Any) -> Any:
        spec = VERBS[verb]
        return spec.decode_result(self._connection.request(spec.request(args)))

    def view(
        self, call: Callable[..., Any], name: str, described: Optional[Dict[str, Any]] = None
    ) -> "RemoteView":
        described = described or call("view_info", name=name)
        return RemoteView(call, name, tuple(described["schema"]))

    def query(
        self,
        plan: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: Optional[Any] = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        def run(target: Optional[Any], limits: Optional[QueryLimits]) -> Table:
            args = {"plan": plan, "final_coalesce": final_coalesce}
            if target is not None:
                args["backend"] = backend_name(target)
                if not isinstance(args["backend"], str):
                    raise FluentError(
                        f"remote execution addresses backends by name; got instance {target!r}"
                    )
            timeout = None
            if limits is not None:
                if limits.deadline is not None:
                    timeout = args["timeout_seconds"] = max(0.0, limits.deadline.remaining)
                if limits.row_budget is not None:
                    args["max_result_rows"] = limits.row_budget
            name, schema, rows, remote = self._connection.run_query(
                QUERY.request(args), timeout
            )
            if statistics is not None:
                # Counters add up (retried attempts accumulate, as locally);
                # ``server.*`` gauges overwrite (the latest observation wins).
                for key, value in remote.items():
                    if key.startswith("server."):
                        statistics[key] = value
                    else:
                        statistics[key] = statistics.get(key, 0) + value
            table = Table(name, schema)
            table.rows = rows
            return table

        effective = policy if policy is not None else self.policy
        return self._counters.run(effective, run, backend, statistics)


class RemoteView:
    """A client handle on a server-side incrementally maintained view.

    The :class:`~repro.incremental.MaterializedView` surface (``apply`` /
    ``rows`` / ``table`` / ``counters`` / ``stale`` / ``verify``) as a proxy
    over the ``view_*`` verbs, each call one round-trip; the view itself --
    its partitioned inputs and backing table -- lives on the server
    and is shared by every connected client.
    """

    def __init__(self, call: Callable[..., Any], name: str, schema: Tuple[str, ...]):
        self._call = call
        self.name = name
        self.schema = schema

    def apply(
        self,
        deltas: Iterable[Any],
        statistics: Optional[Dict[str, int]] = None,
    ) -> int:
        """Ship signed-row deltas to the server view; returns the new size.

        ``deltas`` is an iterable of :class:`~repro.incremental.Delta`
        (or anything with ``.relation`` and ``.entries``).
        """
        size, counters = self._call("view_apply", name=self.name, deltas=deltas)
        if statistics is not None:
            for key, value in counters.items():
                statistics[key] = statistics.get(key, 0) + value
        return size

    def rows(self) -> List[Tuple[Any, ...]]:
        """The view's current contents (one round-trip)."""
        return self._call("view_rows", name=self.name)[1]

    def table(self) -> Table:
        """The view's current contents as a local period table."""
        schema, rows = self._call("view_rows", name=self.name)
        table = Table(self.name, schema)
        table.rows = rows
        return table

    def info(self) -> Dict[str, Any]:
        """The server's full view descriptor (schema, staleness, counters)."""
        return self._call("view_info", name=self.name)

    @property
    def stale(self) -> bool:
        return bool(self.info()["stale"])

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return tuple(self.info()["base_relations"])

    @property
    def counters(self) -> Dict[str, int]:
        """Lifetime ``incremental.*`` maintenance counters, server-side."""
        return dict(self.info()["counters"])

    def verify(self) -> bool:
        """Server-side bag-equality check of the view vs. full re-execution."""
        return self._call("view_verify", name=self.name)

    def __len__(self) -> int:
        return len(self.rows())

    def __repr__(self) -> str:
        return f"RemoteView({self.name!r}, schema={list(self.schema)})"
