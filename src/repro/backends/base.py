"""The in-memory execution backends: the engine of :mod:`repro.engine.executor`.

The :class:`~repro.execution.ExecutionBackend` protocol and the backend
registry live in :mod:`repro.execution` (below the rewriter, so the
pipeline and the fluent API import them without cycles); this module
contributes the two in-process implementations and registers them.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.executor import execute as engine_execute
from ..engine.table import Table
from ..execution import QueryLimits, register_backend

__all__ = ["InMemoryBackend", "BatchBackend"]


class InMemoryBackend:
    """The default backend: the engine of :mod:`repro.engine.executor`."""

    name = "memory"

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        return engine_execute(plan, database, statistics, limits=limits)

    def __repr__(self) -> str:
        return "InMemoryBackend()"


class BatchBackend:
    """The in-memory engine with the columnar batch executor.

    Registered as ``"batch"`` so every backend-name surface -- pipeline
    ``backend=`` overrides, the conformance harness's ``backends=`` matrix,
    policy fallbacks, server query frames -- can address the columnar
    executor without new plumbing.  Equivalent to the memory backend with
    ``executor="batch"``.
    """

    name = "batch"

    def __init__(self, parallel_workers: Optional[int] = None) -> None:
        self.parallel_workers = parallel_workers

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        return engine_execute(
            plan,
            database,
            statistics,
            limits=limits,
            executor="batch",
            parallel_workers=self.parallel_workers,
        )

    def __repr__(self) -> str:
        return f"BatchBackend(parallel_workers={self.parallel_workers!r})"


register_backend(InMemoryBackend.name, InMemoryBackend)
register_backend(BatchBackend.name, BatchBackend)
