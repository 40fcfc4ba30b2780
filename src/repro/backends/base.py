"""The in-memory execution backend: the engine behind :func:`repro.engine.execute`.

The :class:`~repro.execution.ExecutionBackend` protocol and the backend
registry live in :mod:`repro.execution` (below the rewriter, so the
pipeline and the fluent API import them without cycles); this module
contributes the in-process implementation and registers it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.executor import execute as engine_execute
from ..engine.table import Table
from ..execution import QueryLimits, register_backend

__all__ = ["InMemoryBackend"]


class InMemoryBackend:
    """The default backend: the engine behind :func:`repro.engine.execute`."""

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


register_backend(InMemoryBackend.name, InMemoryBackend)
