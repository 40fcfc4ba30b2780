"""Execution backends: hosts that run the engine's logical plans.

The rewritten queries are ordinary multiset queries; anything that can
execute those over the PERIODENC tables can serve as the host DBMS.
``"memory"`` is the in-process engine of :mod:`repro.engine` (one engine:
columnar batches, with the row operators kept beside it as the reference
the differential suites compare against), ``"sqlite"`` compiles plans to
SQL (window functions included) and runs them on :mod:`sqlite3`.  Select one wherever
a ``backend=`` parameter is accepted (:func:`repro.connect`,
:class:`repro.rewriter.pipeline.QueryPipeline`, the conformance harness),
by name or as an instance.  The contract -- the
:class:`~repro.execution.ExecutionBackend` protocol and the name registry
-- lives in :mod:`repro.execution`.
"""

from .base import InMemoryBackend
from .sqlcompile import CompiledQuery, SQLCompiler, compile_plan
from .sqlite import SQLiteBackend

__all__ = [
    "InMemoryBackend",
    "SQLiteBackend",
    "CompiledQuery",
    "SQLCompiler",
    "compile_plan",
]
