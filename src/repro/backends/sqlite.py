"""The SQLite execution backend: rewritten plans on a real DBMS.

This realises the paper's deployment model end to end: the pipeline
rewrites a snapshot query into an ordinary multiset query, the compiler
(:mod:`repro.backends.sqlcompile`) prints it as one SQL statement -- window
functions included -- and a stock DBMS executes it over the PERIODENC
tables.  Rows come back decoded into an engine :class:`Table` carrying
``t_begin``/``t_end``, so everything downstream (period decoding,
verification against the logical model) is backend-agnostic.

Two modes:

* **one-shot** (the registry default): each :meth:`execute` opens a fresh
  in-memory database and loads exactly the relations the plan references --
  hermetic, right for tests;
* **session** (:meth:`SQLiteBackend.for_database`): the catalog is loaded
  once and the connection is reused across queries -- right for benchmarks,
  where load time would otherwise drown the query time being measured.
  The copy follows the catalog: every query reads one
  :meth:`~repro.engine.catalog.Database.snapshot`, and a referenced table
  whose version there is not the one its copy was loaded from -- DML or DDL
  happened -- is re-loaded from that version first.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import Collection, Dict, Iterator, List, Optional

from ..algebra.operators import Operator, RelationAccess
from ..datasets.sqlite_loader import connect_memory, load_table
from ..engine.catalog import Database
from ..engine.table import Table, TableVersion
from ..errors import (
    BackendError,
    BackendUnavailableError,
    QueryTimeoutError,
    ResourceLimitError,
)
from ..execution import QueryLimits, register_backend
from ..planner import optimize as planner_optimize
from .sqlcompile import compile_plan

__all__ = ["SQLiteBackend"]


class SQLiteBackend:
    """Compiles plans to SQL and executes them on :mod:`sqlite3`.

    Plans are run through the planner (:mod:`repro.planner`) before SQL
    compilation -- selections pushed to the base tables and identity
    projections removed shorten the flat CTE chain the compiler emits and
    let SQLite filter early.  ``optimize=False`` compiles the plan verbatim.
    """

    name = "sqlite"

    #: How many SQLite VM opcodes run between deadline checks.  Small enough
    #: to cancel long scans promptly, large enough that the progress handler
    #: does not dominate execution time.
    PROGRESS_OPCODES = 2000

    def __init__(
        self,
        connection: Optional[sqlite3.Connection] = None,
        optimize: bool = True,
    ) -> None:
        self._connection = connection
        self._session_database: Optional[Database] = None
        # Session mode: the id of the table version each SQLite copy was
        # loaded from.  Mutated in place only: the pipeline's shallow copies
        # of a session backend share it.
        self._loaded: Dict[str, int] = {}
        self.optimize = optimize
        self._active_connection: Optional[sqlite3.Connection] = None
        self._interrupt_requested = False
        self._sync_per_execute = False

    @classmethod
    def at_path(cls, path: str, optimize: bool = True) -> "SQLiteBackend":
        """A durable file-backed backend: the ``sqlite:///path`` DSN mode.

        The connection stays open across queries (like a session backend)
        but is *not* bound to one catalog: the relations a plan references
        are re-synced from the engine catalog before every execution
        (:func:`~repro.datasets.sqlite_loader.load_table` drops and
        recreates), so results always reflect the current catalog while the
        file keeps the latest copy of every queried table durable across
        processes.  ``check_same_thread=False`` because the query server
        executes on a worker-thread pool.
        """
        connection = sqlite3.connect(path, check_same_thread=False)
        backend = cls(connection, optimize=optimize)
        backend._sync_per_execute = True
        return backend

    @classmethod
    def for_database(
        cls, database: Database, optimize: bool = True
    ) -> "SQLiteBackend":
        """A session backend with the whole catalog loaded once up front.

        Pass ``optimize=False`` when every plan this backend will see is
        already optimized (e.g. it only executes ``QueryPipeline.rewrite``
        output), to avoid a redundant planner pass per query.
        """
        backend = cls(connect_memory(), optimize=optimize)
        backend._session_database = database
        backend._sync(backend._connection, database.snapshot().values(), None)
        return backend

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def interrupt(self) -> None:
        """Cancel the statement currently running on this backend, if any.

        Safe to call from another thread (that is the point: the executing
        thread is inside :mod:`sqlite3`).  The cancelled ``execute`` raises
        :class:`~repro.errors.QueryTimeoutError` noting the cancellation.
        """
        self._interrupt_requested = True
        connection = self._active_connection or self._connection
        if connection is not None:
            connection.interrupt()

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        if self.optimize:
            plan = planner_optimize(plan, database, statistics)
        compiled = compile_plan(plan, database)
        with self._synced_connection(plan, database, statistics) as connection:
            rows = self._run(connection, compiled.sql, limits)
        if statistics is not None:
            statistics["sqlite_statements"] = statistics.get("sqlite_statements", 0) + 1
            statistics["sqlite_result_rows"] = (
                statistics.get("sqlite_result_rows", 0) + len(rows)
            )
        result = Table("sqlite", compiled.schema)
        result.rows = rows
        return result

    def explain(self, plan: Operator, database: Database) -> List[str]:
        """What the host does with ``plan``: statement size and its query plan.

        The first line gives the compiled statement's length and CTE count;
        the rest are SQLite's ``EXPLAIN QUERY PLAN`` rows, indented by
        nesting.  Per join block, ``SCAN`` of one input and ``SEARCH ...
        USING AUTOMATIC COVERING INDEX`` of the other is an index join; two
        ``SCAN`` lines are a nested-loop cross product.
        """
        if self.optimize:
            plan = planner_optimize(plan, database)
        sql = compile_plan(plan, database).sql
        with self._synced_connection(plan, database, None) as connection:
            steps = self._run(connection, f"EXPLAIN QUERY PLAN {sql}")
        lines = [f"statement: {len(sql)} chars, {sql.count(' AS (')} CTEs"]
        depth = {0: 0}
        for step, parent, _, detail in steps:
            depth[step] = depth.get(parent, 0) + 1
            lines.append("  " * depth[step] + detail)
        return lines

    @contextmanager
    def _synced_connection(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]],
    ) -> Iterator[sqlite3.Connection]:
        """A connection holding current copies of the tables ``plan`` reads."""
        snapshot = database.snapshot()
        referenced = [
            snapshot[name]
            for name in sorted(
                {node.name for node in plan.walk() if isinstance(node, RelationAccess)}
            )
        ]
        if self._connection is not None:
            if self._sync_per_execute:  # file mode
                stale = referenced
            elif self._session_database is None:  # the caller's own connection
                stale = []
            elif database is not self._session_database:
                raise BackendError(
                    "session backend is bound to a different catalog; "
                    "use SQLiteBackend.for_database(database) for this one"
                )
            else:
                stale = [
                    version
                    for version in referenced
                    if self._loaded.get(version.name) != version.id
                ]
            self._sync(self._connection, stale, statistics)
            yield self._connection
        elif self._session_database is not None or self._sync_per_execute:
            raise BackendUnavailableError("session backend has been closed")
        else:  # one-shot: a hermetic database per execution
            connection = connect_memory()
            try:
                self._sync(connection, referenced, statistics)
                yield connection
            finally:
                connection.close()

    def _sync(
        self,
        connection: sqlite3.Connection,
        versions: Collection[TableVersion],
        statistics: Optional[Dict[str, int]],
    ) -> None:
        """(Re)load the given table versions and record what the copies reflect."""
        if not versions:
            return
        loaded = 0
        for version in versions:
            loaded += load_table(connection, version.as_table())
            if self._session_database is not None:
                self._loaded[version.name] = version.id
        connection.commit()
        if statistics is not None:
            statistics["sqlite_rows_loaded"] = (
                statistics.get("sqlite_rows_loaded", 0) + loaded
            )

    def _run(
        self,
        connection: sqlite3.Connection,
        sql: str,
        limits: Optional[QueryLimits] = None,
    ):
        deadline = limits.deadline if limits is not None else None
        budget = limits.row_budget if limits is not None else None
        if deadline is not None:
            # Fail fast (a zero deadline never reaches SQLite), then let the
            # progress handler abort the statement once the clock runs out:
            # SQLite surfaces the abort as an "interrupted" OperationalError.
            deadline.check()
            connection.set_progress_handler(
                lambda: 1 if deadline.expired else 0, self.PROGRESS_OPCODES
            )
        self._active_connection = connection
        try:
            cursor = connection.execute(sql)
            if budget is None:
                return cursor.fetchall()
            rows = cursor.fetchmany(budget + 1)
            if len(rows) > budget:
                raise ResourceLimitError(
                    f"SQLite result exceeds the {budget}-row budget"
                )
            return rows
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "interrupt" in message:
                cancelled = self._interrupt_requested
                self._interrupt_requested = False
                if cancelled and (deadline is None or not deadline.expired):
                    raise QueryTimeoutError(
                        "SQLite execution cancelled via interrupt()"
                    ) from exc
                seconds = deadline.seconds if deadline is not None else 0.0
                raise QueryTimeoutError(
                    f"query exceeded its {seconds:g}s deadline"
                ) from exc
            if "locked" in message or "busy" in message:
                raise BackendError(
                    f"SQLite transient failure: {exc}", transient=True
                ) from exc
            raise BackendError(f"SQLite rejected compiled plan: {exc}\n{sql}") from exc
        except sqlite3.Error as exc:
            raise BackendError(f"SQLite rejected compiled plan: {exc}\n{sql}") from exc
        finally:
            self._active_connection = None
            if deadline is not None:
                connection.set_progress_handler(None, 0)

    def __repr__(self) -> str:
        if self._sync_per_execute:
            mode = "file"
        elif self._session_database is not None:
            mode = "session"
        else:
            mode = "one-shot"
        return f"SQLiteBackend({mode})"


register_backend(SQLiteBackend.name, SQLiteBackend)
