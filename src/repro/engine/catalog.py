"""The engine catalog: a named collection of multiset period tables.

:class:`Database` plays the role of the DBMS instance the paper's middleware
connects to.  Besides table storage it records, per table, which pair of
attributes holds the validity period -- the piece of metadata the user has
to supply for each relation accessed inside a ``SEQ VT (...)`` block.

Versions: what the catalog stores per table is an immutable
:class:`~repro.engine.table.TableVersion`; DML builds the successor from it.
Snapshots: :meth:`Database.snapshot` is the name -> version map published by
the last completed write, read once per query and never changed afterwards.
Writers: every write -- DML, DDL, ``analyze``, view registration and
maintenance -- runs inside :meth:`Database.writing`, one re-entrant lock, and
the outermost block publishes once; readers never take it.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .table import Table, TableError, TableVersion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats uses Table)
    from ..stats import TableStatistics

__all__ = ["Database", "DEFAULT_PERIOD"]

#: Default names of the period attributes used by the datasets in this repo.
DEFAULT_PERIOD: Tuple[str, str] = ("t_begin", "t_end")


class _Versions(Dict[str, TableVersion]):
    """A snapshot's name -> version entries; a missing name is an unknown table."""

    def __missing__(self, name: str) -> TableVersion:
        raise TableError(f"unknown table {name!r}")


class Database:
    """A catalog of multiset tables plus per-table period metadata."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._periods: Dict[str, Tuple[str, str]] = {}
        self._schema_version = 0
        # The writer lock, how deep the holding thread is inside writing()
        # blocks, and what readers see: the map the last outermost block
        # published (None: a table was written to behind the catalog's back,
        # the next snapshot() publishes first).
        self._lock = threading.RLock()
        self._depth = 0
        self._published: Optional[Mapping[str, TableVersion]] = MappingProxyType(_Versions())
        # DML observers: callables ``(table_name, {row: signed_count})``
        # invoked after every insert/delete (and every change a view's
        # maintenance makes to its backing table).  Materialized views
        # (:mod:`repro.incremental`) subscribe here so row-level DML turns
        # into Z-set deltas instead of invalidating anything; DDL
        # (create/replace/drop) deliberately does NOT notify -- it bumps
        # ``schema_version``, which views and plan caches key on.
        self._observers: List[Callable[[str, Dict[Tuple[Any, ...], int]], None]] = []
        # ANALYZE output (repro.stats).
        self._statistics: Dict[str, "TableStatistics"] = {}

    @property
    def schema_version(self) -> int:
        """A counter bumped by every DDL change (create/replace/drop).

        Rewritten plans depend on table schemas and period metadata, so plan
        caches (:class:`repro.rewriter.pipeline.QueryPipeline`) key on this
        version to invalidate automatically when the catalog shape changes.
        Row-level DML (:meth:`insert` / :meth:`delete`) does not bump it --
        rewriting never looks at the data; registered DML observers turn
        such mutations into incremental deltas instead.
        """
        return self._schema_version

    # -- DDL ----------------------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence] = (),
        period: Optional[Tuple[str, str]] = None,
    ) -> Table:
        """Create (or replace) a table; ``period`` marks its validity attributes."""
        table = Table(name, schema, rows)
        if period is not None:
            begin, end = period
            if not (table.has_attribute(begin) and table.has_attribute(end)):
                raise TableError(
                    f"period attributes {period} not in schema {table.schema}"
                )
        table._written = weakref.WeakMethod(self._written_directly)
        with self.writing():
            if period is not None:
                self._periods[name] = (begin, end)
            else:
                self._periods.pop(name, None)
            self._tables[name] = table
            self._schema_version += 1
            self._drop_statistics(name)
        return table

    def register(self, table: Table, period: Optional[Tuple[str, str]] = None) -> Table:
        """Register an existing table object under its own name."""
        return self.create_table(table.name, table.schema, table.rows, period)

    def drop_table(self, name: str) -> None:
        with self.writing():
            self._tables.pop(name, None)
            self._periods.pop(name, None)
            self._schema_version += 1
            self._drop_statistics(name)

    # -- versions, snapshots, the writer lock ---------------------------------------------------

    @contextmanager
    def writing(self) -> Iterator[None]:
        """Serialise with every other writer; publish once, when the outermost block ends.

        Everything written inside one outermost block -- a base-table write
        and the view updates its observers make -- becomes visible to
        :meth:`snapshot` together.  Re-entrant; never taken by a query.
        """
        with self._lock:
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
                if not self._depth:
                    self._publish()

    def snapshot(self) -> Mapping[str, TableVersion]:
        """The table versions a query starting now reads, all of them, for as long as it runs."""
        published = self._published
        if published is None:
            with self._lock:
                published = self._publish()
        return published

    def _publish(self) -> Mapping[str, TableVersion]:
        working, published = self.working(), self._published
        if published is None or published != working:  # a refused write publishes nothing
            published = self._published = MappingProxyType(working)
        return published

    def working(self) -> Dict[str, TableVersion]:
        """The versions current right now, unpublished writes of the lock's holder included.

        What a writer reads its own writes from (a view refreshing inside a
        DML call); everyone else reads :meth:`snapshot`.
        """
        return _Versions({name: table.version for name, table in self._tables.items()})

    def _written_directly(self) -> None:
        # ``table.append`` / ``table.rows = ...`` on a catalog table.  Inside
        # a writing() block the publish is still to come; outside one, the
        # published map is out of date until the next snapshot() replaces it.
        if not self._depth:
            self._published = None

    # -- DML -----------------------------------------------------------------------------------

    def add_dml_observer(
        self, callback: Callable[[str, Dict[Tuple[Any, ...], int]], None]
    ) -> None:
        """Subscribe to insert/delete deltas (``(name, {row: +/-count})``)."""
        self._observers.append(callback)

    def remove_dml_observer(
        self, callback: Callable[[str, Dict[Tuple[Any, ...], int]], None]
    ) -> None:
        if callback in self._observers:
            self._observers.remove(callback)

    def _notify_dml(self, name: str, delta: Dict[Tuple[Any, ...], int]) -> None:
        if not delta:
            return
        for callback in list(self._observers):
            callback(name, delta)

    def insert(self, name: str, rows: Iterable[Sequence]) -> None:
        """Append rows: all of them, or -- on a malformed row -- none.

        DML: the schema version is untouched, observers receive the rows
        with positive multiplicities.
        """
        with self.writing():
            table = self.table(name)
            added = table.checked(rows)
            if not added:
                return
            table._install(table.version.appended(added))
            self._drop_statistics(name)
            if self._observers:
                self._notify_dml(name, dict(Counter(added)))

    def delete(self, name: str, rows: Iterable[Sequence]) -> None:
        """Remove one copy per given row (bag semantics).

        Deleting a row the table does not hold enough copies of raises
        :class:`TableError` before anything is removed.  Like
        :meth:`insert` this is DML: the schema version is untouched, and
        observers receive the rows with negative multiplicities.
        """
        removing = Counter(tuple(row) for row in rows)
        if not removing:
            return
        with self.writing():
            table = self.table(name)
            version = table.version
            doomed = version.positions(removing)
            table._install(version.without(doomed))
            self._drop_statistics(name)
            if self._observers:
                self._notify_dml(name, {row: -count for row, count in removing.items()})

    # -- lookup -----------------------------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise TableError(f"unknown table {name!r}") from exc

    def period_of(self, name: str) -> Optional[Tuple[str, str]]:
        """The (begin, end) attribute pair of a period table, or None."""
        return self._periods.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return f"Database({len(self._tables)} tables)"

    # -- statistics (used by reports and the estimator) ----------------------------------------------

    def row_counts(self) -> Mapping[str, int]:
        return {name: len(table) for name, table in self._tables.items()}

    def analyze(self, table: Optional[str] = None) -> Dict[str, "TableStatistics"]:
        """Collect and store statistics for one table (or every table).

        Returns the freshly collected :class:`~repro.stats.TableStatistics`
        by table name.  Statistics live in the catalog until DML touches
        the table (:meth:`insert` / :meth:`delete` drop them) or DDL
        replaces it.
        """
        from ..stats import collect_table_statistics

        collected: Dict[str, "TableStatistics"] = {}
        with self.writing():  # the names are read inside: no table is dropped under the loop
            names = (table,) if table is not None else self.names()
            for name in names:
                statistics = collect_table_statistics(
                    self.table(name), self._periods.get(name)
                )
                self.set_statistics(name, statistics)
                collected[name] = statistics
        return collected

    def set_statistics(self, name: str, statistics: "TableStatistics") -> None:
        """Store ANALYZE output for ``name``."""
        self._statistics[name] = statistics

    def statistics_for(self, name: str) -> Optional["TableStatistics"]:
        """The stored statistics of one table, or None when never analyzed."""
        return self._statistics.get(name)

    def table_statistics(self) -> Mapping[str, "TableStatistics"]:
        """A read-only view of every stored table statistic."""
        return dict(self._statistics)

    def _drop_statistics(self, name: str) -> None:
        # After DML or DDL the row counts / histograms no longer describe the
        # table: dropped rather than served stale.
        self._statistics.pop(name, None)
