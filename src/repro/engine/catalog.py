"""The engine catalog: a named collection of multiset period tables.

:class:`Database` plays the role of the DBMS instance the paper's middleware
connects to.  Besides table storage it records, per table, which pair of
attributes holds the validity period -- the piece of metadata the user has
to supply for each relation accessed inside a ``SEQ VT (...)`` block.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .table import Table, TableError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats uses Table)
    from ..stats import TableStatistics

__all__ = ["Database", "DEFAULT_PERIOD"]

#: Default names of the period attributes used by the datasets in this repo.
DEFAULT_PERIOD: Tuple[str, str] = ("t_begin", "t_end")


class Database:
    """A catalog of multiset tables plus per-table period metadata."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._periods: Dict[str, Tuple[str, str]] = {}
        self._schema_version = 0
        # DML observers: callables ``(table_name, {row: signed_count})``
        # invoked after every insert/delete.  Materialized views
        # (:mod:`repro.incremental`) subscribe here so row-level DML turns
        # into Z-set deltas instead of invalidating anything; DDL
        # (create/replace/drop) deliberately does NOT notify -- it bumps
        # ``schema_version``, which views and plan caches key on.
        self._observers: List[Callable[[str, Dict[Tuple[Any, ...], int]], None]] = []
        # ANALYZE output (repro.stats).  ``_stats_epoch`` counts every
        # change to the stored statistics; cost-based plan caches key on it
        # the way syntactic caches key on ``schema_version``.  The DML
        # observer that drops stale statistics is registered lazily on the
        # first ``analyze()`` so stats-free catalogs keep the fast
        # no-observer insert path.
        self._statistics: Dict[str, "TableStatistics"] = {}
        self._stats_epoch = 0
        self._stats_observer_active = False

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
        self._tables.pop(name, None)
        self._periods.pop(name, None)
        self._schema_version += 1
        self._drop_statistics(name)

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
        table = self.table(name)
        added = [tuple(row) for row in rows]
        table.extend(added)
        if self._observers and added:
            self._notify_dml(name, dict(Counter(added)))

    def delete(self, name: str, rows: Iterable[Sequence]) -> None:
        """Remove one copy per given row (bag semantics).

        Deleting a row the table does not hold enough copies of raises
        :class:`TableError` before anything is removed.  Like
        :meth:`insert` this is DML: the schema version is untouched, and
        observers receive the rows with negative multiplicities.
        """
        table = self.table(name)
        removing = Counter(tuple(row) for row in rows)
        if not removing:
            return
        held = table.rows
        # One membership pass over the table; the budget then walks only the
        # candidates, taking the first ``count`` copies of each doomed row.
        budget = dict(removing)
        doomed = []
        for position in [p for p, row in enumerate(held) if row in budget]:
            row = held[position]
            if budget[row]:
                budget[row] -= 1
                doomed.append(position)
        missing = sorted(str(row) for row, short in budget.items() if short)
        if missing:
            raise TableError(
                f"cannot delete from {name!r}: row(s) not present "
                f"(or not often enough): {missing[:3]}"
            )
        kept: List[Tuple[Any, ...]] = []
        start = 0
        for position in doomed:
            kept += held[start:position]
            start = position + 1
        kept += held[start:]
        # Replace (not mutate) the row list so the memoised columnar
        # transpose -- keyed on the list's identity -- invalidates.
        table.rows = kept
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

    # -- statistics (used by reports and the optimizer) ----------------------------------------------

    def row_counts(self) -> Mapping[str, int]:
        return {name: len(table) for name, table in self._tables.items()}

    @property
    def stats_epoch(self) -> int:
        """A counter bumped whenever stored statistics change.

        ``analyze()`` bumps it per table analyzed; DML on an analyzed table
        drops that table's (now stale) statistics and bumps it once more.
        DML on a table without statistics leaves the epoch alone, so the
        cost-planner plan cache -- which keys on this epoch -- is only
        invalidated when the numbers it planned with actually moved.
        """
        return self._stats_epoch

    def analyze(self, table: Optional[str] = None) -> Dict[str, "TableStatistics"]:
        """Collect and store statistics for one table (or every table).

        Returns the freshly collected :class:`~repro.stats.TableStatistics`
        by table name.  Statistics live in the catalog until DML touches
        the table (a lazily registered DML observer drops them -- the same
        hook materialized views subscribe to) or DDL replaces it.
        """
        from ..stats import collect_table_statistics

        names = (table,) if table is not None else self.names()
        collected: Dict[str, "TableStatistics"] = {}
        for name in names:
            statistics = collect_table_statistics(
                self.table(name), self._periods.get(name)
            )
            self.set_statistics(name, statistics)
            collected[name] = statistics
        return collected

    def set_statistics(self, name: str, statistics: "TableStatistics") -> None:
        """Store ANALYZE output for ``name`` and bump the stats epoch."""
        if not self._stats_observer_active:
            self.add_dml_observer(self._invalidate_statistics)
            self._stats_observer_active = True
        self._statistics[name] = statistics
        self._stats_epoch += 1

    def statistics_for(self, name: str) -> Optional["TableStatistics"]:
        """The stored statistics of one table, or None when never analyzed."""
        return self._statistics.get(name)

    def table_statistics(self) -> Mapping[str, "TableStatistics"]:
        """A read-only view of every stored table statistic."""
        return dict(self._statistics)

    def _invalidate_statistics(self, name: str, delta: Dict[Tuple[Any, ...], int]) -> None:
        # DML observer: the row counts / histograms no longer describe the
        # table, so drop them rather than serve stale estimates.
        self._drop_statistics(name)

    def _drop_statistics(self, name: str) -> None:
        if self._statistics.pop(name, None) is not None:
            self._stats_epoch += 1
