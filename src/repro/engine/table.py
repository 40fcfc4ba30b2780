"""In-memory multiset tables: the storage layer of the engine substrate.

The paper's implementation layer runs on an ordinary relational DBMS storing
*SQL period relations*: plain multiset tables where the validity interval of
a tuple is kept in two regular attributes.  This module provides that
storage abstraction.  A :class:`Table` is simply a schema plus a list of
value tuples -- duplicates are meaningful (bag semantics) and order is not.

What a query reads is a :class:`TableVersion`: one state of a table, fixed
when it was created -- a row count, the row list it is a prefix of and,
from the first scan on, one :class:`~repro.engine.kernels.Column` per
attribute with whatever typed forms the kernels derived.  A ``Table`` is the
mutable cell that names the current one.  Catalog DML
(:meth:`repro.engine.catalog.Database.insert` / ``delete``) builds the
successor *from* its predecessor -- :meth:`TableVersion.appended`,
:meth:`TableVersion.without` -- so the forms are carried and only the rows
that changed are scanned; any other write (``table.append``, ``table.rows =
...``) simply starts a version with nothing derived yet.  A delete finds its
rows with :meth:`TableVersion.positions`, which reads the codes a column
carries, if any does, to skip the rows that cannot match; a materialized
view reads the rows of its dirty keys as a version of their own,
:meth:`TableVersion.restricted`.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import PlanError
from . import kernels as _kernels
from .kernels import Column

__all__ = ["Table", "TableVersion", "TableError", "tuple_getter"]

Row = Tuple[Any, ...]


def tuple_getter(indexes: Sequence[int]) -> Callable[[Row], Tuple[Any, ...]]:
    """A fast row -> tuple-of-columns extractor (always returns a tuple).

    ``operator.itemgetter`` runs the multi-column case at C speed; the zero-
    and one-column cases (where itemgetter would not return a tuple) are
    special-cased so callers can rely on the result being a tuple.
    """
    if not indexes:
        empty: Row = ()
        return lambda row: empty
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    return itemgetter(*indexes)


class TableError(PlanError):
    """Raised for schema violations and malformed rows.

    A permanent :class:`~repro.errors.PlanError`: plans referencing unknown
    tables or attributes cannot succeed on retry.
    """


#: Version ids: unique per process, so "is this the state I loaded?" is one
#: comparison that stays right after the version itself is gone.
_VERSION_IDS = count(1)


class TableVersion:
    """One state of a table, never changed once a reader can see it.

    The version is the first ``count`` rows of ``_rows``.  The list may be
    the very one a later version extends (an insert appends in place, behind
    every earlier version's count), so every read here is bounded by
    ``count``; a delete gives its successor a new list.  ``columns()`` is the
    engine's storage layout -- transposed on the first scan, each column's
    typed forms derived at most once -- and the one thing a version memoises.

    :meth:`appended` and :meth:`without` build the successor of the *current*
    version of a table; the catalog calls them under its writer lock.  A
    successor holds no reference to its predecessor: a version dies with its
    last reader.
    """

    __slots__ = ("id", "name", "schema", "count", "_rows", "_columns", "__weakref__")

    def __init__(
        self,
        name: str,
        schema: Tuple[str, ...],
        rows: List[Row],
        columns: Optional[List[Column]] = None,
    ) -> None:
        self.id = next(_VERSION_IDS)
        self.name = name
        self.schema = schema
        self.count = len(rows)
        self._rows = rows
        self._columns = columns

    def rows(self) -> List[Row]:
        """This version's rows, as a list of the caller's own."""
        return self._rows[: self.count]

    def as_table(self, name: Optional[str] = None) -> "Table":
        """A private :class:`Table` of this version's rows (row reference, SQLite loading)."""
        table = Table(name or self.name, self.schema)
        table.rows = self.rows()
        return table

    def columns(self) -> List[Column]:
        """One :class:`Column` per attribute (shared: never mutate)."""
        columns = self._columns
        if columns is None:
            rows = self.rows()
            if rows:
                # zip(*rows) transposes at C speed; one list per attribute.
                columns = [Column(list(column)) for column in zip(*rows)]
            else:
                columns = [Column([]) for _ in self.schema]
            self._columns = columns
        return columns

    def positions(self, removing: Mapping[Row, int]) -> List[int]:
        """Where the first ``count`` copies of each row of ``removing`` sit, ascending.

        :class:`TableError` when some row is not held that often.
        """
        # One membership pass over the candidates -- the rows :meth:`_narrowed`
        # finds on a column's carried codes, or every row (``compress`` stops with
        # the range, at this version's count); the budget then walks only the
        # members, taking the first ``count`` copies of each doomed row.
        held = self._rows
        budget = dict(removing)
        narrowed = self._narrowed(budget)
        if narrowed is None:
            candidates: Iterable[int] = range(self.count)
            rows: Iterable[Row] = held
        else:
            candidates = narrowed.tolist()
            rows = map(held.__getitem__, candidates)
        doomed = []
        for position in compress(candidates, map(budget.__contains__, rows)):
            row = held[position]
            if budget[row]:
                budget[row] -= 1
                doomed.append(position)
        missing = sorted(str(row) for row, short in budget.items() if short)
        if missing:
            raise TableError(
                f"cannot delete from {self.name!r}: row(s) not present "
                f"(or not often enough): {missing[:3]}"
            )
        return doomed

    def _narrowed(self, removing: Mapping[Row, int]) -> Optional[Any]:
        """The rows that can equal a row of ``removing``, as an index array; ``None``: any row can.

        Read off the codes one column already carries -- a scan derived
        them, DML carried them on -- so a row is a candidate exactly when
        its value there is dict-equal to a doomed row's: the tuples a
        ``dict`` finds equal are among them.  The column is the one whose
        codes know the most distinct values.  Nothing is derived here: on a
        version no column carries codes for, below the kernel cutover and
        without numpy, every row is a candidate.
        """
        columns = self._columns
        if columns is None or not _kernels.worthwhile(self.count):
            return None
        coded = [
            (len(known[1]), position)
            for position, known in enumerate(column.known_codes() for column in columns)
            if known is not None
        ]
        if not coded:
            return None
        _, position = max(coded)
        arity = len(self.schema)
        wanted = {row[position] for row in removing if len(row) == arity}
        return _kernels.rows_holding([columns[position]], [wanted])

    def restricted(self, attributes: Sequence[int], keys: Collection[Row]) -> "TableVersion":
        """The rows whose values at ``attributes`` form a tuple in ``keys``, as a version.

        A materialized view's dirty slice.  From the kernel cutover on they
        are found on the key columns' codes (derived once, then carried by
        DML like every form), only the rows found are read, and the slice's
        columns are this version's :meth:`~repro.engine.kernels.Column.kept`
        at them, typed forms included.  Below it, and without numpy, one pass
        over the key attributes of every row finds them.  A key of no
        attributes holds every row: the slice is this version itself.
        """
        if not attributes:
            return self
        # At C speed: a key of one attribute is looked up as its value, a
        # longer one as the tuple ``itemgetter`` makes.
        key_of = itemgetter(*attributes)
        held = self._rows
        if not _kernels.worthwhile(self.count):
            wanted = keys if len(attributes) > 1 else {key[0] for key in keys}
            rows = list(
                compress(islice(held, self.count), map(wanted.__contains__, map(key_of, held)))
            )
            return TableVersion(self.name, self.schema, rows)
        columns = self.columns()
        at = _kernels.rows_holding(
            [columns[attribute] for attribute in attributes],
            [{key[index] for key in keys} for index in range(len(attributes))],
        )
        if len(attributes) > 1:  # every value is wanted, not every combination
            at = at[[key_of(held[position]) in keys for position in at.tolist()]]
        rows = _kernels.gather(held, at.tolist())
        return TableVersion(self.name, self.schema, rows, _kept(columns, at, rows))

    def appended(self, tail: List[Row]) -> "TableVersion":
        """The version after inserting ``tail`` (non-empty rows of this schema).

        The rows go into the same list, behind this version's count -- no
        reader of this or any earlier version looks there.
        """
        rows, columns = self._rows, None
        if self._columns is not None and _kernels.worthwhile(self.count):
            count = self.count + len(tail)
            columns = [
                column.extended(values, _stored(rows, count, position))
                for position, (column, values) in enumerate(zip(self._columns, zip(*tail)))
            ]
        rows[self.count :] = tail
        return TableVersion(self.name, self.schema, rows, columns)

    def without(self, doomed: Sequence[int]) -> "TableVersion":
        """The version after deleting the rows at the ascending positions ``doomed``."""
        held = self._rows
        kept: List[Row] = []
        start = 0
        for position in doomed:
            kept += held[start:position]
            start = position + 1
        kept += held[start : self.count]
        columns = None
        if self._columns is not None and _kernels.worthwhile(self.count):
            columns = _kept(self._columns, _kernels.rows_except(self.count, doomed), kept)
        return TableVersion(self.name, self.schema, kept, columns)


def _kept(columns: List[Column], at: Any, rows: List[Row]) -> List[Column]:
    """``columns`` at the index array ``at``, forms gathered now (``rows``: the rows at ``at``)."""
    return [
        column.kept(at, _stored(rows, len(rows), position))
        for position, column in enumerate(columns)
    ]


def _stored(rows: List[Row], count: int, position: int) -> Callable[[], List[Any]]:
    """Reads one attribute off a version's rows, once someone asks a carried column for values."""
    return lambda: list(map(itemgetter(position), islice(rows, count)))


class Table:
    """A named multiset relation with a fixed schema.

    Rows are stored as tuples in schema order.  The class offers just enough
    relational plumbing for the physical operators (column lookup, row/dict
    conversion, appends); query logic lives in :mod:`repro.engine.executor`.
    ``rows`` is a real list; ``version`` is the :class:`TableVersion` of its
    current contents, started afresh by every write made through this class.
    """

    __slots__ = ("name", "schema", "_rows", "_index", "_version", "_written")

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise TableError(f"duplicate attribute names in schema {self.schema}")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.schema)}
        self._rows: List[Row] = []
        self._version: Optional[TableVersion] = None
        #: Set by the catalog that holds this table (weakly: a table does not keep
        #: its catalog alive), to be told of writes that do not go through it.
        self._written: Optional[Callable[[], Optional[Callable[[], None]]]] = None
        self.extend(rows)

    # -- construction ---------------------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, name: str, schema: Iterable[str], rows: Iterable[Mapping[str, Any]]
    ) -> "Table":
        """Build a table from dictionaries (missing attributes become None)."""
        schema = tuple(schema)
        return cls(name, schema, ([row.get(a) for a in schema] for row in rows))

    def empty_copy(self, name: str | None = None) -> "Table":
        """A new empty table with the same schema."""
        return Table(name or self.name, self.schema)

    def clone(self, name: str | None = None) -> "Table":
        """A shallow copy (rows are immutable tuples, so sharing is safe)."""
        table = self.empty_copy(name)
        table.rows = list(self._rows)
        return table

    # -- rows and versions ------------------------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        return self._rows

    @rows.setter
    def rows(self, rows: List[Row]) -> None:
        self._rows = rows
        self._changed()

    @property
    def version(self) -> TableVersion:
        """The version of the current rows (engine-internal; queries read a catalog snapshot)."""
        version = self._version
        if version is None:
            version = self._version = TableVersion(self.name, self.schema, self._rows)
        return version

    def _install(self, version: TableVersion) -> None:
        """Catalog DML: make a successor built from :attr:`version` the current one."""
        self._rows = version._rows
        self._version = version

    def _changed(self) -> None:
        self._version = None
        written = self._written and self._written()
        if written:
            written()

    # -- mutation ---------------------------------------------------------------------------

    def checked(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        """``rows`` as tuples of this table's arity: the whole batch, or :class:`TableError`."""
        checked = [tuple(row) for row in rows]
        arity = len(self.schema)
        for row in checked:
            if len(row) != arity:
                raise TableError(
                    f"row arity {len(row)} does not match schema arity {arity} "
                    f"of table {self.name!r}"
                )
        return checked

    def append(self, row: Sequence[Any]) -> None:
        self.extend((row,))

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        self._rows.extend(self.checked(rows))
        self._changed()

    # -- lookup ------------------------------------------------------------------------------

    def column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError as exc:
            raise TableError(
                f"unknown attribute {attribute!r} in table {self.name!r} "
                f"with schema {self.schema}"
            ) from exc

    def column_getter(self, attribute: str) -> Callable[[Row], Any]:
        """A fast positional accessor for one attribute."""
        index = self.column_index(attribute)
        return lambda row: row[index]

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def column(self, attribute: str) -> List[Any]:
        index = self.column_index(attribute)
        return [row[index] for row in self.rows]

    # -- views ---------------------------------------------------------------------------------

    def row_dict(self, row: Row) -> Dict[str, Any]:
        return dict(zip(self.schema, row))

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        schema = self.schema
        for row in self.rows:
            yield dict(zip(schema, row))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return list(self.iter_dicts())

    def sorted_rows(self, by: Sequence[str] | None = None) -> List[Row]:
        """Rows sorted by the given attributes (or the full row) -- for tests."""
        if by is None:
            return sorted(self.rows, key=repr)
        indexes = [self.column_index(a) for a in by]
        return sorted(self.rows, key=lambda row: tuple(repr(row[i]) for i in indexes))

    # -- dunder plumbing --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.schema)}, {len(self.rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering used by the examples."""
        header = " | ".join(self.schema)
        ruler = "-+-".join("-" * len(a) for a in self.schema)
        lines = [header, ruler]
        for row in self.rows[:limit]:
            lines.append(" | ".join(str(v) for v in row))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
