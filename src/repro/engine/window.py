"""Analytic (window) functions over multiset tables.

The paper implements multiset coalescing with SQL analytic window functions
(Section 9): per group of value-equivalent tuples it counts the number of
open validity intervals at every interval end point, derives annotation
changepoints from differences between consecutive counts, and emits maximal
intervals.  This module supplies the window machinery that implementation
needs -- partitioning, intra-partition ordering and a handful of standard
window functions (``row_number``, ``lag``, ``lead``, ``running_sum``,
``sum_over_partition``) -- in a reusable form, so the coalesce and split
operators in :mod:`repro.rewriter` read like their SQL counterparts.

Window functions run on *raw row tuples*: a function receives the ordered
rows of one partition plus a column resolver (attribute name -> tuple
index) and resolves each attribute it needs exactly once per partition, so
no per-row dictionaries are materialised on the coalescing hot path.

Complexity matches the SQL execution model: one sort per distinct window
declaration, i.e. ``O(n log n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from .table import Row, Table, tuple_getter

__all__ = [
    "WindowSpec",
    "WindowFunction",
    "row_number",
    "lag",
    "lead",
    "running_sum",
    "sum_over_partition",
    "apply_window",
    "partition_rows",
    "collect_group_endpoints",
    "split_segments",
]


@dataclass(frozen=True)
class WindowSpec:
    """``PARTITION BY partition_by ORDER BY order_by`` (ascending)."""

    partition_by: Tuple[str, ...] = ()
    order_by: Tuple[str, ...] = ()


#: A window function receives the ordered raw rows of one partition and a
#: column resolver (attribute name -> tuple index) and returns one output
#: value per row.
WindowFunction = Callable[[List[Row], Callable[[str], int]], List[Any]]


def row_number() -> WindowFunction:
    """``row_number() OVER (...)`` -- 1-based position within the partition."""

    def compute(rows: List[Row], column_index: Callable[[str], int]) -> List[Any]:
        return list(range(1, len(rows) + 1))

    return compute


def lag(attribute: str, default: Any = None, offset: int = 1) -> WindowFunction:
    """``lag(attribute, offset, default) OVER (...)``."""

    def compute(rows: List[Row], column_index: Callable[[str], int]) -> List[Any]:
        index = column_index(attribute)
        return [
            rows[position - offset][index] if position - offset >= 0 else default
            for position in range(len(rows))
        ]

    return compute


def lead(attribute: str, default: Any = None, offset: int = 1) -> WindowFunction:
    """``lead(attribute, offset, default) OVER (...)``."""

    def compute(rows: List[Row], column_index: Callable[[str], int]) -> List[Any]:
        index = column_index(attribute)
        size = len(rows)
        return [
            rows[position + offset][index] if position + offset < size else default
            for position in range(size)
        ]

    return compute


def running_sum(attribute: str) -> WindowFunction:
    """``sum(attribute) OVER (... ROWS UNBOUNDED PRECEDING)`` -- prefix sums."""

    def compute(rows: List[Row], column_index: Callable[[str], int]) -> List[Any]:
        index = column_index(attribute)
        total = 0
        prefix: List[Any] = []
        for row in rows:
            value = row[index]
            total += 0 if value is None else value
            prefix.append(total)
        return prefix

    return compute


def sum_over_partition(attribute: str) -> WindowFunction:
    """``sum(attribute) OVER (PARTITION BY ...)`` -- one total per partition."""

    def compute(rows: List[Row], column_index: Callable[[str], int]) -> List[Any]:
        index = column_index(attribute)
        total = sum(row[index] or 0 for row in rows)
        return [total] * len(rows)

    return compute


def partition_rows(
    table: Table, partition_by: Sequence[str]
) -> Dict[Tuple[Any, ...], List[Row]]:
    """Group the table's rows by the values of the partition attributes."""
    key_of = tuple_getter([table.column_index(a) for a in partition_by])
    partitions: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in table.rows:
        partitions.setdefault(key_of(row), []).append(row)
    return partitions


def apply_window(
    table: Table,
    spec: WindowSpec,
    functions: Mapping[str, WindowFunction],
    output_name: str | None = None,
) -> Table:
    """Evaluate window functions and append their results as new columns.

    ``functions`` maps output attribute names to window functions evaluated
    over the same :class:`WindowSpec` (sharing the sort, like a DBMS sharing
    window declarations).  The output schema is the input schema followed by
    the new attributes in mapping order.
    """
    new_attributes = tuple(functions)
    clash = set(new_attributes) & set(table.schema)
    if clash:
        raise ValueError(f"window output attributes {sorted(clash)} already exist")

    result = Table(output_name or table.name, table.schema + new_attributes)
    order_indexes = [table.column_index(a) for a in spec.order_by]
    sort_key = tuple_getter(order_indexes) if order_indexes else None
    column_index = table.column_index

    out = result.rows
    for _key, rows in partition_rows(table, spec.partition_by).items():
        ordered = sorted(rows, key=sort_key) if sort_key is not None else rows
        columns = [func(ordered, column_index) for func in functions.values()]
        if len(columns) == 1:
            extras = columns[0]
            out.extend(row + (extra,) for row, extra in zip(ordered, extras))
        else:
            out.extend(
                row + tuple(column[position] for column in columns)
                for position, row in enumerate(ordered)
            )
    return result


# -- columnar sweep helpers (batch executor) -------------------------------------------
#
# The split operator's batch path works on parallel columns instead of row
# tuples; these two helpers are its scalar sweep-line core -- what runs below
# the kernel cutover and for whatever :func:`repro.engine.kernels
# .split_segments_vectorized` declines, and the definition that kernel is
# tested against.  They mirror the window SQL exactly: endpoints are collected per group from *all* rows (NULL and
# degenerate intervals included -- their points still cut other rows in the
# row engine too), and a cut point only applies where ``begin < p < end``
# holds under three-valued comparison (NULL cuts never do).


def collect_group_endpoints(
    keys: Sequence[Any],
    begins: Sequence[Any],
    ends: Sequence[Any],
    into: Dict[Any, set] | None = None,
) -> Dict[Any, set]:
    """Accumulate every interval end point per group key.

    ``into`` lets callers merge several inputs (the split operator collects
    from both of its children) into one mapping.
    """
    endpoints: Dict[Any, set] = {} if into is None else into
    get = endpoints.get
    for key, begin, end in zip(keys, begins, ends):
        bucket = get(key)
        if bucket is None:
            bucket = endpoints[key] = set()
        bucket.add(begin)
        bucket.add(end)
    return endpoints


def split_segments(
    keys: Sequence[Any],
    begins: Sequence[Any],
    ends: Sequence[Any],
    endpoints: Mapping[Any, set],
) -> Tuple[List[int], List[Any], List[Any]]:
    """Cut each row's interval at its group's end points, columnar flavour.

    Returns ``(row_indexes, piece_begins, piece_ends)``: row ``i`` of the
    input contributes one entry per piece, so callers rebuild the data
    columns with one ``[column[i] for i in row_indexes]`` gather per
    attribute.  Rows with NULL or degenerate intervals vanish (SQL's
    ``WHERE begin < end``).
    """
    row_indexes: List[int] = []
    piece_begins: List[Any] = []
    piece_ends: List[Any] = []
    empty: frozenset = frozenset()
    for position, (key, begin, end) in enumerate(zip(keys, begins, ends)):
        if begin is None or end is None or begin >= end:
            continue
        cuts = sorted(
            p
            for p in endpoints.get(key, empty)
            if p is not None and begin < p < end
        )
        if not cuts:
            row_indexes.append(position)
            piece_begins.append(begin)
            piece_ends.append(end)
            continue
        bounds = [begin, *cuts, end]
        for piece_begin, piece_end in zip(bounds, bounds[1:]):
            row_indexes.append(position)
            piece_begins.append(piece_begin)
            piece_ends.append(piece_end)
    return row_indexes, piece_begins, piece_ends
