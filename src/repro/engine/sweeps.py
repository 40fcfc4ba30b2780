"""The scalar sweeps: twins of the whole-column kernels.

Each function here defines the result of one kernel in
:mod:`repro.engine.kernels` and serves what that kernel declines -- inputs
below the cutover, NULL or non-int end points, a packed code that would not
fit, a numpy-less install:

* the interval join is partitioned by its equality conjuncts
  (:func:`partition_by_keys`: one partition per distinct key, as the row
  reference does) and each partition runs :func:`interval_sweep`;
* the split operator collects every group's end points
  (:func:`collect_group_endpoints`) and cuts each row's interval at them
  (:func:`split_segments`).

:func:`interval_sweep` differs from the row reference's sweep by hoisting
the begin columns, bounding the inner scan with :func:`bisect.bisect_left`
and emitting through a list comprehension; it is the fallback, not where the
engine's join speed comes from (that is the whole-column kernel).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .table import tuple_getter

__all__ = [
    "interval_sweep",
    "partition_by_keys",
    "collect_group_endpoints",
    "split_segments",
]

Row = Tuple[Any, ...]
#: One co-partition of the join: (left rows, right rows).
Partition = Tuple[List[Row], List[Row]]


# -- interval join ----------------------------------------------------------------------


def interval_sweep(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    lb: int,
    le: int,
    rb: int,
    re: int,
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Optional[Callable[[int], None]] = None,
) -> None:
    """Forward-scan plane sweep, batch flavour.

    Same pairing rule as the row engine's ``_interval_join`` sweep (each
    overlapping pair found exactly once, by whichever row starts first with
    ties to the left input) and the same NULL semantics (rows with a NULL
    end point are dropped up front).  The candidate range of the inner scan
    is located with ``bisect_left`` over the hoisted begin column and the
    matches are emitted through one list comprehension per head row instead
    of an interpreted inner loop.
    """
    lhs = [r for r in left_rows if r[lb] is not None and r[le] is not None]
    rhs = [r for r in right_rows if r[rb] is not None and r[re] is not None]
    lhs.sort(key=itemgetter(lb))
    rhs.sort(key=itemgetter(rb))
    lbegins = [r[lb] for r in lhs]
    rbegins = [r[rb] for r in rhs]
    n_left, n_right = len(lhs), len(rhs)
    i = j = 0
    while i < n_left and j < n_right:
        if checkpoint is not None:
            checkpoint(len(out))
        if lbegins[i] <= rbegins[j]:
            left_row = lhs[i]
            begin, end = lbegins[i], left_row[le]
            k = bisect_left(rbegins, end, j)
            if keep is None:
                out.extend(
                    [left_row + r for r in rhs[j:k] if begin < r[re]]
                )
            else:
                out.extend(
                    [
                        combined
                        for r in rhs[j:k]
                        if begin < r[re] and keep(combined := left_row + r)
                    ]
                )
            i += 1
        else:
            right_row = rhs[j]
            begin, end = rbegins[j], right_row[re]
            k = bisect_left(lbegins, end, i)
            if keep is None:
                out.extend(
                    [r + right_row for r in lhs[i:k] if begin < r[le]]
                )
            else:
                out.extend(
                    [
                        combined
                        for r in lhs[i:k]
                        if begin < r[le] and keep(combined := r + right_row)
                    ]
                )
            j += 1


def partition_by_keys(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keys: Sequence[Tuple[int, int]],
) -> List[Partition]:
    """Co-partition both inputs by their equality-key values.

    SQL NULL semantics: a NULL in any key column matches nothing, so such
    rows join no partition.  Keys present on only one side produce no
    partition (they cannot contribute output).
    """
    left_key = tuple_getter([li for li, _ri in keys])
    right_key = tuple_getter([ri for _li, ri in keys])
    right_parts: dict[Tuple[Any, ...], List[Row]] = {}
    for row in right_rows:
        key = right_key(row)
        if None in key:
            continue
        right_parts.setdefault(key, []).append(row)
    partitions: List[Partition] = []
    left_parts: dict[Tuple[Any, ...], List[Row]] = {}
    for row in left_rows:
        key = left_key(row)
        if None in key:
            continue
        left_parts.setdefault(key, []).append(row)
    for key, left_part in left_parts.items():
        right_part = right_parts.get(key)
        if right_part:
            partitions.append((left_part, right_part))
    return partitions


# -- split ------------------------------------------------------------------------------
#
# The split operator's batch path works on parallel columns instead of row
# tuples; these two helpers are its scalar sweep-line core -- what runs below
# the kernel cutover and for whatever :func:`repro.engine.kernels
# .split_segments_vectorized` declines, and the definition that kernel is
# tested against.  They mirror the window SQL exactly: endpoints are
# collected per group from *all* rows (NULL and degenerate intervals
# included -- their points still cut other rows in the row engine too), and
# a cut point only applies where ``begin < p < end`` holds under
# three-valued comparison (NULL cuts never do).


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
