"""Whole-column kernels under the three temporal operators (numpy, optional).

REWR's joins, splits and temporal aggregates all ask one question: *which
entries of group g fall in the time range [a, b)?*  This module answers it
for every row at once.  The group/equality-key columns are factorised to
dense int codes (:func:`factorize`), ``(code, time)`` is packed into one
sortable int64 -- ``code * span + time - lo``, see :func:`pack_span` -- and a
range of one group's entries is then two ``searchsorted`` calls over the
sorted packed array, expanded to flat index pairs by :func:`expand_ranges`.
On top of that primitive sit

* :func:`interval_join_vectorized` -- the interval-overlap join with any
  number of equality keys (zero included),
* :func:`split_segments_vectorized` -- the split operator's cut points,
* :func:`temporal_aggregate_vectorized` -- ``count``/``sum``/``avg`` over the
  segments between a group's end points, as one ``cumsum`` over its events,

and :func:`repro.temporal.coalesce.coalesce_column_sets` shares the
factorise/pack half.  Multiplicities travel as a counts column; no kernel
duplicates a tuple.

Every kernel has a scalar twin that defines its result and serves what it
declines by returning ``None``: ``partition_by_keys`` + ``interval_sweep``
and ``collect_group_endpoints`` + ``split_segments`` in
:mod:`repro.engine.sweeps`, ``TemporalAggregateOperator._sweep_group`` and,
for coalescing, the pure-Python paths of ``coalesce_columns``.  Declined are
NULL or non-``int`` end points (``bool``
and ``float`` included: the kernels would print them as ints), a packed code
that would not fit (``codes * span >= 2**62``) and, for aggregation, any
function but ``count``/``sum``/``avg``, a non-``int`` argument or a sum that
could leave int64.  Every caller -- join, split, aggregation, coalescing --
asks :func:`worthwhile` first and nothing else; that one rule also covers
a numpy-less install: below :data:`KERNEL_CUTOVER` input rows the array
set-up costs more than the scalar sweep (measured in EXPERIMENTS.md, "The
engine and its reference").

This is the one module that imports numpy; it imports nothing else from the
package, so :mod:`repro.temporal` may import it too.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, List, Optional, Sequence, Tuple

try:  # optional: every kernel declines without it and the scalar twin runs
    import numpy as np
except ImportError:  # the CI leg without numpy runs this branch
    np = None  # type: ignore[assignment]

__all__ = [
    "KERNEL_CUTOVER",
    "worthwhile",
    "int_array",
    "factorize",
    "pack_span",
    "first_rows",
    "run_starts",
    "gather",
    "expand_ranges",
    "interval_join_vectorized",
    "split_segments_vectorized",
    "temporal_aggregate_vectorized",
]

Row = Tuple[Any, ...]
#: Limit check between kernel stages: ``checkpoint(rows_about_to_exist)``.
Checkpoint = Optional[Callable[[int], None]]

#: Packed ``code * span + offset`` values stay below this, so one more
#: doubling (the coalesce kernel's delta bit) still fits a signed 64-bit lane.
PACK_LIMIT = 1 << 62

#: Combined input rows from which an operator tries its kernel.  Fixed, not
#: settable: join, split and coalescing cross over at 110-190 rows on both
#: input shapes the benchmark has, aggregation near 40
#: (``benchmarks/kernel_cutover.py``, table in EXPERIMENTS.md); 256 is past
#: all of them and keeps 32-row plans entirely scalar.
KERNEL_CUTOVER = 256

#: Candidate pairs the join kernel expands and materialises between two limit
#: checks.  Small enough that a block's freshly built tuples (~0.5 MB) are
#: still cached when they are appended to the result -- on a 2M-row join
#: result 65536-pair blocks cost 15 % more than these (EXPERIMENTS.md) --
#: and it bounds the index arrays alive at once however large the result is.
PAIR_BLOCK = 1 << 12

_NONE = type(None)


def worthwhile(rows: int) -> bool:
    """Whether an operator over ``rows`` input rows should try its kernel."""
    return np is not None and rows >= KERNEL_CUTOVER


# -- the primitive: factorise, pack, expand ---------------------------------------------


def int_array(column: Sequence[Any]) -> Any:
    """The column as an int64 array, or ``None`` unless every entry is an ``int``.

    The ``type`` scan is exact on purpose: ``None`` has no array form, and
    ``bool``/``float`` entries would come back *out* of a kernel as ints.
    """
    if not set(map(type, column)) <= {int}:
        return None
    try:
        return np.asarray(column, dtype=np.int64)
    except OverflowError:
        return None


def factorize(
    column_sets: Sequence[Sequence[Sequence[Any]]],
    lengths: Sequence[int],
    nulls_match: bool,
) -> Tuple[List[Any], int]:
    """Group codes for the key columns of one or more inputs, in one code space.

    ``column_sets[i]`` holds input i's key columns (the same number for
    every input, possibly zero) and ``lengths[i]`` its row count.  Returns
    one int64 code array per input plus the exclusive upper bound of the
    codes; rows get equal codes exactly when their keys are equal the way a
    ``dict`` finds them equal (what the scalar paths partition with).
    ``nulls_match=False`` is the join reading of SQL NULL: a row with a NULL
    key gets a code no row of another input has.

    All-``int`` key columns are range-packed arithmetically and made dense
    with ``np.unique`` only when the packed range is sparser than the rows;
    anything else takes one dict pass in first-seen order.
    """
    arity = len(column_sets[0])
    if not arity:
        return [np.zeros(n, dtype=np.int64) for n in lengths], 1
    packed = _range_pack(column_sets, arity)
    if packed is not None:
        codes, n_codes = packed
        return np.split(codes, np.cumsum(lengths)[:-1]), n_codes
    ids: dict = {}
    setdefault = ids.setdefault
    per_input: List[List[int]] = []
    for columns in column_sets:
        keys = columns[0] if arity == 1 else zip(*columns)
        if nulls_match:
            per_input.append([setdefault(key, len(ids)) for key in keys])
        elif arity == 1:
            per_input.append(
                [-1 if key is None else setdefault(key, len(ids)) for key in keys]
            )
        else:
            per_input.append(
                [-1 if None in key else setdefault(key, len(ids)) for key in keys]
            )
    result = []
    for position, codes in enumerate(per_input):
        array = np.asarray(codes, dtype=np.int64)
        array[array < 0] = len(ids) + position
        result.append(array)
    return result, len(ids) + (0 if nulls_match else len(per_input))


def _range_pack(
    column_sets: Sequence[Sequence[Sequence[Any]]], arity: int
) -> Optional[Tuple[Any, int]]:
    """Mixed-radix code of all-int key columns over the concatenated inputs."""
    codes = None
    capacity = 1
    for position in range(arity):
        arrays = [int_array(columns[position]) for columns in column_sets]
        if any(array is None for array in arrays):
            return None
        digits = np.concatenate(arrays)
        low = int(digits.min())
        width = int(digits.max()) - low + 1
        capacity *= width
        if capacity >= PACK_LIMIT:
            return None
        digits -= low
        codes = digits if codes is None else codes * width + digits
    if capacity > len(codes):
        uniques, codes = np.unique(codes, return_inverse=True)
        capacity = len(uniques)
    return codes, capacity


def pack_span(n_codes: int, times: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """``(lo, span)`` such that ``code * span + t - lo`` orders by ``(code, t)``.

    ``times`` are the int64 arrays holding every time value that will be
    packed; ``None`` when the largest packed value would reach
    :data:`PACK_LIMIT` (the caller declines rather than wrap around).
    """
    filled = [array for array in times if len(array)]
    lo = min(int(array.min()) for array in filled)
    span = max(int(array.max()) for array in filled) - lo + 1
    if n_codes * span >= PACK_LIMIT:
        return None
    return lo, span


def first_rows(codes: Any, n_codes: int) -> Any:
    """Per code, the index of the first row carrying it (0 for absent codes).

    The scalar paths print a group under its first-seen key; gathering the
    key columns at these rows does the same without decoding any code.
    """
    first = np.zeros(n_codes, dtype=np.int64)
    # Repeated indices keep the last value assigned: walk the rows backwards.
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def run_starts(sorted_codes: Any) -> Any:
    """Start index of every run of equal values in a sorted, non-empty array."""
    boundary = np.empty(len(sorted_codes), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def gather(column: Sequence[Any], indexes: Sequence[int]) -> List[Any]:
    """``[column[i] for i in indexes]`` over Python lists, at C speed."""
    return list(map(column.__getitem__, indexes))


def expand_ranges(lo: Any, hi: Any) -> Tuple[Any, Any]:
    """All (head, tail) index pairs with ``tail`` in ``[lo[head], hi[head])``.

    The ranges come from two ``searchsorted`` calls, so each is contiguous;
    repeat/cumsum/arange expand them into flat pair arrays at C speed.
    """
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    heads = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    tails = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, counts)
    return heads, tails


# -- (1) keyed interval join ------------------------------------------------------------


def interval_join_vectorized(
    left_keys: Sequence[Sequence[Any]],
    right_keys: Sequence[Sequence[Any]],
    left_period: Tuple[Sequence[Any], Sequence[Any]],
    right_period: Tuple[Sequence[Any], Sequence[Any]],
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_counts: Optional[Sequence[int]],
    right_counts: Optional[Sequence[int]],
    keep: Optional[Callable[[Row], bool]],
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[List[Row], Optional[List[int]]]]:
    """Interval-overlap join on equal keys: every inner scan is a searchsorted.

    Same pairing rule as :func:`repro.engine.sweeps.interval_sweep` split
    into two disjoint cases -- pairs whose left row starts first (ties
    included) and pairs whose right row starts strictly first -- each solved
    for *all* head rows of *all* key groups at once: sort one side by packed
    ``(key code, begin)``, locate every head's candidates with two
    ``searchsorted`` calls (the lower bounds run over needles already in
    sorted order, which binary-searches markedly faster) and expand the
    ranges to flat index pairs.  The other strict comparison holds
    automatically for well-formed intervals; a per-pair mask enforces it
    only when degenerate (``end <= begin``) intervals are present.  Only the
    final tuple concatenation runs per output row, in blocks of
    :data:`PAIR_BLOCK` candidate pairs with a limit check -- deadline, and
    the row budget against the pair count -- before each block is built.

    Inputs are batch entries: ``*_keys`` the equality-key columns (zero
    allowed), ``*_period`` the (begin, end) columns, ``*_rows`` the entry
    tuples and ``*_counts`` their multiplicities (``None`` = all ones).
    Returns ``(rows, counts)`` with ``counts`` ``None`` when all ones, or
    ``None`` (declined) as the module docstring lists.
    """
    if not left_rows or not right_rows:
        return [], None
    lb, le = int_array(left_period[0]), int_array(left_period[1])
    rb, re = int_array(right_period[0]), int_array(right_period[1])
    if lb is None or le is None or rb is None or re is None:
        return None
    (left_codes, right_codes), n_codes = factorize(
        (left_keys, right_keys), (len(left_rows), len(right_rows)), nulls_match=False
    )
    packing = pack_span(n_codes, (lb, le, rb, re))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    left_base = left_codes * span - lo
    right_base = right_codes * span - lo
    left_begins = left_base + lb
    right_begins = right_base + rb
    left_order = np.argsort(left_begins)
    right_order = np.argsort(right_begins)
    sorted_left = left_begins[left_order]
    sorted_right = right_begins[right_order]
    # With no degenerate intervals the second overlap comparison is implied
    # by the range bounds (rb >= lb and re > rb give re > lb), so the
    # per-pair masks -- two gathers and two compares -- can be skipped.
    check_degenerate = bool((le <= lb).any() or (re <= rb).any())

    # Case A -- left head starts first (lb <= rb): candidates are its key
    # group's right rows with rb in [lb, le).  Case B -- right head starts
    # strictly first (rb < lb): its key group's left rows with lb in (rb, re).
    cases = (
        (
            left_order,
            right_order,
            np.searchsorted(sorted_right, sorted_left, side="left"),
            np.searchsorted(sorted_right, (left_base + le)[left_order], side="left"),
        ),
        (
            right_order,
            left_order,
            np.searchsorted(sorted_left, sorted_right, side="right"),
            np.searchsorted(sorted_left, (right_base + re)[right_order], side="left"),
        ),
    )
    weighted = left_counts is not None or right_counts is not None
    if weighted:
        # Python ints: a product of multiplicities may not wrap.
        left_weights = np.asarray(left_counts or [1] * len(left_rows), dtype=object)
        right_weights = np.asarray(right_counts or [1] * len(right_rows), dtype=object)
    # Object arrays of the row tuples: a fancy-indexed ``+`` concatenates a
    # whole block of pairs in C, whatever the pairs-per-head density.
    left_objects = np.fromiter(left_rows, dtype=object, count=len(left_rows))
    right_objects = np.fromiter(right_rows, dtype=object, count=len(right_rows))
    rows: List[Row] = []
    counts: List[int] = []
    produced = 0
    for heads_are_right, (head_order, tail_order, first, last) in enumerate(cases):
        for start, stop in _pair_blocks(first, last):
            heads, tails = expand_ranges(first[start:stop], last[start:stop])
            left_index = head_order[start:stop][heads]
            right_index = tail_order[tails]
            if heads_are_right:
                left_index, right_index = right_index, left_index
            if check_degenerate:
                mask = (re[right_index] > lb[left_index]) & (le[left_index] > rb[right_index])
                left_index, right_index = left_index[mask], right_index[mask]
            weights = (
                (left_weights[left_index] * right_weights[right_index]).tolist()
                if weighted
                else None
            )
            if checkpoint is not None:
                # Without a residual the pairs *are* the output: refuse an
                # over-budget join before building this block's tuples.
                pairs = len(left_index) if weights is None else sum(weights)
                checkpoint(produced + (pairs if keep is None else 0))
            block = (left_objects[left_index] + right_objects[right_index]).tolist()
            if keep is not None:
                if weights is None:
                    block = list(filter(keep, block))
                else:
                    kept = list(map(keep, block))
                    block = list(compress(block, kept))
                    weights = list(compress(weights, kept))
            rows += block
            if weights is None:
                produced += len(block)
            else:
                counts += weights
                produced += sum(weights)
    return rows, counts if weighted else None


def _pair_blocks(first: Any, last: Any) -> List[Tuple[int, int]]:
    """Head ranges ``[start, stop)`` expanding to about :data:`PAIR_BLOCK` pairs each."""
    sizes = np.cumsum(np.maximum(last - first, 0))
    total = int(sizes[-1])
    if total <= PAIR_BLOCK:
        return [(0, len(first))]
    cuts = np.searchsorted(sizes, np.arange(PAIR_BLOCK, total, PAIR_BLOCK)) + 1
    edges = np.unique(np.concatenate([[0], cuts, [len(first)]])).tolist()
    return list(zip(edges, edges[1:]))


# -- (2) split --------------------------------------------------------------------------


def split_segments_vectorized(
    left_keys: Sequence[Sequence[Any]],
    left_begins: Sequence[Any],
    left_ends: Sequence[Any],
    right_keys: Sequence[Sequence[Any]],
    right_begins: Sequence[Any],
    right_ends: Sequence[Any],
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[List[int], List[int], List[int]]]:
    """Cut every left interval at its group's end points, whole-column.

    Vector twin of :func:`repro.engine.sweeps.collect_group_endpoints` +
    :func:`~repro.engine.sweeps.split_segments`, with the same result
    ``(row_indexes, piece_begins, piece_ends)`` in the same order.  The
    distinct packed ``(group, end point)`` values of *both* inputs are
    sorted once; a row's own begin and end are among them, so its pieces
    are the consecutive pairs of one contiguous slice -- two exact
    ``searchsorted`` hits and one :func:`expand_ranges`.  Degenerate rows
    contribute cut points and vanish, as in the scalar path.
    """
    lb, le = int_array(left_begins), int_array(left_ends)
    rb, re = int_array(right_begins), int_array(right_ends)
    if lb is None or le is None or rb is None or re is None:
        return None
    if not len(lb):
        return [], [], []
    (left_codes, right_codes), n_codes = factorize(
        (left_keys, right_keys), (len(lb), len(rb)), nulls_match=True
    )
    packing = pack_span(n_codes, (lb, le, rb, re))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    left_base = left_codes * span - lo
    right_base = right_codes * span - lo
    left_begin_codes = left_base + lb
    left_end_codes = left_base + le
    points = np.unique(
        np.concatenate(
            [left_begin_codes, left_end_codes, right_base + rb, right_base + re]
        )
    )
    if checkpoint is not None:
        checkpoint(0)
    rows = np.flatnonzero(lb < le)
    heads, tails = expand_ranges(
        np.searchsorted(points, left_begin_codes[rows]),
        np.searchsorted(points, left_end_codes[rows]),
    )
    row_indexes = rows[heads]
    base = left_base[row_indexes]
    piece_begins = points[tails] - base
    piece_ends = points[tails + 1] - base
    return row_indexes.tolist(), piece_begins.tolist(), piece_ends.tolist()


# -- (3) temporal aggregation -----------------------------------------------------------


def temporal_aggregate_vectorized(
    key_columns: Sequence[Sequence[Any]],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Optional[Sequence[int]],
    aggregates: Sequence[Tuple[str, Optional[Sequence[Any]]]],
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[List[int], List[List[Any]], List[int], List[int]]]:
    """``count``/``sum``/``avg`` per segment between a group's end points.

    Vector twin of ``TemporalAggregateOperator._sweep_group``: every valid
    row becomes a ``+`` event at its begin and a ``-`` event at its end,
    events sort by packed ``(group code, time)``, equal points collapse
    with ``np.add.reduceat`` and one ``cumsum`` gives the state after each
    point (a group's deltas sum to zero, so nothing leaks into the next
    group).  A segment runs from a point with open rows to the next point.

    ``aggregates`` pairs each function with its evaluated argument column
    (``None`` for ``count(*)``); ``counts`` are the row multiplicities
    (``None`` = all ones).  Sums are exact int64 -- the kernel declines when
    ``max|value| * total multiplicity`` could leave the lane -- and ``avg``
    divides Python ints, so every value equals the scalar sweep's bit for
    bit.  Returns ``(group_rows, value_columns, begins, ends)`` where
    ``group_rows[k]`` indexes the first valid input row of segment k's
    group (gather the group-by columns there), or ``None`` (declined).
    """
    b, e = int_array(begins), int_array(ends)
    if b is None or e is None:
        return None
    rows = np.flatnonzero(b < e)
    empty: Tuple[List[int], List[List[Any]], List[int], List[int]] = (
        [], [[] for _ in aggregates], [], [],
    )
    if not len(rows):
        return empty
    weights = (
        np.ones(len(rows), dtype=np.int64)
        if counts is None
        else np.asarray(counts, dtype=np.int64)[rows]
    )
    total_weight = int(weights.sum())

    # One int64 measure per running quantity; measure 0 counts open rows.
    measures = [weights]
    plan: List[Tuple[str, int, int]] = []  # (func, count measure, sum measure)
    for func, column in aggregates:
        if func not in ("count", "sum", "avg"):
            return None
        count_at = sum_at = 0
        if column is not None:
            types = set(map(type, column))
            present = None
            if _NONE in types:
                present = np.asarray([v is not None for v in column])[rows]
                measures.append(weights * present)
                count_at = len(measures) - 1
            if func != "count":
                if not types <= {int, _NONE}:
                    return None
                try:
                    values = np.asarray(
                        column if present is None else [v or 0 for v in column],
                        dtype=np.int64,
                    )[rows]
                except OverflowError:
                    return None
                largest = max(abs(int(values.max())), abs(int(values.min())))
                if largest * total_weight >= PACK_LIMIT:
                    return None
                measures.append(weights * values)
                sum_at = len(measures) - 1
        plan.append((func, count_at, sum_at))

    (codes,), n_codes = factorize(
        (key_columns,), (len(b),), nulls_match=True
    )
    codes, b, e = codes[rows], b[rows], e[rows]
    packing = pack_span(n_codes, (b, e))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    base = codes * span - lo
    events = np.concatenate([base + b, base + e])
    order = np.argsort(events)
    events = events[order]
    starts = run_starts(events)
    points = events[starts]
    if checkpoint is not None:
        checkpoint(0)
    states = [
        np.cumsum(np.add.reduceat(np.concatenate([measure, -measure])[order], starts))
        for measure in measures
    ]
    # A group's last point closes everything, so an open point's successor
    # is always a point of the same group.
    open_points = np.flatnonzero(states[0][:-1] > 0)
    if checkpoint is not None:
        checkpoint(len(open_points))
    groups = points[open_points] // span
    group_rows = rows[first_rows(codes, n_codes)[groups]]
    segment_begins = points[open_points] - groups * span + lo
    segment_ends = points[open_points + 1] - groups * span + lo
    value_columns: List[List[Any]] = []
    for func, count_at, sum_at in plan:
        held = states[count_at][open_points].tolist()
        if func == "count":
            value_columns.append(held)
            continue
        sums = states[sum_at][open_points].tolist()
        if func == "sum":
            value_columns.append([s if c else None for s, c in zip(sums, held)])
        else:
            value_columns.append([s / c if c else None for s, c in zip(sums, held)])
    return (
        group_rows.tolist(),
        value_columns,
        segment_begins.tolist(),
        segment_ends.tolist(),
    )
