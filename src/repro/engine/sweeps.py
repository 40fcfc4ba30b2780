"""The scalar operator algorithms, each defined once.

Every function here is *the* pure-Python definition of one operator
algorithm, and both executors call it:

* the row reference -- :mod:`repro.engine.executor` and the ``execute``
  methods of :mod:`repro.rewriter.operators` -- over a table's rows or
  columns, every multiplicity 1, expanding the multiplicities that come back;
* the engine -- :mod:`repro.engine.batch` and the ``execute_batch`` methods
  -- over a batch's value lists or row tuples and its counts, whenever the
  whole-column kernel of :mod:`repro.engine.kernels` declines (inputs below
  the cutover, NULL or non-int end points, a float aggregate argument, a
  packed code that would not fit, no numpy) or the operator has none.

The algorithms:

* joins (:func:`join`): the interval join is partitioned by its equality
  conjuncts (:func:`partition_by_keys`) and each partition runs the
  forward-scan plane sweep :func:`interval_sweep`; other joins are a
  :func:`hash_join` on the equality conjuncts or a :func:`nested_loop_join`;
* split (:func:`split`): every group's end points are collected from both
  inputs (:func:`collect_group_endpoints`) and each row's interval is cut at
  them (:func:`split_segments`);
* coalescing, temporal bag difference and distinct (:func:`monus`): one
  +count/-count event sweep per value group over a step function's
  changepoints, emitting the level ``l``, ``max(l - r, 0)`` or ``min(l, 1)``;
* temporal aggregation (:func:`temporal_aggregate`): pre-aggregation of
  identical (group, arguments, period) rows, then one sweep per group over
  its end points with running aggregate state, emitting the coalesced
  encoding: touching segments of equal values are one row;
* bag difference (:func:`except_all`) and non-temporal grouping
  (:func:`aggregate`), weighted by the input multiplicities.

Sharing one definition means the row reference no longer checks these
algorithms independently of the engine's scalar route; what does is the
abstract-model conformance oracle, the SQLite differential and, above the
cutover, the kernel of each (EXPERIMENTS.md, "The engine and its
reference").  Callers reach these functions through the module
(``sweeps.join(...)``), never through names imported from it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..abstract_model.krelation import aggregate_values
from .table import tuple_getter

__all__ = [
    "expand",
    "join",
    "interval_sweep",
    "partition_by_keys",
    "hash_join",
    "nested_loop_join",
    "split",
    "collect_group_endpoints",
    "split_segments",
    "monus",
    "temporal_aggregate",
    "except_all",
    "aggregate",
]

Row = Tuple[Any, ...]
#: One co-partition of the join: (left rows, right rows).
Partition = Tuple[Sequence[Row], Sequence[Row]]
#: Limit check inside a loop: ``checkpoint(rows_produced_so_far)``.
Checkpoint = Optional[Callable[[int], None]]
#: An aggregate: its function and argument values, ``None`` for ``count(*)``.
AggregateInput = Tuple[str, Optional[Sequence[Any]]]


def expand(rows: Sequence[Row], counts: Sequence[int]) -> List[Row]:
    """``rows[i]`` repeated ``counts[i]`` times, at C speed."""
    return list(chain.from_iterable(map(repeat, rows, counts)))


def _row_keys(key_columns: Sequence[Sequence[Any]], n: int) -> Iterable[Any]:
    """One group key per row, read once: a lone column's values as they are, zipped tuples else."""
    if len(key_columns) == 1:
        return key_columns[0]
    if key_columns:
        return zip(*key_columns)
    return repeat((), n)


# -- joins ------------------------------------------------------------------------------


def join(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keys: Sequence[Tuple[int, int]],
    interval: Optional[Tuple[int, int, int, int]],
    keep: Optional[Callable[[Row], bool]],
    checkpoint: Checkpoint = None,
) -> Tuple[List[Row], int]:
    """Join two lists of row tuples by the algorithm the predicate allows.

    ``keys`` are the (left, right) column index pairs of the equality
    conjuncts and ``interval`` the (left begin, left end, right begin, right
    end) column indexes of an overlap pattern, if there is one.  With an
    overlap pattern every equality-key partition runs the interval sweep (a
    join without keys is one partition); otherwise the keys drive a hash
    join, and without keys it is a nested loop.  ``keep`` is the condition
    left to test on a candidate pair.  Returns the output rows and how many
    partitions the interval sweep ran (0 for the other two).
    """
    out: List[Row] = []
    if interval is not None:
        partitions = (
            partition_by_keys(left_rows, right_rows, keys) if keys else [(left_rows, right_rows)]
        )
        for left_part, right_part in partitions:
            interval_sweep(left_part, right_part, *interval, keep, out, checkpoint)
        return out, len(partitions)
    if keys:
        hash_join(left_rows, right_rows, keys, keep, out, checkpoint)
    else:
        nested_loop_join(left_rows, right_rows, keep, out, checkpoint)
    return out, 0


def interval_sweep(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    lb: int,
    le: int,
    rb: int,
    re: int,
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Checkpoint = None,
) -> None:
    """Forward-scan plane sweep over begin-sorted inputs.

    Both inputs are sorted by interval begin; the side whose current head
    starts earlier scans the other side forward while begins fall before
    its end, emitting overlapping pairs.  Each qualifying pair is found
    exactly once (by whichever row starts first, ties to the left input), in
    ``O(n log n + output)`` instead of the nested loop's ``O(n^2)``.  NULL
    comparisons are false, so rows with a NULL end point are dropped up
    front, while degenerate intervals still join wherever the two strict
    comparisons hold.  The candidate range of the inner scan is located with
    ``bisect_left`` over the hoisted begin column and the matches are
    emitted through one list comprehension per head row.
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
    right_parts = _buckets(right_rows, tuple_getter([ri for _li, ri in keys]))
    left_parts = _buckets(left_rows, tuple_getter([li for li, _ri in keys]))
    partitions: List[Partition] = []
    for key, left_part in left_parts.items():
        right_part = right_parts.get(key)
        if right_part:
            partitions.append((left_part, right_part))
    return partitions


def _buckets(
    rows: Sequence[Row], key_of: Callable[[Row], Tuple[Any, ...]]
) -> Dict[Tuple[Any, ...], List[Row]]:
    """Rows by key tuple, first-seen order; a key holding NULL matches nothing and is left out."""
    buckets: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in rows:
        key = key_of(row)
        if None in key:
            continue
        buckets.setdefault(key, []).append(row)
    return buckets


def hash_join(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keys: Sequence[Tuple[int, int]],
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Checkpoint = None,
) -> None:
    """Equi-join: build on the right input's key tuples, probe with the left's.

    SQL comparison semantics: a NULL key compares equal to nothing, itself
    included, so rows with a NULL in any key column are excluded from both
    the build and the probe side (Python's ``None == None`` would otherwise
    pair them up).  ``keep`` is tested on the concatenated candidate tuples.
    """
    left_key = tuple_getter([li for li, _ri in keys])
    buckets = _buckets(right_rows, tuple_getter([ri for _li, ri in keys]))
    empty: Tuple[Row, ...] = ()
    for left_row in left_rows:
        if checkpoint is not None:
            checkpoint(len(out))
        key = left_key(left_row)
        if None in key:
            continue
        matches = buckets.get(key, empty)
        if not matches:
            continue
        if keep is None:
            out.extend([left_row + right_row for right_row in matches])
        else:
            out.extend(
                [
                    combined
                    for right_row in matches
                    if keep(combined := left_row + right_row)
                ]
            )


def nested_loop_join(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Checkpoint = None,
) -> None:
    """Every pair, filtered by ``keep`` (the whole predicate; ``None`` = cross product)."""
    for left_row in left_rows:
        if checkpoint is not None:
            checkpoint(len(out))
        if keep is None:
            out.extend([left_row + right_row for right_row in right_rows])
        else:
            out.extend(
                [
                    combined
                    for right_row in right_rows
                    if keep(combined := left_row + right_row)
                ]
            )


# -- split ------------------------------------------------------------------------------
#
# These mirror the window SQL exactly: end points are collected per group
# from *all* rows of both inputs (NULL and degenerate intervals included --
# their points still cut other rows), and a cut point only applies where
# ``begin < p < end`` holds under three-valued comparison (NULL cuts never do).


def split(
    left_key_columns: Sequence[Sequence[Any]],
    left_begins: Sequence[Any],
    left_ends: Sequence[Any],
    right_key_columns: Sequence[Sequence[Any]],
    right_begins: Sequence[Any],
    right_ends: Sequence[Any],
) -> Tuple[List[int], List[Any], List[Any]]:
    """The split operator over columns: each left interval cut at its group's end points.

    ``*_key_columns`` are the grouping attributes' value lists.  Returns
    ``(row_indexes, piece_begins, piece_ends)`` as :func:`split_segments`
    does.
    """
    left_keys = list(_row_keys(left_key_columns, len(left_begins)))
    endpoints = collect_group_endpoints(left_keys, left_begins, left_ends)
    collect_group_endpoints(
        _row_keys(right_key_columns, len(right_begins)), right_begins, right_ends, into=endpoints
    )
    return split_segments(left_keys, left_begins, left_ends, endpoints)


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
    """Cut each row's interval at its group's end points.

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


# -- step functions: coalescing, temporal bag difference and distinct -------------------


def monus(
    key_columns: Sequence[Sequence[Any]],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Sequence[int],
    subtrahend: Optional[
        Tuple[Sequence[Sequence[Any]], Sequence[Any], Sequence[Any], Sequence[int]]
    ] = None,
    *,
    distinct: bool = False,
) -> Tuple[List[int], List[Any], List[Any], List[int]]:
    """Coalescing, temporal bag difference or distinct, as one sweep over step functions.

    Per value group (the grouping attributes' values, equal the way a
    ``dict`` finds them equal), the input is a step function ``l(t)`` from
    time to the multiplicity of the rows open at ``t``, and ``subtrahend``
    -- a second input's columns in the same layout -- is ``r(t)``.  The
    level at ``t`` is the monus ``max(l - r, 0)``: with nothing to subtract
    it is ``l`` itself, which is multiset coalescing (Definition 5.3's
    K-coalesced normal form), with a ``subtrahend`` it is temporal bag
    difference, and ``distinct`` clamps it to ``min(l, 1)``.  Rows with a
    NULL or degenerate interval hold at no point and are dropped (SQL's
    ``WHERE begin < end``).  Every row becomes a begin and an end event
    carrying its change to ``l - r`` -- all the monus needs of the two
    counts -- one sort orders the events by group and time, and one pass
    keeps the running ``l - r`` (the SQL formulation's ``sum(delta) OVER
    (PARTITION BY data ORDER BY ts)``, its changepoint filter and its
    ``lead(ts)`` fused), emitting a segment wherever the level changes: the
    result is the unique coalesced encoding, one entry per maximal interval
    with its level as the count.

    A group prints under its first valid row: group ids are those rows'
    positions, so groups come out in that order and each group's intervals
    in time order.  A subtrahend row whose group no valid row of the first
    input holds has nothing to take from and is skipped.  Returns ``(rows,
    begins, ends, counts)``: per entry, the row of the first input whose
    values it prints, its interval and its count.
    """
    ids: Dict[Any, int] = {}
    set_id = ids.setdefault
    events: List[Tuple[Any, Any, int]] = []
    append = events.append
    for position, key, begin, end, count in zip(
        range(len(begins)), _row_keys(key_columns, len(begins)), begins, ends, counts
    ):
        if begin is None or end is None or begin >= end:
            continue
        gid = set_id(key, position)
        append((gid, begin, count))
        append((gid, end, -count))
    if subtrahend is not None:
        get_id = ids.get
        right_keys, right_begins, right_ends, right_counts = subtrahend
        for key, begin, end, count in zip(
            _row_keys(right_keys, len(right_begins)), right_begins, right_ends, right_counts
        ):
            if begin is None or end is None or begin >= end:
                continue
            gid = get_id(key)
            if gid is None:
                continue
            append((gid, begin, -count))
            append((gid, end, count))
    events.sort()

    segments: List[Tuple[Any, Any, Any, int]] = []
    emit = segments.append
    # ``open_count`` is the running l - r.  Settle each (group, time point)
    # once its events are summed: a point whose net change is non-zero may
    # change the level, which then closes the open segment (if any) and
    # opens the next one (if positive).  A group's changes sum to zero, so
    # no segment stays open across groups; a sentinel event settles the last
    # point.
    open_count = held = run = 0
    since: Any = None
    gid: Any = None
    ts: Any = None
    events.append((None, None, 0))
    for next_gid, next_ts, delta in events:
        if next_ts == ts and next_gid == gid:
            run += delta
            continue
        if run:
            open_count += run
            level = (1 if distinct else open_count) if open_count > 0 else 0
            if level != held:
                if held:
                    emit((gid, since, ts, held))
                since, held = ts, level
        gid, ts, run = next_gid, next_ts, delta
    if not segments:
        return [], [], [], []
    out_rows, out_begins, out_ends, out_counts = map(list, zip(*segments))
    return out_rows, out_begins, out_ends, out_counts


# -- temporal aggregation ---------------------------------------------------------------


def temporal_aggregate(
    key_columns: Sequence[Sequence[Any]],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Sequence[int],
    aggregates: Sequence[AggregateInput],
    checkpoint: Checkpoint = None,
) -> Tuple[List[Row], int]:
    """Fused split + aggregation (the optimisation of Section 9).

    Pre-aggregation first: identical (group, argument values, period) rows
    are bucketed and only their summed multiplicity kept, so the sweep runs
    on a much smaller input; rows with a NULL or degenerate interval are
    dropped (SQL's ``WHERE begin < end``).  Then each group's end points are
    swept once (:func:`_sweep_group`), emitting one row ``group key +
    aggregate values + (begin, end)`` per maximal interval of equal values
    with open rows: the coalesced encoding (Definition 5.3), each group's
    rows consecutive and in time order.  Returns those rows -- groups in
    first-valid-row order -- and the number of pre-aggregated buckets.
    """
    n = len(counts)
    arguments = [[None] * n if values is None else values for _func, values in aggregates]
    buckets: Dict[Row, int] = {}
    get = buckets.get
    for key, count in zip(zip(*key_columns, *arguments, begins, ends), counts):
        begin, end = key[-2], key[-1]
        if begin is None or end is None or begin >= end:
            continue
        buckets[key] = get(key, 0) + count

    n_group = len(key_columns)
    n_args = len(aggregates)
    groups: Dict[Row, List[Tuple[Any, Any, Row, int]]] = {}
    for key, multiplicity in buckets.items():
        groups.setdefault(key[:n_group], []).append(
            (key[-2], key[-1], key[n_group : n_group + n_args], multiplicity)
        )

    functions = [(func, values is None) for func, values in aggregates]
    rows: List[Row] = []
    for group_key, facts in groups.items():
        if checkpoint is not None:
            checkpoint(len(rows))
        _sweep_group(group_key, facts, functions, rows.append)
    return rows, len(buckets)


def _sweep_group(
    group_key: Row,
    facts: List[Tuple[Any, Any, Row, int]],
    functions: Sequence[Tuple[str, bool]],
    append: Callable[[Row], None],
) -> None:
    """One group's maximal intervals, from its (begin, end, arguments, multiplicity) ``facts``.

    A segment is held back while the next one touches it with equal values
    (equal the way a tuple finds them equal) and then extends it; it prints
    the values of its first segment.  Equal values split by a gap stay apart.
    """
    events: Dict[Any, List[Tuple[int, Row, int]]] = {}
    for begin, end, args, multiplicity in facts:
        events.setdefault(begin, []).append((+1, args, multiplicity))
        events.setdefault(end, []).append((-1, args, multiplicity))

    state = _AggregateState(functions)
    previous: Any = None
    held: Any = None  # (values, begin, end) of the segment not yet emitted
    for ts in sorted(events):
        if previous is not None and previous < ts and state.open_rows > 0:
            values = state.values()
            if held is not None and held[2] == previous and held[0] == values:
                held = (held[0], held[1], ts)
            else:
                if held is not None:
                    append(group_key + held[0] + held[1:])
                held = (values, previous, ts)
        for sign, args, multiplicity in events[ts]:
            state.apply(sign, args, multiplicity)
        previous = ts
    if held is not None:
        append(group_key + held[0] + held[1:])


class _AggregateState:
    """Incremental aggregate state for one group during the sweep.

    ``count``/``sum``/``avg`` are maintained incrementally and ``min``/``max``
    keep a multiset of open values.  ``functions`` pairs each aggregate
    function with whether it is ``count(*)``, which counts every open row --
    padding rows included (REWR rewrites ``count(*)`` to ``count(A)`` over a
    constant attribute, so gap padding is not counted).
    """

    def __init__(self, functions: Sequence[Tuple[str, bool]]) -> None:
        self.functions = functions
        self.open_rows = 0
        self.counts = [0] * len(functions)
        self.sums = [0] * len(functions)
        self.value_multisets: List[Counter] = [Counter() for _ in functions]

    def apply(self, sign: int, args: Row, multiplicity: int) -> None:
        weight = sign * multiplicity
        self.open_rows += weight
        for position, (func, star) in enumerate(self.functions):
            value = args[position]
            if star:
                self.counts[position] += weight
                continue
            if value is None:
                continue
            self.counts[position] += weight
            if func in ("sum", "avg"):
                self.sums[position] += weight * value
            elif func in ("min", "max"):
                values = self.value_multisets[position]
                values[value] += weight
                if values[value] == 0:
                    del values[value]

    def values(self) -> Row:
        output: List[Any] = []
        for position, (func, _star) in enumerate(self.functions):
            count = self.counts[position]
            if func == "count":
                output.append(count)
            elif func == "sum":
                output.append(self.sums[position] if count else None)
            elif func == "avg":
                output.append(self.sums[position] / count if count else None)
            else:
                values = self.value_multisets[position]
                output.append((max if func == "max" else min)(values) if values else None)
        return tuple(output)


# -- bag difference and grouping --------------------------------------------------------


def except_all(
    left_rows: Sequence[Row],
    left_counts: Sequence[int],
    right_rows: Sequence[Row],
    right_counts: Sequence[int],
) -> Tuple[List[Row], List[int]]:
    """Bag difference (``EXCEPT ALL``): per distinct row, left count minus right count.

    Returns one entry per distinct left row whose net multiplicity is
    positive, in first-seen order, printed as the left input first holds it,
    and those net multiplicities.
    """
    remaining: Dict[Row, int] = {}
    get = remaining.get
    for row, count in zip(left_rows, left_counts):
        remaining[row] = get(row, 0) + count
    for row, count in zip(right_rows, right_counts):
        remaining[row] = get(row, 0) - count
    rows: List[Row] = []
    counts: List[int] = []
    for row, count in remaining.items():
        if count > 0:
            rows.append(row)
            counts.append(count)
    return rows, counts


def aggregate(
    key_columns: Sequence[Sequence[Any]],
    counts: Sequence[int],
    aggregates: Sequence[AggregateInput],
) -> List[Row]:
    """Non-temporal grouping: one row ``key + aggregate values`` per group, first-seen order.

    Each row contributes its multiplicity, so a row with count ``k``
    aggregates exactly like ``k`` copies of it would.  ``None`` argument
    values are ignored like SQL NULLs; ``count`` of nothing is 0, every
    other aggregate of nothing ``None``
    (:func:`~repro.abstract_model.krelation.aggregate_values`).  Without
    grouping attributes an empty input still yields its one row.
    """
    keys: Sequence[Row] = list(zip(*key_columns)) if key_columns else [()] * len(counts)
    groups: Dict[Row, List[int]] = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    if not key_columns and not groups:
        groups[()] = []

    rows: List[Row] = []
    for key, positions in groups.items():
        values: List[Any] = []
        for func, column in aggregates:
            if func == "count":
                if column is None:
                    values.append(sum(counts[p] for p in positions))
                else:
                    values.append(
                        sum(counts[p] for p in positions if column[p] is not None)
                    )
            else:
                assert column is not None
                values.append(
                    aggregate_values(
                        func,
                        [(column[p], counts[p]) for p in positions if column[p] is not None],
                    )
                )
        rows.append(key + tuple(values))
    return rows
