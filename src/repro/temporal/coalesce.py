"""Free-standing K-coalescing helpers (paper Section 5.2).

The algorithmic core is the event-sweep kernel behind
:meth:`TemporalElement.coalesce` (one sort of the interval endpoints plus a
running multiset of active annotations, instead of rescanning every
interval per elementary segment); this module
exposes the paper's vocabulary as module-level functions so that callers and
tests can speak in the paper's terms (``CK``, ``CP``, ``CPI``) and adds a
batch helper for coalescing whole annotation dictionaries.  Normal forms
are memoised per element, so batch-coalescing already-coalesced annotations
(e.g. the outputs of period-semiring arithmetic) costs nothing.

The engine's coalesce operator is served from here too, in two routes:
:func:`coalesce_vectorized` sweeps typed columns
(:class:`repro.engine.kernels.Column`) as int64 arrays and hands its output
arrays on as columns; :func:`coalesce_column_sets` / :func:`coalesce_columns`
are its scalar twins over plain value lists, which define the result and
serve whatever the kernel declines.
"""

from __future__ import annotations

from operator import ge as _int_ge
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..engine import kernels as _kernels
from ..engine.kernels import Column
from .elements import TemporalElement
from .intervals import Interval

__all__ = [
    "k_coalesce",
    "annotation_changepoints",
    "changepoint_intervals",
    "coalesce_annotations",
    "coalesce_columns",
    "coalesce_column_sets",
    "coalesce_vectorized",
]

def k_coalesce(element: TemporalElement) -> TemporalElement:
    """``CK(T)``: the unique K-coalesced normal form of a temporal element."""
    return element.coalesce()


def annotation_changepoints(element: TemporalElement) -> List[int]:
    """``CP(T)``: the annotation changepoints of a temporal element.

    Always contains ``Tmin``; contains every point ``T`` with
    ``tau_{T-1}(T) != tau_T(T)``.
    """
    return element.changepoints()


def changepoint_intervals(element: TemporalElement) -> List[Interval]:
    """``CPI(T)``: maximal intervals between consecutive changepoints.

    The coalesced form maps exactly those of these intervals that carry a
    non-zero annotation to that annotation.
    """
    points = annotation_changepoints(element)
    bounds = points + [element.domain.max_point]
    return [
        Interval(begin, end)
        for begin, end in zip(bounds, bounds[1:])
        if begin < end
    ]


def coalesce_annotations(
    annotations: Mapping[Hashable, TemporalElement],
) -> Dict[Hashable, TemporalElement]:
    """Coalesce every temporal element in a tuple -> element mapping.

    Entries whose coalesced element is empty (annotation ``0_K`` everywhere)
    are dropped, matching the K-relation convention that zero-annotated
    tuples are not in the relation.
    """
    result: Dict[Hashable, TemporalElement] = {}
    for key, element in annotations.items():
        coalesced = element.coalesce()
        if not coalesced.is_empty():
            result[key] = coalesced
    return result


def coalesce_columns(
    keys: Sequence[Hashable],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Sequence[int],
) -> Tuple[List[Hashable], List[Any], List[Any], List[int]]:
    """Columnar multiset coalescing: the batch executor's sweep kernel.

    Inputs are parallel columns -- one group key, interval begin, interval
    end and multiplicity per row.  Rows with a NULL or degenerate interval
    are dropped (SQL's ``WHERE begin < end`` prefilter).  The sweep is the
    same +1/-1 event count as :class:`repro.rewriter.CoalesceOperator`'s row
    path, but organised for columnar speed: group keys are mapped to dense
    integer ids first (never comparing keys across groups -- data values may
    contain NULL padding), every interval becomes two ``(gid, ts, delta)``
    events, and one global C-speed sort replaces the per-group dictionaries
    and per-group sorts of the row formulation.  The output shape differs
    too: one entry per maximal interval with the open-interval count as its
    *multiplicity*, instead of ``count`` duplicated tuples.

    Returns ``(keys, begins, ends, counts)`` columns of the coalesced rows.

    When every multiplicity is 1 and both endpoint columns are plain ints
    (the shape every table scan produces), the events are packed into single
    machine integers -- ``(gid * span + ts) * 2 + end_bit`` -- so the global
    sort compares ints instead of tuples; the general path below handles
    arbitrary counts and endpoint types.
    """
    fast = _coalesce_columns_int(keys, begins, ends, counts)
    if fast is not None:
        return fast
    ids: Dict[Hashable, int] = {}
    group_keys: List[Hashable] = []
    get_id = ids.get
    events: List[Tuple[int, Any, int]] = []
    append_event = events.append
    for key, begin, end, count in zip(keys, begins, ends, counts):
        if begin is None or end is None or begin >= end:
            continue
        gid = get_id(key)
        if gid is None:
            gid = ids[key] = len(group_keys)
            group_keys.append(key)
        append_event((gid, begin, count))
        append_event((gid, end, -count))
    if not events:
        return [], [], [], []
    events.sort()

    out_keys: List[Hashable] = []
    out_begins: List[Any] = []
    out_ends: List[Any] = []
    out_counts: List[int] = []
    emit_key = out_keys.append
    emit_begin = out_begins.append
    emit_end = out_ends.append
    emit_count = out_counts.append

    # One linear pass: settle each (group, time point) once its events are
    # exhausted; a point with a non-zero net delta is a changepoint, and a
    # changepoint reached with open intervals closes one maximal interval.
    current_gid = events[0][0]
    current_key = group_keys[current_gid]
    open_since: Any = None
    open_count = 0
    prev_ts: Any = None
    run_delta = 0
    for gid, ts, delta in events:
        if gid == current_gid and ts == prev_ts:
            run_delta += delta
            continue
        if prev_ts is not None and run_delta != 0:
            if open_count > 0:
                emit_key(current_key)
                emit_begin(open_since)
                emit_end(prev_ts)
                emit_count(open_count)
            open_since = prev_ts
            open_count += run_delta
        if gid != current_gid:
            # The deltas of a group sum to zero, so the previous group's
            # sweep closed (open_count is 0 again) before this reset.
            current_gid = gid
            current_key = group_keys[gid]
            open_since = None
            open_count = 0
        prev_ts = ts
        run_delta = delta
    if run_delta != 0 and open_count > 0:
        emit_key(current_key)
        emit_begin(open_since)
        emit_end(prev_ts)
        emit_count(open_count)
    return out_keys, out_begins, out_ends, out_counts


def coalesce_column_sets(
    key_columns: Sequence[Sequence[Any]],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Sequence[int],
) -> Tuple[List[List[Any]], List[Any], List[Any], List[int]]:
    """Column-in/column-out flavour of :func:`coalesce_columns`.

    Takes the grouping attributes as separate value lists instead of a
    pre-zipped key column and returns them the same way.  This is the
    scalar route of :class:`repro.rewriter.CoalesceOperator`: the operator
    tries :func:`coalesce_vectorized` first when
    :func:`repro.engine.kernels.worthwhile` says so (the rule every temporal
    operator asks) and every multiplicity is 1, and comes here with whatever
    that declines.

    Returns ``(key_columns, begins, ends, counts)`` of the coalesced rows.
    """
    n = len(begins)
    keys: Sequence[Hashable]
    if len(key_columns) == 1:
        keys = key_columns[0]
    elif key_columns:
        keys = list(zip(*key_columns))
    else:
        keys = [()] * n
    out_keys, out_begins, out_ends, out_counts = coalesce_columns(
        keys, begins, ends, counts
    )
    if len(key_columns) == 1:
        out_key_columns = [out_keys]
    elif key_columns:
        if out_keys:
            out_key_columns = [list(column) for column in zip(*out_keys)]
        else:
            out_key_columns = [[] for _ in key_columns]
    else:
        out_key_columns = []
    return out_key_columns, out_begins, out_ends, out_counts


def coalesce_vectorized(
    key_columns: Sequence[Column],
    begins: Column,
    ends: Column,
    checkpoint: Optional[Callable[[int], None]] = None,
) -> Optional[Tuple[List[Column], Column, Column, List[int]]]:
    """Multiset coalescing of an all-ones batch, fully over int64 arrays.

    Preconditions (checked on the columns' typed forms, ``None`` bails to
    the scalar paths): every endpoint is a plain ``int`` -- ``bool``/
    ``float`` are rejected exactly, because silently coercing them would
    change output *values* even where hashing treats them as equal -- and
    every packed code fits a signed 64-bit lane.

    The pipeline mirrors the scalar int fast path, one array op per step:
    group ids and the ``(gid, ts)`` packing come from
    :func:`repro.engine.kernels.factorize` / :func:`~repro.engine.kernels
    .pack_span` (the code the join, split and aggregation kernels run on);
    events pack as ``(gid * span + ts - lo) * 2 + begin_bit`` and sort as
    int64; runs collapse with ``np.add.reduceat``; depths are one ``cumsum``
    (each group's deltas sum to zero, so depths never leak across groups);
    the output intervals are three mask selections -- handed on as int
    columns -- and their key columns the inputs gathered at each group's
    first valid row.  ``checkpoint`` is polled between the stages.
    """
    np = _kernels.np
    nothing = Column(ints=np.empty(0, dtype=np.int64))
    empty: Tuple[List[Column], Column, Column, List[int]] = (
        [nothing for _ in key_columns], nothing, nothing, [],
    )
    if not len(begins):
        return empty
    begin_array, end_array = begins.ints(), ends.ints()
    if begin_array is None or end_array is None:
        return None
    (gids,), n_groups = _kernels.factorize(
        (key_columns,), (len(begin_array),), nulls_match=True
    )

    # -- events -----------------------------------------------------------------------
    valid = begin_array < end_array
    rows = None  # the surviving rows' original positions; None = all of them
    if not valid.all():
        rows = np.flatnonzero(valid)
        if not len(rows):
            return empty
        begin_array, end_array, gids = begin_array[rows], end_array[rows], gids[rows]
    # A group's code becomes the index of its first valid row: as unique as
    # the code was, it names the row the group prints under, and it sorts the
    # groups the way the scalar twin lists them (which of 1 / 1.0 a later
    # group-by prints follows that order).
    gids = _kernels.first_rows(gids, n_groups)[gids]
    packing = _kernels.pack_span(len(gids), (begin_array, end_array))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    base = gids * span - lo
    codes = np.concatenate(
        [((base + begin_array) << 1) | 1, (base + end_array) << 1]
    )
    codes.sort()
    if checkpoint is not None:
        checkpoint(0)

    # -- sweep ------------------------------------------------------------------------
    pairs = codes >> 1
    deltas = np.where((codes & 1) != 0, np.int64(1), np.int64(-1))
    starts = _kernels.run_starts(pairs)
    net = np.add.reduceat(deltas, starts)
    changed = net != 0
    change_pairs = pairs[starts[changed]]
    if not len(change_pairs):
        return empty
    depths = np.cumsum(net[changed])
    points = change_pairs % span + lo
    # A maximal interval spans changepoint k -> k+1 whenever k's depth is
    # positive; each group's last changepoint has depth 0 (deltas sum to
    # zero), so positive-depth rows never pair across group boundaries.
    open_mask = depths[:-1] > 0
    out_counts = depths[:-1][open_mask]
    if checkpoint is not None:
        checkpoint(int(out_counts.sum()))

    # -- decode: every group prints under its first valid row's key --------------------
    key_rows = (change_pairs // span)[:-1][open_mask]
    if rows is not None:
        key_rows = rows[key_rows]
    return (
        [Column.gathered(column, key_rows) for column in key_columns],
        Column(ints=points[:-1][open_mask]),
        Column(ints=points[1:][open_mask]),
        out_counts.tolist(),
    )


def _coalesce_columns_int(
    keys: Sequence[Hashable],
    begins: Sequence[Any],
    ends: Sequence[Any],
    counts: Sequence[int],
) -> Tuple[List[Hashable], List[Any], List[Any], List[int]] | None:
    """Integer-packed fast path of :func:`coalesce_columns`.

    Applies only when every multiplicity is 1 and every endpoint is a plain
    ``int`` (checked exactly -- ``bool``, ``float`` and ``None`` all bail to
    the general path).  Each event then packs into one machine integer,
    ``(gid * span + (ts - lo)) * 2 + end_bit``, so the global event sort
    compares plain ints -- several times faster than tuple comparison --
    and the end bit keeps the packing collision-free without affecting the
    sweep (events at one ``(gid, ts)`` settle as a single net delta).

    Returns ``None`` when the preconditions fail.
    """
    if not begins:
        return [], [], [], []
    # type(x) identity scans run at C speed; any NoneType/bool/float/str in
    # an endpoint column (or a non-unit multiplicity) falls back.
    if set(map(type, begins)) != {int} or set(map(type, ends)) != {int}:
        return None
    if not all(count == 1 for count in counts):
        return None
    lo = min(begins)
    span = max(ends) - lo + 1
    ids: Dict[Hashable, int] = {}
    if any(map(_int_ge, begins, ends)):
        # Degenerate/inverted intervals present: filter row by row.  A
        # begin == end pair would cancel inside its run, but begin > end
        # would encode an end point below the group's base -- drop both,
        # matching the general path's prefilter.
        group_keys: List[Hashable] = []
        get_id = ids.get
        events: List[int] = []
        append_event = events.append
        for key, begin, end in zip(keys, begins, ends):
            if begin >= end:
                continue
            gid = get_id(key)
            if gid is None:
                gid = ids[key] = len(group_keys)
                group_keys.append(key)
            base = gid * span - lo
            append_event((base + begin) << 1)
            append_event(((base + end) << 1) | 1)
        if not events:
            return [], [], [], []
    else:
        # Clean columns (every interval non-degenerate): build the packed
        # events with bulk comprehensions -- setdefault assigns dense group
        # ids in first-seen order, and the dict's insertion order *is* the
        # gid -> key mapping.
        setdefault = ids.setdefault
        bases = [setdefault(key, len(ids)) * span - lo for key in keys]
        events = [(base + begin) << 1 for base, begin in zip(bases, begins)]
        events += [((base + end) << 1) | 1 for base, end in zip(bases, ends)]
        group_keys = list(ids)
    events.sort()

    out_keys: List[Hashable] = []
    out_begins: List[Any] = []
    out_ends: List[Any] = []
    out_counts: List[int] = []
    emit_key = out_keys.append
    emit_begin = out_begins.append
    emit_end = out_ends.append
    emit_count = out_counts.append

    # Same settle-per-run sweep as the general path, decoding (gid, ts)
    # lazily: group changes are detected by the pair crossing the group's
    # span window, so the division only happens once per *group*.
    current_gid = (events[0] >> 1) // span
    current_key = group_keys[current_gid]
    shift = current_gid * span - lo
    window = shift + lo + span
    open_since = 0
    open_count = 0
    prev_pair = -1
    prev_ts = 0
    run_delta = 0
    for code in events:
        pair = code >> 1
        if pair == prev_pair:
            run_delta += 1 - ((code & 1) << 1)
            continue
        if run_delta != 0:
            # prev_pair is real here: the first iteration arrives with
            # run_delta == 0, and a balanced run needs no settling anyway.
            if open_count > 0:
                emit_key(current_key)
                emit_begin(open_since)
                emit_end(prev_ts)
                emit_count(open_count)
            open_since = prev_ts
            open_count += run_delta
        if pair >= window:
            # A group's deltas sum to zero, so the previous group's sweep
            # already closed (open_count settled back to 0).
            current_gid = pair // span
            current_key = group_keys[current_gid]
            shift = current_gid * span - lo
            window = shift + lo + span
            open_count = 0
        prev_pair = pair
        prev_ts = pair - shift
        run_delta = 1 - ((code & 1) << 1)
    if run_delta != 0 and open_count > 0:
        emit_key(current_key)
        emit_begin(open_since)
        emit_end(prev_ts)
        emit_count(open_count)
    return out_keys, out_begins, out_ends, out_counts
