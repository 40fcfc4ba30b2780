"""The engine's scalar interval join: partitions, the bisect sweep, the pool.

Joins that :mod:`repro.engine.kernels` serves never come here.  What does --
inputs below the kernel cutover, NULL or non-int end points, a numpy-less
install, an explicit worker pool -- is partitioned by the join's equality
conjuncts (one partition per distinct key, as the row reference does) or,
when the overlap predicate carries none and a pool was asked for, by
fragment-replicate chunking of the left input.  Each partition runs
:func:`interval_sweep`, in this process or across a :mod:`multiprocessing`
pool.

Design constraints that shaped the code:

* **Workers are module-level functions** and the per-worker state travels
  through the pool initializer, so the pool works under both the ``fork``
  start method (Linux: state is inherited copy-on-write, nothing is
  re-pickled) and ``spawn`` (macOS/Windows: the initargs payload is pickled
  once per worker, not once per task).
* **Predicates cross the process boundary as ASTs.**  Compiled expression
  closures are not picklable; :class:`~repro.algebra.expressions.Expression`
  nodes are frozen dataclasses and are.  Each worker compiles the residual
  once in its initializer.
* **Deadlines stay in the parent.**  Workers run uninterrupted; the parent
  polls its deadline between partition results, so cancellation is coarser
  in parallel mode (one partition, not one sweep step).

:func:`interval_sweep` differs from the row reference's sweep by hoisting
the begin columns, bounding the inner scan with :func:`bisect.bisect_left`
and emitting through a list comprehension; it is the fallback, not where the
engine's join speed comes from (that is the whole-column kernel).
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..algebra.expressions import Expression
from .table import tuple_getter

__all__ = [
    "interval_sweep",
    "partition_by_keys",
    "chunk_partitions",
    "run_partitions_parallel",
]

Row = Tuple[Any, ...]
#: One co-partition of the join: (left rows, right rows).
Partition = Tuple[List[Row], List[Row]]


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


def chunk_left(
    left_rows: Sequence[Row], right_rows: Sequence[Row], chunks: int
) -> List[Partition]:
    """Fragment-replicate partitioning for joins without equality conjuncts.

    The left input is split into ``chunks`` slices, each joined against the
    whole right input; every output pair is produced by exactly one slice,
    so the union of the partition outputs is the exact join result.
    """
    total = len(left_rows)
    chunks = max(1, min(chunks, total))
    size, extra = divmod(total, chunks)
    partitions: List[Partition] = []
    start = 0
    right = list(right_rows)
    for position in range(chunks):
        stop = start + size + (1 if position < extra else 0)
        if stop > start:
            partitions.append((list(left_rows[start:stop]), right))
        start = stop
    return partitions


def chunk_partitions(
    partitions: Sequence[int], costs: Sequence[int], workers: int
) -> List[List[int]]:
    """Greedy balanced assignment of partition ids to ``workers`` chunks.

    Largest-first into the currently lightest chunk -- the classic LPT
    heuristic; good enough for the skew this engine sees (partition cost is
    its input row count).
    """
    order = sorted(partitions, key=lambda pid: costs[pid], reverse=True)
    buckets: List[List[int]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(buckets)
    for pid in order:
        lightest = loads.index(min(loads))
        buckets[lightest].append(pid)
        loads[lightest] += costs[pid]
    return [bucket for bucket in buckets if bucket]


# -- pool plumbing ---------------------------------------------------------------------
#
# Worker state is installed by the pool initializer so tasks only carry
# partition ids.  Under fork the payload is inherited; under spawn it is
# pickled once per worker.

_WORKER_STATE: Optional[Tuple[List[Partition], int, int, int, int, Optional[Callable[[Row], bool]]]] = None


def _worker_init(
    partitions: List[Partition],
    lb: int,
    le: int,
    rb: int,
    re: int,
    residual: Optional[Expression],
    schema: Tuple[str, ...],
) -> None:
    global _WORKER_STATE
    keep = residual.compile(schema) if residual is not None else None
    _WORKER_STATE = (partitions, lb, le, rb, re, keep)


def _worker_run(chunk: List[int]) -> List[Row]:
    assert _WORKER_STATE is not None, "pool initializer did not run"
    partitions, lb, le, rb, re, keep = _WORKER_STATE
    out: List[Row] = []
    for pid in chunk:
        left_part, right_part = partitions[pid]
        interval_sweep(left_part, right_part, lb, le, rb, re, keep, out)
    return out


def run_partitions_parallel(
    partitions: List[Partition],
    lb: int,
    le: int,
    rb: int,
    re: int,
    residual: Optional[Expression],
    schema: Tuple[str, ...],
    workers: int,
    out: List[Row],
    checkpoint: Optional[Callable[[int], None]] = None,
) -> int:
    """Sweep every partition across a worker pool; returns the worker count.

    The parent polls ``checkpoint`` between chunk results (workers run each
    partition to completion), and the chunk order is fixed, so the output
    order is deterministic for a given partition list.
    """
    costs = [len(left) + len(right) for left, right in partitions]
    chunks = chunk_partitions(range(len(partitions)), costs, workers)
    workers = min(workers, len(chunks))
    context = multiprocessing.get_context()
    with context.Pool(
        processes=workers,
        initializer=_worker_init,
        initargs=(partitions, lb, le, rb, re, residual, schema),
    ) as pool:
        for produced in pool.imap(_worker_run, chunks):
            out.extend(produced)
            if checkpoint is not None:
                checkpoint(len(out))
    return workers
