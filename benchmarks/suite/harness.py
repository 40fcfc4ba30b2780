"""Shared machinery of the suite: operations, executors, the closed loop.

A workload describes its traffic as a stream of :class:`Op` values; this
module runs them.  The same stream is executed two ways:

* :class:`DirectExecutor` -- what a user does: build the fluent chain and
  call ``relation.rows()`` (or ``session.insert`` / ``view.rows()``).  The
  end-to-end metrics come from here, untraced.
* :class:`TracedLocalExecutor` / ``wire.TracedRemoteExecutor`` -- the suite
  performs the same operation as an explicit sequence of calls into the
  layers' public functions, one span per call, so self time per layer can
  be read off the trace.  The result must equal the direct one.

Sessions are opened with the defaults ``connect()`` gives a user; the traced
executors read the executor and planner mode off the session instead of
naming them, so a changed default is followed, not masked.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends.sqlcompile import compile_plan
from repro.engine import execute as engine_execute
from repro.incremental import Delta
from repro.planner import optimize as planner_optimize

from spans import OP, SpanRecorder

Row = Tuple[Any, ...]
Digest = Tuple[int, str]


# -- statistics ----------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def fastest(values: Sequence[float]) -> float:
    """The suite's estimate of what an operation costs: its fastest sample.

    The box this runs on is shared.  Measured on it: the same pure-Python
    loop takes 128 ms or 190 ms of *CPU time* depending on the second it
    runs in, the slow state lasts from seconds to minutes, and medians of
    identical runs then differ by 30 % (run-to-run spread of ``adhoc_small``
    at a fixed seed: median 30 %, 10th percentile 8 %, minimum 2 %).
    Interference only ever adds time, so the fastest sample is the one
    estimate that repeats; medians are kept in the records for reading, not
    for gating.
    """
    return min(values)


# -- result digests ------------------------------------------------------------------------


def _canonical(value: Any) -> str:
    # 1 and 1.0 are the same SQL value (and compare equal in the engine's
    # bag checks) but print differently; JSON turns tuples into lists.
    if value is None:
        return "~"
    if isinstance(value, bool):
        return repr(int(value))
    if isinstance(value, (int, float)):
        return repr(float(value))
    return "s" + str(value)


def digest(rows: Sequence[Sequence[Any]]) -> Digest:
    """Order-independent digest of a bag of rows: (row count, hash of sorted rows)."""
    lines = sorted("|".join(_canonical(value) for value in row) for row in rows)
    hasher = hashlib.sha1()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return len(lines), hasher.hexdigest()


class Checks:
    """Counts correctness checks; every failed one keeps a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def guarded(self, what: str, action: Callable[[], bool]) -> bool:
        """A check whose evaluation may itself raise (counts as failed)."""
        try:
            return self.expect(bool(action()), what)
        except Exception:  # noqa: BLE001 - a crashing check is a failed check
            return self.expect(False, f"{what}: {traceback.format_exc(limit=3)}")

    def same_digest(
        self, what: str, rows: Callable[[], Sequence[Sequence[Any]]], reference: Digest
    ) -> bool:
        """The digest of ``rows()`` must equal ``reference``."""
        got: List[Digest] = []

        def compare() -> bool:
            got.append(digest(rows()))
            return got[0] == reference

        ok = self.guarded(what, compare)
        if not ok and got:
            self.failures[-1] = f"{what}: digest {got[0]} differs from reference {reference}"
        return ok


# -- operations ----------------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload's traffic.

    ``kind`` is ``read`` (``build()`` returns a lazy relation whose rows are
    fetched), ``insert`` / ``delete`` (``rows`` of ``table``) or ``view_rows``
    (contents of materialized view ``view``).  ``cls`` is the operation class
    its latency is reported under, ``name`` the finer per-query label.
    ``cold`` marks a read whose plan is not in the plan cache yet.
    ``expect_rows`` is the result size the timed loop checks (digests are
    compared outside the loop, where they cost nothing).
    """

    kind: str
    cls: str
    name: str
    build: Optional[Callable[[], Any]] = None
    table: Optional[str] = None
    rows: Optional[List[Row]] = None
    view: Optional[str] = None
    cold: bool = False
    expect_rows: Optional[int] = None


@dataclass
class Samples:
    """Latencies of one timed phase, per op; failures with their first reason.

    ``block_rates`` holds, per client, the throughput (completed ops per
    second) of every block of the schedule, ``block_ends`` the time
    (``perf_counter``) each of those blocks ended.
    """

    cls: List[str] = field(default_factory=list)
    name: List[str] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    block_rates: List[List[float]] = field(default_factory=list)
    block_ends: List[List[float]] = field(default_factory=list)
    failed: int = 0
    first_failure: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.seconds)

    @property
    def ops_per_second(self) -> float:
        """Sum over the clients of each client's fastest block (see ``fastest``)."""
        return sum(max(rates) for rates in self.block_rates if rates)

    def op_latency(self) -> float:
        """Mean latency of the op mix, every op counted at its name's fastest time."""
        floor = {name: fastest(values) for name, values in self.by(self.name).items()}
        return sum(floor[name] for name in self.name) / len(self.name)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason

    def merge(self, other: "Samples") -> None:
        """Add another client's samples (or another phase of the same run)."""
        self.cls += other.cls
        self.name += other.name
        self.seconds += other.seconds
        self.block_rates += other.block_rates
        self.block_ends += other.block_ends
        self.failed += other.failed
        self.wall_seconds = max(self.wall_seconds, other.wall_seconds)
        if self.first_failure is None:
            self.first_failure = other.first_failure

    def by(self, labels: List[str]) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for label, seconds in zip(labels, self.seconds):
            grouped.setdefault(label, []).append(seconds)
        return grouped

    def class_latency(self, cls: str) -> Tuple[float, int]:
        """Latency of an op class: the mean over its queries of each one's fastest time.

        A class mixes queries of very different cost (``join-3`` takes 3 ms,
        ``join-2`` 65 ms); weighing every query once makes the class a
        Table-3 column sum, not a statistic of whichever query has the most
        samples.  Returns (seconds, samples).
        """
        by_name: Dict[str, List[float]] = {}
        for op_cls, name, seconds in zip(self.cls, self.name, self.seconds):
            if op_cls == cls:
                by_name.setdefault(name, []).append(seconds)
        if not by_name:  # every op of the class failed; the run is incorrect anyway
            return 0.0, 0
        floors = [fastest(values) for values in by_name.values()]
        return sum(floors) / len(floors), sum(len(v) for v in by_name.values())


#: Yielded by a schedule at the end of a block: one pass of a round-robin
#: schedule, or one seeded shuffle of a fixed multiset of ops.  Every block
#: has the same op mix, so block throughputs are comparable, and the timed
#: loop stops only here, so every class keeps its share of the samples.
BOUNDARY = None


def closed_loop(
    schedule: Iterator[Optional[Op]],
    run_op: Callable[[Op], Optional[Sequence[Any]]],
    seconds: float,
) -> Samples:
    """One client: the next op is issued when the previous one completed.

    Runs until ``seconds`` have passed *and* the schedule reached a boundary.
    An op that raises, or returns a result of the wrong size, counts as
    failed and contributes no latency sample.
    """
    samples = Samples()
    rates: List[float] = []
    ends: List[float] = []
    samples.block_rates.append(rates)
    samples.block_ends.append(ends)
    clock = time.perf_counter
    started = block_started = clock()
    block_ops = 0
    deadline = started + seconds
    for op in schedule:
        if op is BOUNDARY:
            now = clock()
            if block_ops:
                rates.append(block_ops / (now - block_started))
                ends.append(now)
            block_started, block_ops = now, 0
            if now >= deadline:
                break
            continue
        before = clock()
        try:
            result = run_op(op)
        except Exception:  # noqa: BLE001 - the loop must survive and count it
            samples.fail(f"{op.name}: {traceback.format_exc(limit=4)}")
            continue
        elapsed = clock() - before
        if op.expect_rows is not None and len(result) != op.expect_rows:
            samples.fail(f"{op.name}: {len(result)} rows, expected {op.expect_rows}")
            continue
        block_ops += 1
        samples.cls.append(op.cls)
        samples.name.append(op.name)
        samples.seconds.append(elapsed)
    samples.wall_seconds = clock() - started
    return samples


# -- executors -----------------------------------------------------------------------------


class DirectExecutor:
    """Runs an op the way a user of the session would."""

    def __init__(self, session: Any) -> None:
        self._session = session

    def __call__(self, op: Op) -> Optional[Sequence[Any]]:
        if op.kind == "read":
            return op.build().rows()
        if op.kind == "insert":
            self._session.insert(op.table, op.rows)
            return None
        if op.kind == "delete":
            self._session.delete(op.table, op.rows)
            return None
        if op.kind == "view_rows":
            return self._session.view(op.view).rows()
        raise ValueError(f"unknown op kind {op.kind!r}")


class TracedLocalExecutor:
    """Runs an op against a local session as explicit, timed layer calls.

    Reads: ``api.build`` -> ``rewriter.cache_lookup`` (or, for a cold op,
    ``rewriter.rewr`` -> ``planner.optimize``) -> ``engine.execute`` (or, on
    a SQLite session, ``backends.sqlcompile`` -> ``backends.sqlite_exec`` on
    ``sqlite_connection``, a connection the suite loaded itself).

    Writes: catalog DML and view maintenance happen inside one
    ``Database.insert`` call, so they are separated by running the DML on
    ``shadow``, a view-free copy of the table, and handing the same batch to
    the view as a detached delta.  The session's own base table is left
    alone; a workload whose writes cancel out (delete, then insert the same
    batch) leaves the view where ``verify()`` expects it.
    """

    def __init__(
        self,
        session: Any,
        recorder: SpanRecorder,
        sqlite_connection: Any = None,
        shadow: Any = None,
    ) -> None:
        self._session = session
        self._recorder = recorder
        self._sqlite = sqlite_connection
        self._shadow = shadow

    def __call__(self, op: Op) -> Optional[Sequence[Any]]:
        span = self._recorder.span
        session = self._session
        with span(OP, op.cls):
            if op.kind == "read":
                with span("api.build"):
                    relation = op.build()
                pipeline = session.pipeline
                database = session.database
                if op.cold:
                    with span("rewriter.rewr"):
                        plan = pipeline.rewriter.rewrite(relation.plan)
                    with span("planner.optimize"):
                        plan = planner_optimize(
                            plan, database, None, mode=pipeline.planner_mode
                        )
                else:
                    with span("rewriter.cache_lookup"):
                        plan = pipeline.rewrite(relation.plan)
                if self._sqlite is None:
                    with span("engine.execute"):
                        return engine_execute(
                            plan, database, executor=session.executor
                        ).rows
                with span("backends.sqlcompile"):
                    compiled = compile_plan(plan, database)
                with span("backends.sqlite_exec"):
                    return self._sqlite.execute(compiled.sql).fetchall()
            if op.kind in ("insert", "delete"):
                inserting = op.kind == "insert"
                with span("engine.dml"):
                    if inserting:
                        self._shadow.insert(op.table, op.rows)
                    else:
                        self._shadow.delete(op.table, op.rows)
                make_delta = Delta.inserts if inserting else Delta.deletes
                with span("incremental.apply"):
                    for name in session.views():
                        session.view(name).apply(make_delta(op.table, op.rows))
                return None
            if op.kind == "view_rows":
                with span("incremental.view_rows"):
                    return session.view(op.view).rows()
        raise ValueError(f"unknown op kind {op.kind!r}")
