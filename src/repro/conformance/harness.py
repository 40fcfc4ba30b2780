"""The snapshot-conformance harness: systematic checks of Theorem 8.1.

For a non-temporal query ``Q`` over a catalog of period tables, the harness
asserts the paper's central correctness property at every relevant time
point and across every execution configuration::

    timeslice(decode(execute(REWR(Q))), t)  ==  Q(timeslice(inputs, t))

The left-hand side runs through the production stack -- rewriter, planner
(on and off), and any registered execution backend (the in-memory engine
and SQLite by default); the right-hand side is the abstract-model oracle of
:mod:`repro.conformance.oracle`.  Time points are the distinct interval end
points of the inputs (one representative per maximal constant segment), so
a passing check covers *every* snapshot of the domain.

When a configuration disagrees with the oracle (or crashes), the harness
shrinks the failing input greedily -- removing physical rows while the
failure reproduces -- and reports a :class:`Counterexample` whose
``describe()`` output names the configuration, the time point, the minimal
rows and the two result relations.  This is the repo's standing safety net:
any future rewrite rule, planner rule, kernel or backend change that breaks
snapshot semantics surfaces here as a small, replayable witness.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..abstract_model.krelation import KRelation
from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..rewriter.pipeline import QueryPipeline
from ..rewriter.rewrite import SnapshotRewriter
from ..temporal.timedomain import TimeDomain
from .oracle import distinct_time_points, oracle_at, referenced_tables

__all__ = [
    "ConformanceError",
    "Counterexample",
    "ConformanceReport",
    "check_conformance",
    "assert_conformant",
]

#: Default execution configurations: every registered backend of interest,
#: each with the planner on and off.
DEFAULT_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")
DEFAULT_OPTIMIZE_MODES: Tuple[bool, ...] = (True, False)


class ConformanceError(AssertionError):
    """Raised by :func:`assert_conformant`; carries the counterexample."""

    def __init__(self, counterexample: "Counterexample") -> None:
        super().__init__(counterexample.describe())
        self.counterexample = counterexample


@dataclass
class Counterexample:
    """A minimized witness of a snapshot-conformance violation."""

    backend: str
    optimize: bool
    point: int
    query: Operator
    #: Minimized physical rows per referenced table (schema order).
    tables: Dict[str, List[Tuple[Any, ...]]]
    #: Oracle rows ``row -> multiplicity`` at the failing point.
    expected: Dict[Tuple[Any, ...], Any]
    #: Rewritten-plan rows at the failing point (empty when ``error``).
    actual: Dict[Tuple[Any, ...], Any]
    #: Traceback text when the configuration crashed instead of mismatching.
    error: Optional[str] = None
    shrink_checks: int = 0

    def describe(self) -> str:
        lines = [
            "snapshot-conformance violation "
            f"[backend={self.backend} optimize={self.optimize} t={self.point}]",
            f"query: {self.query!r}",
        ]
        for name, rows in self.tables.items():
            lines.append(f"input {name} ({len(rows)} rows):")
            lines.extend(f"  {row}" for row in rows)
        if self.error is not None:
            lines.append("execution failed:")
            lines.append(self.error.rstrip())
        else:
            lines.append(f"oracle snapshot at t={self.point}: {self.expected}")
            lines.append(f"rewritten plan at t={self.point}: {self.actual}")
        lines.append(f"(minimized with {self.shrink_checks} shrink executions)")
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    """Outcome of one :func:`check_conformance` run."""

    checks: int = 0
    points: Tuple[int, ...] = ()
    configurations: Tuple[Tuple[str, bool], ...] = ()
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def raise_if_failed(self) -> None:
        if self.counterexample is not None:
            raise ConformanceError(self.counterexample)


@dataclass
class _Context:
    """Everything a conformance run (and its shrinker) needs to re-execute."""

    query: Operator
    domain: TimeDomain
    names: Tuple[str, ...]
    schemas: Dict[str, Tuple[str, ...]]
    periods: Dict[str, Optional[Tuple[str, str]]]
    rewriter_cls: type
    oracle_cache: Dict[int, KRelation] = field(default_factory=dict)


def _build_database(context: _Context, rows: Dict[str, List[Tuple[Any, ...]]]) -> Database:
    database = Database()
    for name in context.names:
        database.create_table(
            name, context.schemas[name], rows[name], period=context.periods[name]
        )
    return database


def _execute_decoded(
    context: _Context, database: Database, backend: str, optimize: bool
):
    pipeline = QueryPipeline(
        context.domain,
        database=database,
        optimize=optimize,
        backend=None if backend == "memory" else backend,
        rewriter_cls=context.rewriter_cls,
    )
    return pipeline.execute_decoded(context.query)


def _mismatch_at(
    context: _Context, database: Database, backend: str, optimize: bool, point: int
) -> bool:
    """Does the configuration still disagree with the oracle at ``point``?"""
    try:
        decoded = _execute_decoded(context, database, backend, optimize)
    except Exception:  # noqa: BLE001 - a crash is a conformance failure too
        return True
    expected = oracle_at(context.query, database, context.domain, point)
    return decoded.timeslice(point) != expected


def _shrink(
    context: _Context,
    rows: Dict[str, List[Tuple[Any, ...]]],
    backend: str,
    optimize: bool,
    point: int,
    budget: int,
) -> Tuple[Dict[str, List[Tuple[Any, ...]]], int]:
    """Greedy one-row-at-a-time minimization of a failing input.

    Removes any single physical row whose absence keeps the failure alive,
    restarting the scan after each success, until a fixpoint or the
    execution budget is exhausted.  The result is 1-minimal within budget:
    no remaining single row can be dropped.
    """
    checks = 0
    shrunk = {name: list(table_rows) for name, table_rows in rows.items()}
    progress = True
    while progress and checks < budget:
        progress = False
        for name in context.names:
            index = 0
            while index < len(shrunk[name]) and checks < budget:
                candidate = dict(shrunk)
                candidate[name] = shrunk[name][:index] + shrunk[name][index + 1 :]
                checks += 1
                if _mismatch_at(
                    context, _build_database(context, candidate), backend, optimize, point
                ):
                    shrunk = candidate
                    progress = True
                else:
                    index += 1
    return shrunk, checks


def check_conformance(
    query: Operator,
    database: Database,
    domain: TimeDomain,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    optimize_modes: Sequence[bool] = DEFAULT_OPTIMIZE_MODES,
    points: Optional[Sequence[int]] = None,
    max_points: Optional[int] = None,
    minimize: bool = True,
    shrink_budget: int = 200,
    rewriter_cls: type[SnapshotRewriter] = SnapshotRewriter,
) -> ConformanceReport:
    """Check snapshot-reducibility of ``query`` across configurations.

    Returns a :class:`ConformanceReport`; on the first violation the report
    carries a minimized :class:`Counterexample` (set ``minimize=False`` to
    keep the original input).  ``points`` overrides the checked time points
    (default: every distinct input changepoint, sampled down to
    ``max_points`` when set).  ``optimize_modes`` are the planner switch
    values to run under (booleans, as ``QueryPipeline(optimize=)`` takes).
    """
    names = referenced_tables(query, database)
    context = _Context(
        query=query,
        domain=domain,
        names=names,
        schemas={name: database.table(name).schema for name in names},
        periods={name: database.period_of(name) for name in names},
        rewriter_cls=rewriter_cls,
    )
    if points is None:
        checked_points = distinct_time_points(database, names, domain, limit=max_points)
    else:
        checked_points = sorted(domain.validate_point(p) for p in points)
        if not checked_points:
            # An empty point list would certify nothing (and the crash path
            # reports the first checked point) -- reject it loudly rather
            # than return a vacuous ok-report.
            raise ValueError("points is empty: no time points to check")
    configurations = tuple(itertools.product(backends, optimize_modes))
    original_rows = {name: list(database.table(name).rows) for name in names}

    report = ConformanceReport(
        points=tuple(checked_points), configurations=configurations
    )
    for backend, optimize in configurations:
        error: Optional[str] = None
        decoded = None
        try:
            decoded = _execute_decoded(context, database, backend, optimize)
        except Exception:  # noqa: BLE001 - report, don't mask, harness-found crashes
            error = traceback.format_exc()
        failing_point: Optional[int] = None
        expected: Dict[Tuple[Any, ...], Any] = {}
        actual: Dict[Tuple[Any, ...], Any] = {}
        if error is not None:
            failing_point = checked_points[0]
        else:
            for point in checked_points:
                oracle = context.oracle_cache.get(point)
                if oracle is None:
                    oracle = oracle_at(query, database, domain, point)
                    context.oracle_cache[point] = oracle
                sliced = decoded.timeslice(point)
                report.checks += 1
                if sliced != oracle:
                    failing_point = point
                    expected = dict(oracle)
                    actual = dict(sliced)
                    break
        if failing_point is None:
            continue
        rows = original_rows
        shrink_checks = 0
        if minimize:
            rows, shrink_checks = _shrink(
                context, original_rows, backend, optimize, failing_point, shrink_budget
            )
            shrunk_db = _build_database(context, rows)
            try:
                shrunk_decoded = _execute_decoded(context, shrunk_db, backend, optimize)
                expected = dict(
                    oracle_at(query, shrunk_db, domain, failing_point)
                )
                actual = dict(shrunk_decoded.timeslice(failing_point))
                error = None
            except Exception:  # noqa: BLE001 - the minimal witness is the crash
                error = traceback.format_exc()
        report.counterexample = Counterexample(
            backend=backend,
            optimize=optimize,
            point=failing_point,
            query=query,
            tables={name: list(table_rows) for name, table_rows in rows.items()},
            expected=expected,
            actual=actual,
            error=error,
            shrink_checks=shrink_checks,
        )
        return report
    return report


def assert_conformant(
    query: Operator, database: Database, domain: TimeDomain, **kwargs: Any
) -> ConformanceReport:
    """:func:`check_conformance`, raising :class:`ConformanceError` on failure."""
    report = check_conformance(query, database, domain, **kwargs)
    report.raise_if_failed()
    return report
