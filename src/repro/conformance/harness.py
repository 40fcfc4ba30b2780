"""The snapshot-conformance harness: systematic checks of Theorem 8.1.

For a non-temporal query ``Q`` over a catalog of period tables, the harness
asserts the paper's central correctness property at every relevant time
point and across every execution configuration::

    timeslice(execute(REWR(Q)), t)  ==  Q(timeslice(inputs, t)),  in normal form

The left-hand side runs through the production stack -- rewriter, planner
(on and off), and any registered execution backend (the in-memory engine
and SQLite by default) -- and its period rows are sliced, never decoded;
the right-hand side is the abstract-model oracle of
:mod:`repro.conformance.oracle`.  Time points are the distinct interval end
points of the inputs (one representative per maximal constant segment), so
a passing check covers *every* snapshot of the domain.  Once every slice
agrees, the rows must also be the unique coalesced encoding (Definition
6.3), which decoding would have hidden.

On a violation (a mismatch, a crash or rows out of normal form), the
harness shrinks the failing input greedily -- removing physical rows while
the failure reproduces -- and reports a :class:`Counterexample` whose
``describe()`` output names the configuration, the minimal rows and the
time point with both result relations (or the offending periods).  This is
the repo's standing safety net:
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
from ..rewriter.periodenc import timeslice_table
from ..rewriter.pipeline import QueryPipeline
from ..rewriter.rewrite import SnapshotRewriter
from ..temporal.timedomain import TimeDomain
from .oracle import (
    distinct_time_points,
    normal_form_violation,
    oracle_at,
    referenced_tables,
)

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

#: The start of a normal-form witness's ``error``.
NOT_NORMAL_FORM = "result not in normal form (Definition 6.3): "


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
    expected: Dict[Tuple[Any, ...], Any] = field(default_factory=dict)
    #: Rewritten-plan rows at the failing point (empty when ``error``).
    actual: Dict[Tuple[Any, ...], Any] = field(default_factory=dict)
    #: Traceback text when the configuration crashed instead of mismatching,
    #: or :data:`NOT_NORMAL_FORM` and the offending periods.
    error: Optional[str] = None
    shrink_checks: int = 0

    @property
    def normal_form(self) -> bool:
        """Whether this witnesses a result out of normal form (every slice agreed)."""
        return self.error is not None and self.error.startswith(NOT_NORMAL_FORM)

    def describe(self) -> str:
        at = "" if self.normal_form else f" t={self.point}"
        lines = [
            "snapshot-conformance violation "
            f"[backend={self.backend} optimize={self.optimize}{at}]",
            f"query: {self.query!r}",
        ]
        for name, rows in self.tables.items():
            lines.append(f"input {name} ({len(rows)} rows):")
            lines.extend(f"  {row}" for row in rows)
        if self.normal_form:
            lines.append(str(self.error))
        elif self.error is not None:
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
    #: Oracle slices of the checked catalog, per point, shared by the configurations.
    oracles: Dict[int, KRelation] = field(default_factory=dict)
    #: Slices compared with the oracle so far (``ConformanceReport.checks``).
    slices: int = 0


def _build_database(context: _Context, rows: Dict[str, List[Tuple[Any, ...]]]) -> Database:
    database = Database()
    for name in context.names:
        database.create_table(
            name, context.schemas[name], rows[name], period=context.periods[name]
        )
    return database


def _first_violation(
    context: _Context,
    database: Database,
    backend: str,
    optimize: bool,
    points: Sequence[int],
    oracles: Dict[int, KRelation],
) -> Optional[Counterexample]:
    """Run one configuration; its first violation as an unshrunk witness, or ``None``.

    A crash fails at the first point.  Otherwise the result's slice at each
    point is compared with the oracle (cached per point in ``oracles``), and
    only when every slice agrees are the rows checked for the normal form.
    """

    def witness(point: int, **found: Any) -> Counterexample:
        tables = {name: list(database.table(name).rows) for name in context.names}
        return Counterexample(backend, optimize, point, context.query, tables, **found)

    pipeline = QueryPipeline(
        context.domain,
        database=database,
        optimize=optimize,
        backend=None if backend == "memory" else backend,
        rewriter_cls=context.rewriter_cls,
    )
    try:
        table = pipeline.execute(context.query)
    except Exception:  # noqa: BLE001 - a crash is a conformance failure too
        return witness(points[0], error=traceback.format_exc())
    for point in points:
        if point not in oracles:
            oracles[point] = oracle_at(context.query, database, context.domain, point)
        actual = timeslice_table(table, point)
        context.slices += 1
        if actual != oracles[point]:
            return witness(point, expected=dict(oracles[point]), actual=dict(actual))
    defect = normal_form_violation(table)
    return None if defect is None else witness(points[0], error=NOT_NORMAL_FORM + defect)


def _shrink(
    context: _Context, violation: Counterexample, points: Sequence[int], budget: int
) -> Counterexample:
    """Greedy one-row-at-a-time minimization of a failing input.

    Removes any single physical row whose absence keeps a violation of the
    same sort alive (a mismatch or crash at the failing point, or rows out
    of normal form with every slice right), restarting the scan after each
    success, until a fixpoint or the execution budget is exhausted.  The
    witness is 1-minimal within budget: no remaining row can be dropped.
    """
    if not violation.normal_form:
        points = [violation.point]
    checks = 0
    progress = True
    while progress and checks < budget:
        progress = False
        for name in context.names:
            index = 0
            while index < len(violation.tables[name]) and checks < budget:
                rows = violation.tables[name]
                candidate = {**violation.tables, name: rows[:index] + rows[index + 1 :]}
                checks += 1
                found = _first_violation(
                    context,
                    _build_database(context, candidate),
                    violation.backend,
                    violation.optimize,
                    points,
                    {},
                )
                if found is not None and found.normal_form == violation.normal_form:
                    violation = found
                    progress = True
                else:
                    index += 1
    violation.shrink_checks = checks
    return violation


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
    report = ConformanceReport(
        points=tuple(checked_points), configurations=configurations
    )
    for backend, optimize in configurations:
        violation = _first_violation(
            context, database, backend, optimize, checked_points, context.oracles
        )
        report.checks = context.slices
        if violation is not None:
            if minimize:
                violation = _shrink(context, violation, checked_points, shrink_budget)
            report.counterexample = violation
            return report
    return report


def assert_conformant(
    query: Operator, database: Database, domain: TimeDomain, **kwargs: Any
) -> ConformanceReport:
    """:func:`check_conformance`, raising :class:`ConformanceError` on failure."""
    report = check_conformance(query, database, domain, **kwargs)
    report.raise_if_failed()
    return report
