"""The per-point snapshot oracle and the normal-form check over period tables.

Snapshot-reducibility (the paper's Definition 4.4 / Theorem 8.1) pins down
what a rewritten plan must compute: slicing its result at any time point
``t`` has to equal evaluating the original non-temporal query over the
``t``-snapshot of the inputs.  This module provides the right-hand side of
that equation directly on engine catalogs -- timeslice the referenced
period tables into plain K-relations
(:func:`~repro.rewriter.periodenc.timeslice_table`), then run the
abstract-model interpreter -- without materialising a full
:class:`~repro.abstract_model.snapshot.SnapshotDatabase` (which is linear
in ``|T|`` per relation and would dominate large sweeps).

:func:`normal_form_violation` checks that a result is also the unique
coalesced encoding (Definition 6.3), which equal slices do not imply.

Rows whose period end points are NULL or degenerate (``begin >= end``) hold
at no snapshot, mirroring the SQL three-valued semantics both execution
backends apply.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..abstract_model.evaluator import evaluate
from ..abstract_model.krelation import KRelation
from ..algebra.operators import Operator, RelationAccess
from ..engine.catalog import DEFAULT_PERIOD, Database
from ..engine.table import Table
from ..rewriter.periodenc import T_BEGIN, T_END, timeslice_table
from ..semirings.standard import NATURAL
from ..temporal.timedomain import TimeDomain

__all__ = [
    "referenced_tables",
    "snapshot_inputs",
    "oracle_at",
    "normal_form_violation",
    "distinct_time_points",
]


def referenced_tables(plan: Operator, database: Database) -> Tuple[str, ...]:
    """The catalog tables a plan reads, in first-reference order."""
    names: List[str] = []
    for node in plan.walk():
        if isinstance(node, RelationAccess) and node.name in database:
            if node.name not in names:
                names.append(node.name)
    return tuple(names)


def _period_of(table: Table, database: Database) -> Tuple[str, str]:
    return database.period_of(table.name) or DEFAULT_PERIOD


def snapshot_inputs(
    database: Database, names: Iterable[str], point: int
) -> Dict[str, KRelation]:
    """The non-temporal K-database of the named tables at ``point``."""
    return {
        name: timeslice_table(
            database.table(name), point, _period_of(database.table(name), database)
        )
        for name in names
    }


def oracle_at(
    query: Operator, database: Database, domain: TimeDomain, point: int
) -> KRelation:
    """``Q(tau_T(D))``: the snapshot oracle for one plan at one point."""
    domain.validate_point(point)
    names = referenced_tables(query, database)
    return evaluate(query, snapshot_inputs(database, names, point), NATURAL)


def normal_form_violation(table: Table) -> Optional[str]:
    """Why result ``table`` is not the coalesced encoding (Definition 6.3), or ``None``.

    Per value tuple, every period must be non-empty, distinct periods
    pairwise disjoint, and two periods that meet must carry different row
    counts.  The answer names the value tuple and its offending periods.
    """
    begin_index = table.column_index(T_BEGIN)
    end_index = table.column_index(T_END)
    data = [i for i, attribute in enumerate(table.schema) if attribute not in (T_BEGIN, T_END)]
    counts: Dict[Tuple[Any, ...], Counter] = {}
    for row in table.rows:
        values = tuple(row[i] for i in data)
        counts.setdefault(values, Counter())[row[begin_index], row[end_index]] += 1
    for values, periods in counts.items():
        for (begin, end), count in periods.items():
            if begin is None or end is None or not begin < end:
                return f"value {values} has an empty period [{begin}, {end}) x{count}"
        spans = sorted(periods.items())
        for ((b1, e1), c1), ((b2, e2), c2) in zip(spans, spans[1:]):
            if b2 < e1 or (b2 == e1 and c1 == c2):
                how = "overlap" if b2 < e1 else "meet with equal counts"
                pair = f"[{b1}, {e1}) x{c1} and [{b2}, {e2}) x{c2}"
                return f"value {values} has periods {pair} that {how}"
    return None


def distinct_time_points(
    database: Database,
    names: Iterable[str],
    domain: TimeDomain,
    limit: Optional[int] = None,
    seed: int = 0,
) -> List[int]:
    """The time points at which the inputs (hence any result) can change.

    The snapshot of a period table is constant between consecutive interval
    end points, so checking conformance at ``Tmin`` plus every in-domain
    begin/end value of every input row covers one representative per
    maximal constant segment -- checking *every* point of the domain would
    add nothing.  ``limit`` samples (seeded, always keeping ``Tmin``) when
    adversarial inputs produce more changepoints than a sweep budget allows.
    """
    points = {domain.min_point}
    for name in names:
        table = database.table(name)
        period = _period_of(table, database)
        begin_index = table.column_index(period[0])
        end_index = table.column_index(period[1])
        for row in table.rows:
            for value in (row[begin_index], row[end_index]):
                if value is not None and value in domain:
                    points.add(value)
    ordered = sorted(points)
    if limit is not None and len(ordered) > limit:
        rng = random.Random(f"{seed}/{len(ordered)}")
        sampled = rng.sample(ordered[1:], limit - 1) if limit > 1 else []
        ordered = sorted({domain.min_point, *sampled})
    return ordered
