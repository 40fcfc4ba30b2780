"""The naive per-snapshot evaluator (SQL/TP-style point-wise evaluation).

Evaluating a snapshot query literally -- once per time point over the
timeslice of the database (the conformance oracle's
:func:`~repro.conformance.oracle.oracle_at`), then stitching the results
back together -- is the semantics-defining strategy (it *is* the abstract
model) and also what a point-based language such as SQL/TP effectively
requires when snapshot semantics is emulated as a union of per-snapshot
queries.  It is correct by construction but its cost is proportional to
``|T|``, which is why the paper treats it as impractical and why the
benchmarks include it only at small time-domain sizes (the crossover
against the interval-based middleware is part of the ablation experiment).
"""

from __future__ import annotations

from ..algebra.operators import Operator
from ..conformance.oracle import oracle_at
from ..engine.table import Table
from ..logical_model.period_relation import PeriodKRelation
from ..rewriter.periodenc import period_encode
from ..semirings.standard import NATURAL
from ..temporal.elements import TemporalElement
from .base import BaselineEvaluator

__all__ = ["NaiveSnapshotEvaluator"]


class NaiveSnapshotEvaluator(BaselineEvaluator):
    """Correct but point-wise: evaluates the query at every time point."""

    name = "naive-per-snapshot"
    produces_unique_encoding = True

    def execute(self, plan: Operator) -> Table:
        return period_encode(self.execute_decoded(plan), "naive_result")

    def execute_decoded(self, plan: Operator) -> PeriodKRelation:
        """The snapshot oracle at every time point, stitched into periods."""
        schema: tuple = ()
        histories: dict = {}
        for point in self.domain.points():
            snapshot_result = oracle_at(plan, self.database, self.domain, point)
            schema = snapshot_result.schema
            for row, annotation in snapshot_result:
                histories.setdefault(row, {})[point] = annotation
        result = PeriodKRelation(self.period_semiring, schema)
        for row, history in histories.items():
            result.add(row, TemporalElement.from_points(NATURAL, self.domain, history))
        return result

    # The point-wise evaluator overrides execute() wholesale, so the
    # operator-level hooks of the base class are never used.
    def _aggregation(self, child: Table, plan) -> Table:  # pragma: no cover
        raise NotImplementedError

    def _difference(self, left: Table, right: Table) -> Table:  # pragma: no cover
        raise NotImplementedError
