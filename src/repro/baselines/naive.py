"""The naive per-snapshot evaluator (SQL/TP-style point-wise evaluation).

Evaluating a snapshot query literally -- once per time point over the
timeslice of the database (the conformance oracle's
:func:`~repro.conformance.oracle.oracle_at`), collecting the results into a
snapshot K-relation and encoding that with ``ENC_K``
(:meth:`~repro.logical_model.PeriodKRelation.encode`) -- is the
semantics-defining strategy (it *is* the abstract model) and also what a
point-based language such as SQL/TP effectively requires when snapshot
semantics is emulated as a union of per-snapshot queries.  It is correct by
construction but its cost is proportional to ``|T|``, which is why the
paper treats it as impractical and why the benchmarks include it only at
small time-domain sizes (the crossover against the interval-based
middleware is part of the ablation experiment).
"""

from __future__ import annotations

from ..abstract_model.snapshot import SnapshotKRelation
from ..algebra.operators import Operator
from ..conformance.oracle import oracle_at
from ..engine.catalog import Database
from ..engine.table import Table
from ..logical_model.period_relation import PeriodKRelation
from ..rewriter.periodenc import period_encode
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain

__all__ = ["NaiveSnapshotEvaluator"]


class NaiveSnapshotEvaluator:
    """Correct but point-wise: evaluates the query at every time point."""

    def __init__(self, database: Database, domain: TimeDomain) -> None:
        self.database = database
        self.domain = domain
        self.period_semiring = PeriodSemiring(NATURAL, domain)

    def execute(self, plan: Operator) -> Table:
        return period_encode(self.execute_decoded(plan), "naive_result")

    def execute_decoded(self, plan: Operator) -> PeriodKRelation:
        """The snapshot oracle at every time point, encoded with ``ENC_K``."""
        snapshots = {
            point: oracle_at(plan, self.database, self.domain, point)
            for point in self.domain.points()
        }
        schema = snapshots[self.domain.min_point].schema
        return PeriodKRelation.encode(
            self.period_semiring,
            SnapshotKRelation(NATURAL, self.domain, schema, snapshots),
        )
