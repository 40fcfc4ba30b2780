"""Deliberately broken rewrite rules: mutation smoke tests for the harness.

A conformance harness is only trustworthy if it demonstrably *catches*
broken rewrites.  Each class here reintroduces a realistic correctness bug
-- the very bugs the paper documents in native temporal implementations,
and a result that is right at every snapshot but not coalesced -- by
overriding one rule of :class:`~repro.rewriter.rewrite.SnapshotRewriter`.
The mutation tests assert that :func:`repro.conformance.check_conformance`
flags every one of them with a minimized counterexample; if a refactor ever
makes a mutation pass, the harness itself has lost detection power.

The mutants are injected through ``QueryPipeline(rewriter_cls=...)``
and never touch production code paths.
"""

from __future__ import annotations

from typing import Dict, Type

from ..algebra.expressions import FunctionCall
from ..algebra.operators import Difference, Distinct, Operator, Projection
from ..rewriter.rewrite import SnapshotRewriter, _Rewritten

__all__ = [
    "BrokenDifferenceRewriter",
    "BrokenDistinctRewriter",
    "BrokenJoinPeriodRewriter",
    "NoFinalCoalesceRewriter",
    "MUTATIONS",
]


class BrokenDifferenceRewriter(SnapshotRewriter):
    """Bag difference without the split step (the paper's BD bug).

    Comparing physical rows directly makes ``EXCEPT ALL`` sensitive to the
    interval encoding: a right-side row only cancels a left-side row when
    their periods are *identical*, instead of cancelling per overlapping
    snapshot.
    """

    def _rewrite_difference(
        self, plan: Difference, left: _Rewritten, right: _Rewritten
    ) -> _Rewritten:
        self._check_union_compatible(left, right)
        right_plan = self._align_schema(right, left.data_schema)
        return _Rewritten(Difference(left.plan, right_plan), left.data_schema)


class BrokenDistinctRewriter(SnapshotRewriter):
    """Duplicate elimination without aligning intervals first.

    ``DISTINCT`` over raw period rows only merges rows with identical
    intervals; two overlapping periods of the same value survive as two
    rows, so snapshots in the overlap report multiplicity 2 instead of 1.
    """

    def _rewrite_distinct(self, plan: Distinct, child: _Rewritten) -> _Rewritten:
        return _Rewritten(Distinct(child.plan), child.data_schema)


class BrokenJoinPeriodRewriter(SnapshotRewriter):
    """Join periods combined with the *union* instead of the intersection.

    Swapping ``greatest``/``least`` in the rewritten join's period
    computation stretches every output interval to the union of the two
    input intervals, claiming join results at snapshots where only one
    input tuple was valid.
    """

    _SWAP = {"greatest": "least", "least": "greatest"}

    def _rewrite_join(self, plan, left: _Rewritten, right: _Rewritten) -> _Rewritten:
        rewritten = super()._rewrite_join(plan, left, right)
        projection = rewritten.plan
        assert isinstance(projection, Projection)
        columns = tuple(
            (
                FunctionCall(self._SWAP[expr.name], expr.args)
                if isinstance(expr, FunctionCall) and expr.name in self._SWAP
                else expr,
                name,
            )
            for expr, name in projection.columns
        )
        return _Rewritten(Projection(projection.child, columns), rewritten.data_schema)


class NoFinalCoalesceRewriter(SnapshotRewriter):
    """REWR without its final coalesce: every snapshot is right, but the rows
    are not the unique coalesced encoding (Definition 6.3)."""

    def rewrite(self, plan: Operator) -> Operator:
        return super().rewrite(plan).child


#: Name -> mutant class, for parameterized mutation tests.
MUTATIONS: Dict[str, Type[SnapshotRewriter]] = {
    "difference-without-split": BrokenDifferenceRewriter,
    "distinct-without-split": BrokenDistinctRewriter,
    "join-period-union": BrokenJoinPeriodRewriter,
    "no-final-coalesce": NoFinalCoalesceRewriter,
}
