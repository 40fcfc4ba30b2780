"""REWR without one of the paper's Section 9 optimisations: the ablation's baselines.

Select one with ``QueryPipeline(rewriter_cls=...)``; each gives the same
coalesced result as :class:`~repro.rewriter.rewrite.SnapshotRewriter`.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..algebra.expressions import Attribute
from ..algebra.operators import AggregateSpec, Aggregation, Operator, Projection
from ..rewriter.operators import CoalesceOperator, SplitOperator
from ..rewriter.periodenc import T_BEGIN, T_END
from ..rewriter.rewrite import SnapshotRewriter, _Rewritten

__all__ = ["PerOperatorCoalesceRewriter", "SplitThenAggregateRewriter"]


class PerOperatorCoalesceRewriter(SnapshotRewriter):
    """Coalesce after every operator, where Lemma 6.1 needs only the last one."""

    def rewrite(self, plan: Operator) -> Operator:
        return self._rewrite(plan, {}).plan  # the root's coalesce is the final one

    def _rule(self, plan: Operator) -> Callable[..., _Rewritten]:
        rule = super()._rule(plan)

        def coalesced(node: Operator, *children: _Rewritten) -> _Rewritten:
            rewritten = rule(node, *children)
            return _Rewritten(CoalesceOperator(rewritten.plan), rewritten.data_schema)

        return coalesced


class SplitThenAggregateRewriter(SnapshotRewriter):
    """Materialise the split of the aggregation input, then aggregate it."""

    def _aggregate(
        self, prepared: Operator, group_by: Tuple[str, ...], specs: Tuple[AggregateSpec, ...]
    ) -> Operator:
        split = SplitOperator(prepared, prepared, group_by)
        grouped = Aggregation(split, group_by + (T_BEGIN, T_END), specs)
        # Reorder to the canonical data-attributes-then-period layout.
        output = group_by + tuple(spec.alias for spec in specs) + (T_BEGIN, T_END)
        return Projection(grouped, tuple((Attribute(a), a) for a in output))
