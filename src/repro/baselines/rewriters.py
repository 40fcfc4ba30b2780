"""REWR variants: the ablation's unoptimised rewriters and the native baselines.

Select one with ``QueryPipeline(rewriter_cls=...)``; each differs from
:class:`~repro.rewriter.rewrite.SnapshotRewriter` only in the rule methods it
overrides, so it runs on either backend like REWR does.

* :class:`PerOperatorCoalesceRewriter` and :class:`SplitThenAggregateRewriter`
  each leave out one of the paper's Section 9 optimisations (the ablation)
  and give the same coalesced result as REWR; the latter also spells bag
  difference and distinct with splits instead of REWR's monus sweep.
* :class:`IntervalPreservationRewriter` (ATSQL-style) and
  :class:`TemporalAlignmentRewriter` (PG-Nat-style) model the native
  approaches of the paper's Tables 1 and 3, bugs included: they are
  *not* snapshot-reducible on aggregation over gaps and on bag difference,
  and their results keep the intervals of their inputs.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..algebra.expressions import Attribute, Comparison, Expression, IsNull, and_, or_
from ..algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    Rename,
)
from ..engine.catalog import Database
from ..rewriter.operators import CoalesceOperator, SplitOperator
from ..rewriter.periodenc import T_BEGIN, T_END
from ..rewriter.pipeline import QueryPipeline
from ..rewriter.rewrite import SnapshotRewriter, _Rewritten
from ..temporal.timedomain import TimeDomain

__all__ = [
    "IntervalPreservationRewriter",
    "PerOperatorCoalesceRewriter",
    "SplitThenAggregateRewriter",
    "TemporalAlignmentEvaluator",
    "TemporalAlignmentRewriter",
]


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
    """Materialise the splits, then run the non-temporal operator over them.

    Aggregation splits its input and groups by the period too; difference
    and distinct align both inputs' intervals with splits and run ordinary
    ``EXCEPT ALL`` and ``DISTINCT``, left to the final coalesce to merge.
    """

    def _rewrite_distinct(self, plan: Distinct, child: _Rewritten) -> _Rewritten:
        # Align intervals of value-equivalent rows, then ordinary DISTINCT is
        # per-snapshot duplicate elimination.
        split = SplitOperator(child.plan, child.plan, child.data_schema)
        return _Rewritten(Distinct(split), child.data_schema)

    def _rewrite_difference(
        self, plan: Difference, left: _Rewritten, right: _Rewritten
    ) -> _Rewritten:
        self._check_union_compatible(left, right)
        right_plan = self._align_schema(right, left.data_schema)
        schema = left.data_schema
        left_split = SplitOperator(left.plan, right_plan, schema)
        right_split = SplitOperator(right_plan, left.plan, schema)
        return _Rewritten(Difference(left_split, right_split), schema)

    def _aggregate(
        self, prepared: Operator, group_by: Tuple[str, ...], specs: Tuple[AggregateSpec, ...]
    ) -> Operator:
        split = SplitOperator(prepared, prepared, group_by)
        grouped = Aggregation(split, group_by + (T_BEGIN, T_END), specs)
        # Reorder to the canonical data-attributes-then-period layout.
        output = group_by + tuple(spec.alias for spec in specs) + (T_BEGIN, T_END)
        return Projection(grouped, tuple((Attribute(a), a) for a in output))


class IntervalPreservationRewriter(SplitThenAggregateRewriter):
    """ATSQL-style interval preservation: the AG and BD bugs, no unique encoding.

    Selection, projection, join and union are REWR's.  The rest differs:
    no final coalesce, so a result keeps its inputs' intervals; distinct
    drops only rows equal in their periods too; an ungrouped aggregation
    gets no neutral row, so a gap in the input is a gap in the output
    instead of ``count = 0`` (the AG bug); and difference removes a piece of
    a left row wherever *any* value-equal right row covers it, ignoring
    multiplicities, like ``NOT EXISTS`` (the BD bug).
    """

    def rewrite(self, plan: Operator) -> Operator:
        return self._rewrite(plan, {}).plan

    def _rewrite_distinct(self, plan: Distinct, child: _Rewritten) -> _Rewritten:
        return _Rewritten(Distinct(child.plan), child.data_schema)

    def _cover_gaps(self, prepared: Operator, schema: Tuple[str, ...]) -> Operator:
        return prepared

    def _rewrite_difference(
        self, plan: Difference, left: _Rewritten, right: _Rewritten
    ) -> _Rewritten:
        self._check_union_compatible(left, right)
        schema = left.data_schema
        blockers = self._align_schema(right, schema)
        # Cut each left row at its value-equal blockers' end points; then a
        # piece is covered by a blocker entirely or not at all.
        pieces = SplitOperator(left.plan, blockers, schema)
        renamed = {a: f"__r_{a}" for a in schema + (T_BEGIN, T_END)}
        r_begin, r_end = Attribute(renamed[T_BEGIN]), Attribute(renamed[T_END])
        begin, end = Attribute(T_BEGIN), Attribute(T_END)
        covered = Join(
            pieces,
            Rename(blockers, tuple(renamed.items())),
            and_(
                *(_null_safe_equal(Attribute(a), Attribute(renamed[a])) for a in schema),
                # The overlap lets the engine run its interval join; the
                # containment says the blocker covers the whole piece.
                Comparison("<", begin, r_end),
                Comparison("<", r_begin, end),
                Comparison("<=", r_begin, begin),
                Comparison("<=", end, r_end),
            ),
        )
        columns = tuple((Attribute(a), a) for a in schema + (T_BEGIN, T_END))
        return _Rewritten(Difference(pieces, Projection(covered, columns)), schema)


class TemporalAlignmentRewriter(IntervalPreservationRewriter):
    """PG-Nat-style temporal alignment: globally aligned joins, set-semantics difference.

    Inherits the AG bug and the missing final coalesce.  A join aligns
    (splits) each input at every end point of both inputs, regardless of
    the join condition, before REWR's overlap join; the extra fragments are
    the overhead the paper measures for native joins.  Difference aligns
    both inputs the same way and keeps each left fragment once if no right
    fragment equals it, which is not snapshot-reducible for bags.
    """

    def _rewrite_join(self, plan: Join, left: _Rewritten, right: _Rewritten) -> _Rewritten:
        return super()._rewrite_join(
            plan,
            _Rewritten(SplitOperator(left.plan, right.plan, ()), left.data_schema),
            _Rewritten(SplitOperator(right.plan, left.plan, ()), right.data_schema),
        )

    def _rewrite_difference(
        self, plan: Difference, left: _Rewritten, right: _Rewritten
    ) -> _Rewritten:
        self._check_union_compatible(left, right)
        right_plan = self._align_schema(right, left.data_schema)
        aligned_left = Distinct(SplitOperator(left.plan, right_plan, ()))
        aligned_right = SplitOperator(right_plan, left.plan, ())
        return _Rewritten(Difference(aligned_left, aligned_right), left.data_schema)


def TemporalAlignmentEvaluator(database: Database, domain: TimeDomain) -> QueryPipeline:
    """A pipeline running :class:`TemporalAlignmentRewriter` (the Nat of Table 3).

    Kept only for the frozen benchmark suite (``benchmarks/suite/probes.py``
    calls ``TemporalAlignmentEvaluator(database, domain).execute(plan)``);
    goes once the next ``benchmark`` change builds the pipeline itself.
    """
    return QueryPipeline(domain, database, rewriter_cls=TemporalAlignmentRewriter)


def _null_safe_equal(left: Attribute, right: Attribute) -> Expression:
    """``left = right``, with NULL equal to NULL (``IS NOT DISTINCT FROM``)."""
    return or_(Comparison("=", left, right), and_(IsNull(left), IsNull(right)))
