"""What the middleware is compared against: the per-snapshot evaluator and REWR variants.

:class:`NaiveSnapshotEvaluator` is the abstract model evaluated point by
point.  Everything else is a :class:`~repro.rewriter.rewrite.SnapshotRewriter`
subclass (:mod:`repro.baselines.rewriters`) that ``QueryPipeline(rewriter_cls=...)``
runs on the engine or on SQLite: the Section 9 ablation's unoptimised
rewriters, and the native approaches of Tables 1 and 3.
"""

from .naive import NaiveSnapshotEvaluator
from .rewriters import (
    IntervalPreservationRewriter,
    PerOperatorCoalesceRewriter,
    SplitThenAggregateRewriter,
    TemporalAlignmentEvaluator,
    TemporalAlignmentRewriter,
)

__all__ = [
    "IntervalPreservationRewriter",
    "NaiveSnapshotEvaluator",
    "PerOperatorCoalesceRewriter",
    "SplitThenAggregateRewriter",
    "TemporalAlignmentEvaluator",
    "TemporalAlignmentRewriter",
]
