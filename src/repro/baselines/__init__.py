"""What the middleware is compared against: snapshot evaluators and unoptimised REWR variants."""

from .base import BaselineError, BaselineEvaluator
from .naive import NaiveSnapshotEvaluator
from .native import IntervalPreservationEvaluator, TemporalAlignmentEvaluator
from .rewriters import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter

__all__ = [
    "BaselineEvaluator",
    "BaselineError",
    "IntervalPreservationEvaluator",
    "TemporalAlignmentEvaluator",
    "NaiveSnapshotEvaluator",
    "PerOperatorCoalesceRewriter",
    "SplitThenAggregateRewriter",
]
