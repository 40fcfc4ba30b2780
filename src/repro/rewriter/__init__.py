"""Snapshot middleware: PERIODENC encoding, temporal physical operators,
the REWR rewriting and the :class:`QueryPipeline` that executes it."""

from .operators import CoalesceOperator, SplitOperator, TemporalAggregateOperator
from .periodenc import T_BEGIN, T_END, period_decode, period_encode, period_schema
from .pipeline import PlanCacheInfo, QueryPipeline
from .rewrite import RewriteError, SnapshotRewriter

__all__ = [
    "QueryPipeline",
    "PlanCacheInfo",
    "SnapshotRewriter",
    "RewriteError",
    "CoalesceOperator",
    "SplitOperator",
    "TemporalAggregateOperator",
    "period_encode",
    "period_decode",
    "period_schema",
    "T_BEGIN",
    "T_END",
]
