"""Snapshot middleware: PERIODENC encoding, temporal physical operators,
the REWR rewriting and the :class:`QueryPipeline` that executes it."""

from .operators import CoalesceOperator, MonusOperator, SplitOperator, TemporalAggregateOperator
from .periodenc import T_BEGIN, T_END, period_decode, period_encode, period_schema, timeslice_table
from .pipeline import PlanCacheInfo, QueryPipeline
from .rewrite import RewriteError, SnapshotRewriter

__all__ = [
    "QueryPipeline",
    "PlanCacheInfo",
    "SnapshotRewriter",
    "RewriteError",
    "CoalesceOperator",
    "MonusOperator",
    "SplitOperator",
    "TemporalAggregateOperator",
    "period_encode",
    "period_decode",
    "period_schema",
    "timeslice_table",
    "T_BEGIN",
    "T_END",
]
