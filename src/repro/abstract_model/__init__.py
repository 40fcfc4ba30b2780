"""Abstract model: snapshot K-relations and point-wise snapshot semantics."""

from .evaluator import evaluate
from .krelation import KRelation, aggregate_rows, aggregate_values
from .snapshot import SnapshotDatabase, SnapshotKRelation, evaluate_snapshot_query

__all__ = [
    "KRelation",
    "aggregate_rows",
    "aggregate_values",
    "evaluate",
    "SnapshotKRelation",
    "SnapshotDatabase",
    "evaluate_snapshot_query",
]
