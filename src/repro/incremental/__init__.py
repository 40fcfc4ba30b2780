"""Incremental view maintenance over snapshot-rewritten plans.

Z-set deltas (the integer-semiring specialization of the abstract model's
K-relations) name the rows a write adds and removes; a view re-runs its
rewritten physical plan on the partitions those rows touch instead of
re-executing it whole.  See :mod:`repro.incremental.delta` for the delta
currency, :mod:`repro.incremental.partition` for how a plan's partition key
is read off the planner's push-down rules, and :mod:`repro.incremental.view`
for the view itself.

The front doors are ``session.materialize(relation, name=...)`` and
:meth:`repro.rewriter.pipeline.QueryPipeline.materialize`; catalog DML
(:meth:`repro.engine.catalog.Database.insert` / ``delete``) feeds
registered views automatically.
"""

from ..errors import IncrementalError
from .delta import Delta, ZSet, add_into, expand_rows, zset_diff, zset_of
from .view import MaterializedView

__all__ = [
    "Delta",
    "IncrementalError",
    "MaterializedView",
    "ZSet",
    "add_into",
    "expand_rows",
    "zset_diff",
    "zset_of",
]
