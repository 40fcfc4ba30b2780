"""repro.planner: schema-aware logical plan optimisation.

It provides:

* **static schema inference** (:mod:`repro.planner.schema`) for every
  operator of the logical algebra *including* the rewriter's physical
  temporal operators (coalesce, split, fused temporal aggregation, the
  monus sweep), whose
  output schemas are derivable from their child schemas plus the period
  attributes.  Operators outside the core set plug in through the
  ``planner_schema`` / ``planner_selection_pushdown`` hooks on
  :class:`~repro.algebra.operators.Operator`.
* **rewrite rules** (:mod:`repro.planner.rules`): selection push-down
  through projections, renames, unions, bag difference, joins (single-side
  conjuncts move into the inputs, cross-side conjuncts fold into the join
  predicate), aggregation and the temporal extension operators, plus
  projection simplification (adjacent collapse, identity elimination,
  pushing through coalesce/split).  The rules never look at the data, and
  nothing here estimates cardinalities: the one physical choice left to
  the middleware, the SQL compiler's ``CROSS JOIN`` order, is read off
  base row counts (:mod:`repro.backends.sqlcompile`).

The rules matter because the snapshot rewriting (Fig. 4 of the paper)
produces deeply nested plans whose hot joins carry the interval-overlap
predicate; the planner moves selections to the base tables and normalises
join predicates so the executor's sort-merge interval join (see
:mod:`repro.engine.executor`) can take over from the nested-loop fallback.
"""

from .rules import optimize, push_selections, split_conjuncts
from .schema import available_attributes, infer_schema

__all__ = [
    "optimize",
    "push_selections",
    "split_conjuncts",
    "available_attributes",
    "infer_schema",
]
