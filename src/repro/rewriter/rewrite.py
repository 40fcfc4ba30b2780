"""The query rewriting REWR (paper Fig. 4) with its Section 9 optimisations.

``SnapshotRewriter.rewrite`` turns a non-temporal logical plan -- to be
interpreted under snapshot semantics over SQL period relations -- into an
ordinary multiset plan over the PERIODENC encoding.  Every rewritten
sub-plan produces the sub-query's data attributes plus the canonical period
attributes ``t_begin`` / ``t_end``; the commutative diagram of Theorem 8.1
then guarantees that decoding the executed result yields the logical-model
(period K-relation) answer.

Both of the paper's Section 9 optimisations are always on: one final
coalesce (Lemma 6.1), and pre-aggregation fused with the split step
(:class:`TemporalAggregateOperator`).  The same idea serves bag difference
and distinct: each is the pointwise monus of step functions, evaluated by
one sweep (:class:`MonusOperator`) instead of aligning both inputs with
splits; the sweep's output is already coalesced, so the final coalesce
passes a plan rooted in one through.  The ablation's unoptimised variants
and the native baselines are subclasses that override rule methods
(:mod:`repro.baselines.rewriters`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..algebra.expressions import (
    Attribute,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    and_,
)
from ..algebra.operators import (
    AggregateSpec,
    Aggregation,
    AlgebraError,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from ..engine.catalog import DEFAULT_PERIOD, Database
from ..temporal.timedomain import TimeDomain
from .operators import CoalesceOperator, MonusOperator, TemporalAggregateOperator
from .periodenc import T_BEGIN, T_END

__all__ = ["SnapshotRewriter", "RewriteError"]


class RewriteError(AlgebraError):
    """Raised when a snapshot query cannot be rewritten."""


@dataclass(frozen=True)
class _Rewritten:
    """A rewritten sub-plan together with its data-attribute schema."""

    plan: Operator
    data_schema: Tuple[str, ...]


#: One rewrite call's memo: ``id(input)`` -> (input, its rewriting).
_Memo = Dict[int, Tuple[Operator, _Rewritten]]


class SnapshotRewriter:
    """Rewrites snapshot-semantics plans to plans over period tables."""

    def __init__(self, database: Database, domain: TimeDomain) -> None:
        self.database = database
        self.domain = domain

    # -- public API -----------------------------------------------------------------------------

    def rewrite(self, plan: Operator) -> Operator:
        """REWR(plan): the rewritten plan under its one final coalesce."""
        return CoalesceOperator(self._rewrite(plan, {}).plan)

    # -- recursive rules (Fig. 4) ----------------------------------------------------------------------

    def _rewrite(self, plan: Operator, memo: _Memo) -> _Rewritten:
        """REWR of one sub-plan; each rule receives its children rewritten.

        ``memo`` belongs to one :meth:`rewrite` call (the rewriter itself is
        shared between threads): an input object met twice is rewritten
        once, so the output shares what the input shared.  It holds the
        input too, so an ``id()`` is not reused while the call runs.
        """
        done = memo.get(id(plan))
        if done is not None:
            return done[1]
        rule = self._rule(plan)
        children = [self._rewrite(child, memo) for child in plan.children()]
        rewritten = rule(plan, *children)
        memo[id(plan)] = (plan, rewritten)
        return rewritten

    def _rule(self, plan: Operator) -> Callable[..., _Rewritten]:
        if isinstance(plan, RelationAccess):
            return self._rewrite_relation
        if isinstance(plan, ConstantRelation):
            return self._rewrite_constant
        if isinstance(plan, Selection):
            return self._rewrite_selection
        if isinstance(plan, Projection):
            return self._rewrite_projection
        if isinstance(plan, Rename):
            return self._rewrite_rename
        if isinstance(plan, Join):
            return self._rewrite_join
        if isinstance(plan, Union):
            return self._rewrite_union
        if isinstance(plan, Difference):
            return self._rewrite_difference
        if isinstance(plan, Aggregation):
            return self._rewrite_aggregation
        if isinstance(plan, Distinct):
            return self._rewrite_distinct
        raise RewriteError(f"cannot rewrite operator {type(plan).__name__}")

    # -- leaves ----------------------------------------------------------------------------------------

    def _rewrite_relation(self, plan: RelationAccess) -> _Rewritten:
        if plan.name not in self.database:
            raise RewriteError(f"unknown period relation {plan.name!r}")
        table = self.database.table(plan.name)
        period = plan.period or self.database.period_of(plan.name) or DEFAULT_PERIOD
        begin_attr, end_attr = period
        for attribute in period:
            if not table.has_attribute(attribute):
                raise RewriteError(
                    f"period attribute {attribute!r} missing from table {plan.name!r}"
                )
        data_schema = tuple(a for a in table.schema if a not in period)
        access: Operator = RelationAccess(plan.name)
        if period != (T_BEGIN, T_END):
            access = Rename(access, ((begin_attr, T_BEGIN), (end_attr, T_END)))
        # Normalise attribute order to data attributes followed by the period.
        access = Projection(
            access,
            tuple((Attribute(a), a) for a in data_schema + (T_BEGIN, T_END)),
        )
        return _Rewritten(access, data_schema)

    def _rewrite_constant(self, plan: ConstantRelation) -> _Rewritten:
        # Constant rows are valid over the whole time domain.
        tmin, tmax = self.domain.universe()
        rows = tuple(row + (tmin, tmax) for row in plan.rows)
        constant = ConstantRelation(tuple(plan.schema) + (T_BEGIN, T_END), rows)
        return _Rewritten(constant, tuple(plan.schema))

    # -- unary operators -----------------------------------------------------------------------------------

    def _rewrite_selection(self, plan: Selection, child: _Rewritten) -> _Rewritten:
        return _Rewritten(Selection(child.plan, plan.predicate), child.data_schema)

    def _rewrite_projection(self, plan: Projection, child: _Rewritten) -> _Rewritten:
        columns = tuple(plan.columns) + (
            (Attribute(T_BEGIN), T_BEGIN),
            (Attribute(T_END), T_END),
        )
        return _Rewritten(Projection(child.plan, columns), plan.output_names)

    def _rewrite_rename(self, plan: Rename, child: _Rewritten) -> _Rewritten:
        renames = dict(plan.renames)
        if T_BEGIN in renames or T_END in renames:
            raise RewriteError("cannot rename the period attributes of a snapshot query")
        schema = tuple(renames.get(a, a) for a in child.data_schema)
        return _Rewritten(Rename(child.plan, plan.renames), schema)

    def _rewrite_distinct(self, plan: Distinct, child: _Rewritten) -> _Rewritten:
        # Per-snapshot duplicate elimination is the pointwise min(k, 1).
        return _Rewritten(MonusOperator(child.plan), child.data_schema)

    # -- binary operators --------------------------------------------------------------------------------------

    def _rewrite_join(self, plan: Join, left: _Rewritten, right: _Rewritten) -> _Rewritten:
        overlap = set(left.data_schema) & set(right.data_schema)
        if overlap:
            raise RewriteError(
                f"join inputs share attributes {sorted(overlap)}; rename first"
            )
        left_begin, left_end = "__l_begin", "__l_end"
        right_begin, right_end = "__r_begin", "__r_end"
        left_plan = Rename(left.plan, ((T_BEGIN, left_begin), (T_END, left_end)))
        right_plan = Rename(right.plan, ((T_BEGIN, right_begin), (T_END, right_end)))

        overlaps = and_(
            Comparison("<", Attribute(left_begin), Attribute(right_end)),
            Comparison("<", Attribute(right_begin), Attribute(left_end)),
        )
        predicate = overlaps if plan.predicate is None else and_(plan.predicate, overlaps)
        joined = Join(left_plan, right_plan, predicate)

        data_schema = left.data_schema + right.data_schema
        columns = tuple((Attribute(a), a) for a in data_schema) + (
            (
                FunctionCall("greatest", (Attribute(left_begin), Attribute(right_begin))),
                T_BEGIN,
            ),
            (
                FunctionCall("least", (Attribute(left_end), Attribute(right_end))),
                T_END,
            ),
        )
        return _Rewritten(Projection(joined, columns), data_schema)

    def _rewrite_union(self, plan: Union, left: _Rewritten, right: _Rewritten) -> _Rewritten:
        self._check_union_compatible(left, right)
        right_plan = self._align_schema(right, left.data_schema)
        return _Rewritten(Union(left.plan, right_plan), left.data_schema)

    def _rewrite_difference(
        self, plan: Difference, left: _Rewritten, right: _Rewritten
    ) -> _Rewritten:
        # Per-snapshot bag difference is the pointwise monus max(l - r, 0).
        self._check_union_compatible(left, right)
        right_plan = self._align_schema(right, left.data_schema)
        return _Rewritten(MonusOperator(left.plan, right_plan), left.data_schema)

    # -- aggregation -------------------------------------------------------------------------------------------------

    def _rewrite_aggregation(self, plan: Aggregation, child: _Rewritten) -> _Rewritten:
        unknown = set(plan.group_by) - set(child.data_schema)
        if unknown:
            raise RewriteError(f"unknown group-by attributes {sorted(unknown)}")

        # Normalise the aggregation input: group-by attributes, one column
        # per aggregate argument (count(*) becomes count over a constant 1,
        # Fig. 4's count(*) preprocessing), and the period attributes.
        argument_names = tuple(f"__agg_arg_{i}" for i in range(len(plan.aggregates)))
        columns: List[Tuple[Expression, str]] = [
            (Attribute(a), a) for a in plan.group_by
        ]
        for spec, name in zip(plan.aggregates, argument_names):
            argument = Literal(1) if spec.argument is None else spec.argument
            columns.append((argument, name))
        columns.append((Attribute(T_BEGIN), T_BEGIN))
        columns.append((Attribute(T_END), T_END))
        prepared: Operator = Projection(child.plan, tuple(columns))
        prepared_schema = tuple(plan.group_by) + argument_names

        if not plan.group_by:
            prepared = self._cover_gaps(prepared, prepared_schema)

        specs = tuple(
            AggregateSpec(spec.func, Attribute(name), spec.alias)
            for spec, name in zip(plan.aggregates, argument_names)
        )
        output_schema = tuple(plan.group_by) + tuple(s.alias for s in plan.aggregates)
        return _Rewritten(self._aggregate(prepared, tuple(plan.group_by), specs), output_schema)

    def _cover_gaps(self, prepared: Operator, schema: Tuple[str, ...]) -> Operator:
        """An ungrouped aggregation's input plus a neutral row spanning the whole time domain.

        The neutral row makes every gap of the input a segment of its own,
        so ``count(*)`` reads 0 there (the aggregation-gap bug's fix).
        """
        tmin, tmax = self.domain.universe()
        neutral = ConstantRelation(
            schema + (T_BEGIN, T_END), ((tuple([None] * len(schema)) + (tmin, tmax)),)
        )
        return Union(prepared, neutral)

    def _aggregate(
        self, prepared: Operator, group_by: Tuple[str, ...], specs: Tuple[AggregateSpec, ...]
    ) -> Operator:
        """Snapshot aggregation of the prepared input: pre-aggregation fused with the split."""
        return TemporalAggregateOperator(prepared, group_by, specs)

    # -- helpers ---------------------------------------------------------------------------------------------------------

    @staticmethod
    def _check_union_compatible(left: _Rewritten, right: _Rewritten) -> None:
        if len(left.data_schema) != len(right.data_schema):
            raise RewriteError(
                f"union-incompatible schemas {left.data_schema} and {right.data_schema}"
            )

    @staticmethod
    def _align_schema(rewritten: _Rewritten, target: Tuple[str, ...]) -> Operator:
        """Rename the data attributes of a rewritten plan positionally to ``target``."""
        if rewritten.data_schema == target:
            return rewritten.plan
        renames = tuple(
            (old, new)
            for old, new in zip(rewritten.data_schema, target)
            if old != new
        )
        return Rename(rewritten.plan, renames) if renames else rewritten.plan
