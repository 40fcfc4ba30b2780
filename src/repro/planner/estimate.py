"""Cardinality estimates over :mod:`repro.stats` interval statistics.

:func:`estimate_plan` has two readers: the SQL compiler, which pins each
join's ``CROSS JOIN`` order so the input estimated larger is the outer
loop (:mod:`repro.backends.sqlcompile`), and ``explain()``, which prints
``estimated_rows`` beside the observed ``actual_rows`` of every node
(:mod:`repro.rewriter.explain`).  Neither changes which plan the engine
runs: the planner is the syntactic rule set of :mod:`repro.planner.rules`.

Estimation follows the classic System-R recipe adapted to interval data:
equality selectivity is ``1/ndv`` from the distinct counts, range
selectivity interpolates the equi-width endpoint histograms, interval-join
output is ``|L| * |R| * overlap_density``, and coalesce/split fan-out is
derived from the overlap density.  Every formula degrades to a fixed
textbook default (and a base table to its actual row count) when a table
was never analyzed -- the estimates are just worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, MutableMapping, Optional, Sequence, Tuple

from ..algebra.expressions import (
    Attribute,
    BooleanOp,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
)
from ..algebra.operators import (
    Aggregation,
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
from ..engine.executor import _extract_interval_pattern, _split_join_predicate
from .schema import infer_schema

__all__ = ["estimate_plan"]

#: Textbook fallback selectivities when no statistics are available.
_DEFAULT_ROWS = 1000.0
_EQ_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 1.0 / 3.0
_OVERLAP_SELECTIVITY = 0.3
_NULL_FRACTION = 0.05

#: Cap on the estimated split fan-out (pieces per input interval).
_SPLIT_FANOUT_CAP = 8.0

# -- schema shims ----------------------------------------------------------------------------------


class _SchemaView:
    """Duck-typed stand-in for a Table: just enough for the join helpers."""

    __slots__ = ("schema", "_index")

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)
        self._index = {name: i for i, name in enumerate(self.schema)}

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def column_index(self, name: str) -> int:
        return self._index[name]


# -- cardinality estimation ------------------------------------------------------------------------


@dataclass
class _AttrInfo:
    """What the estimator knows about one attribute (all optional)."""

    distinct: Optional[float] = None
    null_fraction: float = 0.0
    histogram: Optional[Any] = None  # EndpointHistogram of a period endpoint


@dataclass
class _Estimate:
    """Estimated output of one plan node."""

    rows: float
    attrs: Dict[str, _AttrInfo] = field(default_factory=dict)
    #: Representative overlap density of the base tables feeding this node
    #: (None until a period table with statistics is seen).
    density: Optional[float] = None


def _merge_attrs(
    left: Dict[str, _AttrInfo], right: Dict[str, _AttrInfo]
) -> Dict[str, _AttrInfo]:
    merged = dict(left)
    merged.update(right)
    return merged


def _combine_density(left: Optional[float], right: Optional[float]) -> Optional[float]:
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


def _estimate(
    plan: Operator, database: Optional[Any], out: MutableMapping[int, float]
) -> _Estimate:
    estimate = _estimate_node(plan, database, out)
    out[id(plan)] = estimate.rows
    return estimate


def _estimate_node(
    plan: Operator, database: Optional[Any], out: MutableMapping[int, float]
) -> _Estimate:
    if isinstance(plan, RelationAccess):
        return _estimate_relation(plan, database)
    if isinstance(plan, ConstantRelation):
        return _Estimate(rows=float(len(plan.rows)))
    if isinstance(plan, Selection):
        child = _estimate(plan.child, database, out)
        selectivity = _selectivity(plan.predicate, child.attrs)
        return _Estimate(
            rows=child.rows * selectivity,
            attrs=child.attrs,
            density=child.density,
        )
    if isinstance(plan, Projection):
        child = _estimate(plan.child, database, out)
        attrs: Dict[str, _AttrInfo] = {}
        for expression, name in plan.columns:
            if isinstance(expression, Attribute) and expression.name in child.attrs:
                attrs[name] = child.attrs[expression.name]
        return _Estimate(
            rows=child.rows,
            attrs=attrs,
            density=child.density,
        )
    if isinstance(plan, Rename):
        child = _estimate(plan.child, database, out)
        mapping = dict(plan.renames)
        attrs = {mapping.get(name, name): info for name, info in child.attrs.items()}
        return _Estimate(
            rows=child.rows,
            attrs=attrs,
            density=child.density,
        )
    if isinstance(plan, Join):
        return _estimate_join(plan, database, out)
    if isinstance(plan, Union):
        left = _estimate(plan.left, database, out)
        right = _estimate(plan.right, database, out)
        return _Estimate(
            rows=left.rows + right.rows,
            attrs=_merge_attrs(right.attrs, left.attrs),
            density=_combine_density(left.density, right.density),
        )
    if isinstance(plan, Difference):
        left = _estimate(plan.left, database, out)
        _estimate(plan.right, database, out)
        return left
    if isinstance(plan, Aggregation):
        child = _estimate(plan.child, database, out)
        if not plan.group_by:
            return _Estimate(rows=1.0)
        groups = 1.0
        for name in plan.group_by:
            info = child.attrs.get(name)
            groups *= info.distinct if info and info.distinct else 10.0
        rows = max(1.0, min(child.rows, groups))
        attrs = {
            name: child.attrs[name] for name in plan.group_by if name in child.attrs
        }
        return _Estimate(rows=rows, attrs=attrs)
    if isinstance(plan, Distinct):
        child = _estimate(plan.child, database, out)
        distincts = [info.distinct for info in child.attrs.values() if info.distinct]
        if distincts and len(distincts) == len(child.attrs) and child.attrs:
            product = 1.0
            for value in distincts:
                product *= value
            rows = max(1.0, min(child.rows, product))
        else:
            rows = max(1.0, child.rows * 0.9)
        return _Estimate(
            rows=rows,
            attrs=child.attrs,
            density=child.density,
        )
    # Extension operators (the rewriter's physical temporal operators) are
    # recognised structurally -- the planner stays import-free of them.
    children = [_estimate(child, database, out) for child in plan.children()]
    if not children:
        return _Estimate(rows=_DEFAULT_ROWS)
    child = children[0]
    kind = type(plan).__name__
    if kind == "CoalesceOperator":
        # Coalescing merges value-equivalent adjacent/overlapping intervals:
        # the denser the data, the fewer survive.
        density = child.density if child.density is not None else _OVERLAP_SELECTIVITY
        retention = min(1.0, max(0.25, 1.0 - density))
        return _Estimate(
            rows=max(1.0, child.rows * retention),
            attrs=child.attrs,
            density=child.density,
        )
    if kind in ("SplitOperator", "TemporalAggregateOperator"):
        # Splitting cuts each interval at the endpoints of its overlapping
        # partners; the expected partner count is density * rows.
        density = child.density if child.density is not None else _OVERLAP_SELECTIVITY
        fanout = 1.0 + min(2.0 * density * child.rows, _SPLIT_FANOUT_CAP - 1.0)
        return _Estimate(
            rows=child.rows * fanout,
            attrs=child.attrs,
            density=child.density,
        )
    return _Estimate(
        rows=child.rows,
        attrs=child.attrs,
        density=child.density,
    )


def _estimate_relation(plan: RelationAccess, database: Optional[Any]) -> _Estimate:
    statistics = database.statistics_for(plan.name) if database is not None else None
    if statistics is None:
        rows = _DEFAULT_ROWS
        if database is not None and plan.name in database:
            rows = float(len(database.table(plan.name).rows))
        return _Estimate(rows=rows)
    attrs: Dict[str, _AttrInfo] = {
        name: _AttrInfo(
            distinct=float(column.distinct) if column.distinct else None,
            null_fraction=column.null_fraction,
        )
        for name, column in statistics.columns.items()
    }
    period = plan.period or statistics.period
    if period is not None:
        begin, end = period
        if begin in attrs:
            attrs[begin].histogram = statistics.begin_histogram
        if end in attrs:
            attrs[end].histogram = statistics.end_histogram
    return _Estimate(
        rows=float(statistics.row_count),
        attrs=attrs,
        density=statistics.overlap_density if statistics.period else None,
    )


def _estimate_join(
    plan: Join, database: Optional[Any], out: MutableMapping[int, float]
) -> _Estimate:
    left = _estimate(plan.left, database, out)
    right = _estimate(plan.right, database, out)
    merged = _merge_attrs(left.attrs, right.attrs)
    combined = _Estimate(
        rows=left.rows * right.rows,
        attrs=merged,
        density=_combine_density(left.density, right.density),
    )
    if plan.predicate is None:
        return combined

    analysis = _analyse_join(plan, database)
    if analysis is None:
        # Schemas not statically resolvable: treat the whole predicate as a
        # generic filter over the merged attribute knowledge.
        combined.rows *= _selectivity(plan.predicate, merged)
        return combined

    keys, pattern, leftover, left_schema, right_schema = analysis
    selectivity = 1.0
    for left_index, right_index in keys:
        left_info = left.attrs.get(left_schema[left_index])
        right_info = right.attrs.get(right_schema[right_index])
        ndv = max(
            left_info.distinct if left_info and left_info.distinct else 0.0,
            right_info.distinct if right_info and right_info.distinct else 0.0,
        )
        selectivity *= 1.0 / ndv if ndv >= 1.0 else _EQ_SELECTIVITY
    if pattern is not None:
        density = combined.density
        selectivity *= density if density is not None else _OVERLAP_SELECTIVITY
    for conjunct in leftover:
        selectivity *= _selectivity(conjunct, merged)
    combined.rows *= min(1.0, selectivity)
    return combined


def _analyse_join(
    plan: Join, database: Optional[Any]
) -> Optional[
    Tuple[
        List[Tuple[int, int]],
        Optional[Any],
        List[Expression],
        Tuple[str, ...],
        Tuple[str, ...],
    ]
]:
    """Classify a join predicate: equi keys, overlap pattern, leftovers."""
    left_schema = infer_schema(plan.left, database)
    right_schema = infer_schema(plan.right, database)
    if left_schema is None or right_schema is None:
        return None
    left_view = _SchemaView(left_schema)
    right_view = _SchemaView(right_schema)
    keys, residual = _split_join_predicate(plan.predicate, left_view, right_view)
    pattern, leftover = _extract_interval_pattern(residual, left_view, right_view)
    return keys, pattern, leftover, left_schema, right_schema


def _selectivity(expression: Expression, attrs: Dict[str, _AttrInfo]) -> float:
    if isinstance(expression, BooleanOp):
        parts = [_selectivity(operand, attrs) for operand in expression.operands]
        if expression.op == "and":
            product = 1.0
            for part in parts:
                product *= part
            return product
        result = 0.0
        for part in parts:
            result = result + part - result * part
        return result
    if isinstance(expression, Not):
        return max(0.0, 1.0 - _selectivity(expression.operand, attrs))
    if isinstance(expression, IsNull):
        fraction = _NULL_FRACTION
        if isinstance(expression.operand, Attribute):
            info = attrs.get(expression.operand.name)
            if info is not None:
                fraction = info.null_fraction
        return max(0.0, 1.0 - fraction) if expression.negated else fraction
    if isinstance(expression, Comparison):
        return _comparison_selectivity(expression, attrs)
    return 0.5


def _comparison_selectivity(
    comparison: Comparison, attrs: Dict[str, _AttrInfo]
) -> float:
    lhs, rhs = comparison.left, comparison.right
    op = comparison.op
    if op in ("=", "!=", "<>"):
        ndv = 0.0
        for side in (lhs, rhs):
            if isinstance(side, Attribute):
                info = attrs.get(side.name)
                if info and info.distinct:
                    ndv = max(ndv, info.distinct)
        equality = 1.0 / ndv if ndv >= 1.0 else _EQ_SELECTIVITY
        return equality if op == "=" else max(0.0, 1.0 - equality)
    if op in ("<", "<=", ">", ">="):
        # Attribute vs literal with a histogram on the attribute: the
        # equi-width estimate.  Normalise so the attribute is on the left.
        attribute, literal, flipped = None, None, False
        if isinstance(lhs, Attribute) and isinstance(rhs, Literal):
            attribute, literal = lhs, rhs
        elif isinstance(rhs, Attribute) and isinstance(lhs, Literal):
            attribute, literal, flipped = rhs, lhs, True
        if attribute is not None and literal is not None and literal.value is not None:
            info = attrs.get(attribute.name)
            if info is not None and info.histogram is not None:
                below = info.histogram.fraction_below(float(literal.value))
                less_than = below if not flipped else 1.0 - below
                if op in ("<", "<="):
                    return less_than
                return max(0.0, 1.0 - less_than)
        return _RANGE_SELECTIVITY
    return 0.5


def estimate_plan(
    plan: Operator, database: Optional[Any] = None
) -> Dict[int, float]:
    """Per-node cardinality estimates, keyed by ``id(node)``.

    The id-keyed mapping feeds ``explain()``: estimates computed over the
    exact plan object that executes line up node-for-node with the
    observed actual row counts.
    """
    out: Dict[int, float] = {}
    _estimate(plan, database, out)
    return out
