"""JSON codec for logical plans and scalar expressions.

The wire protocol ships *logical* operator trees -- exactly the plans the
fluent API compiles to -- as plain JSON, so a ``repro://`` session's query
is structurally identical to the local plan on arrival and hits the server's shared rewritten-plan cache
across clients (the structural hash of the decoded plan equals the hash of
a locally built one).

Only the public :mod:`repro.algebra` node set is encodable: the rewriter's
physical operators never cross the wire (rewriting happens server-side,
behind the plan cache).  Unknown node types raise
:class:`~repro.errors.ProtocolError` on either side.

Value fidelity: literals and constant rows are JSON scalars (int, float,
str, bool, ``None``); row tuples are encoded as JSON arrays and restored to
tuples on decode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..algebra.expressions import (
    Arithmetic,
    Attribute,
    BooleanOp,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    Not,
)
from ..algebra.operators import (
    AggregateSpec,
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
from ..errors import ProtocolError

__all__ = [
    "expression_to_json",
    "expression_from_json",
    "plan_to_json",
    "plan_from_json",
]


# -- expressions ----------------------------------------------------------------------------------


def expression_to_json(expression: Optional[Expression]) -> Optional[Dict[str, Any]]:
    """Encode an expression tree (``None`` stays ``None``)."""
    if expression is None:
        return None
    if isinstance(expression, Attribute):
        return {"e": "attr", "name": expression.name}
    if isinstance(expression, Literal):
        return {"e": "lit", "value": expression.value}
    if isinstance(expression, Comparison):
        return {
            "e": "cmp",
            "op": expression.op,
            "left": expression_to_json(expression.left),
            "right": expression_to_json(expression.right),
        }
    if isinstance(expression, BooleanOp):
        return {
            "e": "bool",
            "op": expression.op,
            "operands": [expression_to_json(o) for o in expression.operands],
        }
    if isinstance(expression, Not):
        return {"e": "not", "operand": expression_to_json(expression.operand)}
    if isinstance(expression, Arithmetic):
        return {
            "e": "arith",
            "op": expression.op,
            "left": expression_to_json(expression.left),
            "right": expression_to_json(expression.right),
        }
    if isinstance(expression, FunctionCall):
        return {
            "e": "call",
            "name": expression.name,
            "args": [expression_to_json(a) for a in expression.args],
        }
    if isinstance(expression, IsNull):
        return {
            "e": "isnull",
            "operand": expression_to_json(expression.operand),
            "negated": expression.negated,
        }
    raise ProtocolError(
        f"expression node {type(expression).__name__} is not wire-encodable"
    )


def expression_from_json(payload: Optional[Dict[str, Any]]) -> Optional[Expression]:
    """Decode an expression tree (``None`` stays ``None``)."""
    if payload is None:
        return None
    if not isinstance(payload, dict) or "e" not in payload:
        raise ProtocolError(f"malformed expression payload: {payload!r}")
    kind = payload["e"]
    try:
        if kind == "attr":
            return Attribute(payload["name"])
        if kind == "lit":
            return Literal(payload["value"])
        if kind == "cmp":
            return Comparison(
                payload["op"],
                expression_from_json(payload["left"]),
                expression_from_json(payload["right"]),
            )
        if kind == "bool":
            return BooleanOp(
                payload["op"],
                tuple(expression_from_json(o) for o in payload["operands"]),
            )
        if kind == "not":
            return Not(expression_from_json(payload["operand"]))
        if kind == "arith":
            return Arithmetic(
                payload["op"],
                expression_from_json(payload["left"]),
                expression_from_json(payload["right"]),
            )
        if kind == "call":
            return FunctionCall(
                payload["name"],
                tuple(expression_from_json(a) for a in payload["args"]),
            )
        if kind == "isnull":
            return IsNull(
                expression_from_json(payload["operand"]),
                bool(payload.get("negated", False)),
            )
    except ProtocolError:
        raise
    except KeyError as exc:
        raise ProtocolError(
            f"expression payload {payload!r} is missing field {exc}"
        ) from exc
    raise ProtocolError(f"unknown expression kind {kind!r}")


# -- operators ------------------------------------------------------------------------------------


def _rows_to_json(rows: Tuple[Tuple[Any, ...], ...]) -> List[List[Any]]:
    return [list(row) for row in rows]


def _rows_from_json(rows: Any) -> Tuple[Tuple[Any, ...], ...]:
    if not isinstance(rows, list):
        raise ProtocolError(f"rows payload must be a list, got {rows!r}")
    return tuple(tuple(row) for row in rows)


def plan_to_json(plan: Operator) -> Dict[str, Any]:
    """Encode a logical operator tree."""
    if isinstance(plan, RelationAccess):
        return {
            "op": "relation",
            "name": plan.name,
            "alias": plan.alias,
            "period": list(plan.period) if plan.period is not None else None,
        }
    if isinstance(plan, ConstantRelation):
        return {
            "op": "constant",
            "schema": list(plan.schema),
            "rows": _rows_to_json(plan.rows),
        }
    if isinstance(plan, Selection):
        return {
            "op": "selection",
            "child": plan_to_json(plan.child),
            "predicate": expression_to_json(plan.predicate),
        }
    if isinstance(plan, Projection):
        return {
            "op": "projection",
            "child": plan_to_json(plan.child),
            "columns": [
                [expression_to_json(expression), name]
                for expression, name in plan.columns
            ],
        }
    if isinstance(plan, Rename):
        return {
            "op": "rename",
            "child": plan_to_json(plan.child),
            "renames": [list(pair) for pair in plan.renames],
        }
    if isinstance(plan, Join):
        return {
            "op": "join",
            "left": plan_to_json(plan.left),
            "right": plan_to_json(plan.right),
            "predicate": expression_to_json(plan.predicate),
        }
    if isinstance(plan, Union):
        return {
            "op": "union",
            "left": plan_to_json(plan.left),
            "right": plan_to_json(plan.right),
        }
    if isinstance(plan, Difference):
        return {
            "op": "difference",
            "left": plan_to_json(plan.left),
            "right": plan_to_json(plan.right),
        }
    if isinstance(plan, Aggregation):
        return {
            "op": "aggregation",
            "child": plan_to_json(plan.child),
            "group_by": list(plan.group_by),
            "aggregates": [
                {
                    "func": spec.func,
                    "argument": expression_to_json(spec.argument),
                    "alias": spec.alias,
                }
                for spec in plan.aggregates
            ],
        }
    if isinstance(plan, Distinct):
        return {"op": "distinct", "child": plan_to_json(plan.child)}
    raise ProtocolError(
        f"operator {type(plan).__name__} is not wire-encodable (only logical "
        f"RA^agg plans cross the wire; rewriting happens server-side)"
    )


def plan_from_json(payload: Any) -> Operator:
    """Decode a logical operator tree."""
    if not isinstance(payload, dict) or "op" not in payload:
        raise ProtocolError(f"malformed plan payload: {payload!r}")
    kind = payload["op"]
    try:
        if kind == "relation":
            period = payload.get("period")
            return RelationAccess(
                payload["name"],
                payload.get("alias"),
                tuple(period) if period is not None else None,
            )
        if kind == "constant":
            return ConstantRelation(
                tuple(payload["schema"]), _rows_from_json(payload["rows"])
            )
        if kind == "selection":
            return Selection(
                plan_from_json(payload["child"]),
                expression_from_json(payload["predicate"]),
            )
        if kind == "projection":
            return Projection(
                plan_from_json(payload["child"]),
                tuple(
                    (expression_from_json(expression), name)
                    for expression, name in payload["columns"]
                ),
            )
        if kind == "rename":
            return Rename(
                plan_from_json(payload["child"]),
                tuple((old, new) for old, new in payload["renames"]),
            )
        if kind == "join":
            return Join(
                plan_from_json(payload["left"]),
                plan_from_json(payload["right"]),
                expression_from_json(payload["predicate"]),
            )
        if kind == "union":
            return Union(
                plan_from_json(payload["left"]), plan_from_json(payload["right"])
            )
        if kind == "difference":
            return Difference(
                plan_from_json(payload["left"]), plan_from_json(payload["right"])
            )
        if kind == "aggregation":
            return Aggregation(
                plan_from_json(payload["child"]),
                tuple(payload["group_by"]),
                tuple(
                    AggregateSpec(
                        spec["func"],
                        expression_from_json(spec["argument"]),
                        spec["alias"],
                    )
                    for spec in payload["aggregates"]
                ),
            )
        if kind == "distinct":
            return Distinct(plan_from_json(payload["child"]))
    except ProtocolError:
        raise
    except KeyError as exc:
        raise ProtocolError(f"plan payload {payload!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed plan payload {payload!r}: {exc}") from exc
    raise ProtocolError(f"unknown plan operator {kind!r}")
