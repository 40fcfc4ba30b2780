"""Printing scalar expressions as SQL text (the SQL backend's front end).

Two printers, one per place an expression can stand in a statement:

* :func:`sql_expression` (*value context*: select lists, ``CASE`` arms,
  aggregate arguments, anything under ``NOT``) renders an
  :class:`~repro.algebra.expressions.Expression` as an SQL scalar whose
  value on any row equals :meth:`Expression.evaluate` on that row (Python
  booleans mapping to the SQL integers ``1``/``0``);
* :func:`sql_predicate` (*filter context*: ``WHERE``) renders a predicate
  that keeps exactly the rows on which ``evaluate`` is true.  A ``WHERE``
  drops a row on ``UNKNOWN`` just as it does on 0, and ``AND``/``OR`` are
  monotone, so a comparison reached only through ``AND``/``OR`` prints as
  plain ``a op b`` -- which is what lets the host's planner see equi-join
  keys and range bounds (index lookups, automatic indexes, reordering).

Both target the SQL-92 core plus ``CASE``, which SQLite, PostgreSQL and
DuckDB all share, so the same text is reusable by future backends.  Both
take a ``column`` callable that renders an attribute name as a column
reference (default: the quoted bare name) so a block with several ``FROM``
items can qualify them.

Matching the interpreter's semantics -- not ISO three-valued logic -- is the
contract here, because the differential tests pin the SQL backend to the
in-memory engine:

* comparisons involving ``NULL`` evaluate to *false* (the interpreter's
  simplification), so in value context every comparison is wrapped in an
  explicit NULL guard rather than left to SQL's ``UNKNOWN`` propagation
  (``NOT (a = b)`` must keep a row whose ``a`` is NULL);
* operands of ``NOT``/``AND``/``OR`` that are not already two-valued
  predicates are normalised through the same guard, so ``NOT x`` over a
  NULL or numeric attribute matches Python's ``not bool(x)``;
* ``/`` is float division like Python's, so the dividend is cast to
  ``REAL`` (SQLite would otherwise truncate integer division);
* ``least``/``greatest`` ignore ``NULL`` arguments (SQLite's scalar
  ``min``/``max`` would return ``NULL``), rendered as one ``CASE`` ladder;
* literals are rendered inline with proper escaping (single quotes doubled,
  no backslash escapes) so the emitted statement is self-contained and can
  be logged, EXPLAINed or re-run as-is.

Two deviations from the interpreter are accepted and documented rather than
papered over, because SQL expressions cannot raise: division by zero is
``NULL`` on SQL hosts where Python raises ``ZeroDivisionError``, and
``least``/``greatest`` over all-NULL arguments is ``NULL`` where Python
raises.  Python *string* truthiness in boolean context (``bool("abc")`` is
true, SQL coerces ``'abc'`` to 0) is likewise not reproducible in SQL;
boolean operands are expected to be predicates, numbers or NULL.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .expressions import (
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

__all__ = [
    "SQLPrintError",
    "quote_identifier",
    "sql_literal",
    "sql_expression",
    "sql_predicate",
]


class SQLPrintError(Exception):
    """Raised when an expression or value has no SQL rendering."""


def quote_identifier(name: str) -> str:
    """Quote an identifier with double quotes (doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: Any) -> str:
    """Render a Python value as an SQL literal.

    Booleans are rendered as the integers ``1``/``0`` (they compare equal to
    ``True``/``False`` back in Python, and SQLite has no boolean storage
    class anyway); strings double embedded single quotes per SQL-92.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise SQLPrintError(f"non-finite float {value!r} has no SQL literal")
        return _float_sql(value)
    if isinstance(value, str):
        if "\x00" in value:
            raise SQLPrintError("NUL characters cannot be embedded in SQL text")
        return "'" + value.replace("'", "''") + "'"
    raise SQLPrintError(f"cannot render {type(value).__name__} value {value!r} as SQL")


def _float_sql(value: float) -> str:
    """A SQL expression that evaluates to exactly ``value`` on the host.

    ``repr`` is only safe when the host's text-to-float conversion is a
    single correctly-rounded operation: decimal significand exact in a
    double (<= 15 digits) times a power of ten that is itself exact
    (``10**21`` is the largest).  SQLite's parser falls outside that window
    for extreme exponents -- observed 1-ulp errors from ``1e-18`` down and
    out to the subnormal range -- so everything else is printed as an exact
    power-of-two decomposition ``m * 2**e`` (integer significand, scaled by
    exact power-of-two factors; every intermediate product/quotient is
    representable, hence exact).  The differential tests pin host results to
    the in-memory engine value-for-value, so literal fidelity is part of the
    backend contract.
    """
    mantissa_text = repr(abs(value))
    decimal_digits, _, exponent_text = mantissa_text.partition("e")
    fraction_digits = (
        len(decimal_digits.partition(".")[2]) if "." in decimal_digits else 0
    )
    scale = int(exponent_text or 0) - fraction_digits
    significant = decimal_digits.replace(".", "").strip("0") or "0"
    if len(significant) <= 15 and -21 <= scale <= 21:
        return repr(value)

    sign = "-" if math.copysign(1.0, value) < 0 else ""
    mant, exp = math.frexp(abs(value))
    m = int(mant * (1 << 53))
    e = exp - 53
    parts = [f"{m}.0"]
    while e >= 53:
        parts.append("* 9007199254740992.0")
        e -= 53
    while e <= -53:
        parts.append("/ 9007199254740992.0")
        e += 53
    if e > 0:
        parts.append(f"* {float(1 << e)!r}")
    elif e < 0:
        parts.append(f"/ {float(1 << -e)!r}")
    return f"({sign}{' '.join(parts)})"


#: Comparison operators; everything but ``!=`` prints as itself.
_COMPARISON_SQL = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Renders an attribute name as a column reference.
ColumnPrinter = Callable[[str], str]


def sql_predicate(
    expression: Expression, column: ColumnPrinter = quote_identifier
) -> str:
    """Render a predicate for a ``WHERE`` clause (filter context).

    The clause keeps a row iff :meth:`Expression.evaluate` is true on it.
    Comparisons reached through ``AND``/``OR`` only are printed bare:
    a NULL operand makes them ``UNKNOWN`` where the interpreter says false,
    and both drop the row.  Everything else (``NOT``, ``IS NULL``, a value
    in boolean position) falls back to the two-valued value-context form.
    """
    if isinstance(expression, BooleanOp):
        joiner = " AND " if expression.op == "and" else " OR "
        return "(" + joiner.join(sql_predicate(o, column) for o in expression.operands) + ")"
    if isinstance(expression, Comparison):
        left = sql_expression(expression.left, column)
        right = sql_expression(expression.right, column)
        return f"{left} {_COMPARISON_SQL[expression.op]} {right}"
    return _sql_boolean(expression, column)


def sql_expression(
    expression: Expression, column: ColumnPrinter = quote_identifier
) -> str:
    """Render an expression as SQL text with the interpreter's semantics."""
    if isinstance(expression, Attribute):
        return column(expression.name)

    if isinstance(expression, Literal):
        return sql_literal(expression.value)

    if isinstance(expression, Comparison):
        left = sql_expression(expression.left, column)
        right = sql_expression(expression.right, column)
        operator = _COMPARISON_SQL[expression.op]
        # NULL-guarded two-valued comparison: evaluates to 0, never UNKNOWN,
        # when either side is NULL -- exactly Expression.evaluate.
        return (
            f"(CASE WHEN {left} IS NULL OR {right} IS NULL THEN 0 "
            f"WHEN {left} {operator} {right} THEN 1 ELSE 0 END)"
        )

    if isinstance(expression, BooleanOp):
        joiner = " AND " if expression.op == "and" else " OR "
        return "(" + joiner.join(_sql_boolean(o, column) for o in expression.operands) + ")"

    if isinstance(expression, Not):
        return f"(NOT {_sql_boolean(expression.operand, column)})"

    if isinstance(expression, Arithmetic):
        left = sql_expression(expression.left, column)
        right = sql_expression(expression.right, column)
        if expression.op == "/":
            # Python float division; the CAST also keeps NULL propagation
            # (CAST(NULL AS REAL) is NULL).
            return f"(CAST({left} AS REAL) / {right})"
        return f"({left} {expression.op} {right})"

    if isinstance(expression, FunctionCall):
        return _sql_function(expression, column)

    if isinstance(expression, IsNull):
        operator = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"({sql_expression(expression.operand, column)} {operator})"

    raise SQLPrintError(f"cannot print {type(expression).__name__} as SQL")


def _sql_boolean(expression: Expression, column: ColumnPrinter) -> str:
    """Render an expression for boolean context, two-valued like ``bool(x)``.

    Predicate nodes already evaluate to 0/1; anything else (an attribute, a
    literal, arithmetic) is guarded so NULL reads as false -- matching the
    interpreter's ``bool(None)`` -- instead of SQL's UNKNOWN, which ``NOT``
    would otherwise propagate into dropped rows.
    """
    if isinstance(expression, (Comparison, BooleanOp, Not, IsNull)):
        return sql_expression(expression, column)
    value = sql_expression(expression, column)
    return f"(CASE WHEN {value} IS NULL THEN 0 WHEN {value} THEN 1 ELSE 0 END)"


def _sql_function(call: FunctionCall, column: ColumnPrinter) -> str:
    arguments = [sql_expression(a, column) for a in call.args]
    if call.name == "abs":
        return f"ABS({arguments[0]})"
    if call.name == "coalesce":
        if len(arguments) == 1:  # COALESCE requires two arguments in SQLite
            return arguments[0]
        return f"COALESCE({', '.join(arguments)})"
    if call.name in ("least", "greatest"):
        # NULL-ignoring minimum/maximum as ONE CASE ladder: branch i wins
        # when argument i is non-NULL and beats (or ties) every later
        # argument that is non-NULL -- the first occurrence of the extreme.
        # Each argument's text appears O(n) times (quadratic total), unlike
        # a pairwise fold whose nested CASEs grow exponentially.  The result
        # is NULL only when every argument is (where the interpreter raises
        # instead; rewritten plans never produce that case because period
        # end points are non-NULL).
        if len(arguments) == 1:
            return arguments[0]
        comparator = "<=" if call.name == "least" else ">="
        branches = []
        for position, argument in enumerate(arguments[:-1]):
            beats_rest = " AND ".join(
                f"({later} IS NULL OR {argument} {comparator} {later})"
                for later in arguments[position + 1 :]
            )
            branches.append(
                f"WHEN {argument} IS NOT NULL AND {beats_rest} THEN {argument}"
            )
        return f"(CASE {' '.join(branches)} ELSE {arguments[-1]} END)"
    raise SQLPrintError(f"unknown scalar function {call.name!r}")
