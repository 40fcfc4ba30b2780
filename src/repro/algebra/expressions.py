"""Scalar expression language used in selections, projections and joins.

Expressions support three evaluation modes:

* **interpreted** -- :meth:`Expression.evaluate` walks the AST against a
  *row dictionary* (attribute name -> value).  This is the reference
  semantics, kept for tests and ad-hoc callers.
* **compiled** -- :meth:`Expression.compile` resolves every attribute
  reference to a positional index *once* against a schema and returns a
  nested closure over raw row *tuples*.  Physical operators compile each
  expression once per plan node and then evaluate millions of rows without
  materialising a dictionary per row; this is the row engine's hot path.
* **batch-compiled** -- :meth:`Expression.compile_batch` returns a kernel
  mapping whole *columns* to a result column in one call.  The columnar
  executor (:mod:`repro.engine.batch`) evaluates each node once per batch
  through C-speed ``zip``/list comprehensions instead of once per row;
  attribute references are zero-copy (the input column is returned as-is).

The language is deliberately small -- attribute references, literals,
comparisons, boolean connectives, arithmetic and a couple of SQL-ish helpers
(``least``/``greatest``, ``IS NULL``) -- but it is everything the paper's
rewriting rules (Fig. 4) and the evaluation workloads need.

Every expression node is immutable and hashable so plans can be compared and
cached; structural hashes are computed once per node and memoised (deep
plans hash in amortised O(1) per node instead of re-stringifying the whole
subtree).  ``None`` models SQL ``NULL`` with the usual three-valued flavour
simplified to Python semantics: comparisons involving ``None`` evaluate to
``False`` rather than ``UNKNOWN``, which is indistinguishable for the
workloads used here (no ``NOT`` over null comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Tuple

__all__ = [
    "Expression",
    "Attribute",
    "Literal",
    "Comparison",
    "BooleanOp",
    "Not",
    "Arithmetic",
    "FunctionCall",
    "IsNull",
    "attr",
    "lit",
    "and_",
    "or_",
    "col_eq",
    "compile_predicate",
]

#: A compiled expression: evaluates one raw row tuple to a value.
CompiledExpression = Callable[[Tuple[Any, ...]], Any]

#: A batch-compiled expression: evaluates ``(columns, row_count)`` to a column.
#: ``columns`` holds one list per schema attribute, all of length ``row_count``.
BatchExpression = Callable[[Sequence[list], int], list]

#: Key under which the memoised structural hash is stashed on the instance.
#: Excluded from structural equality, and invisible to the dataclass-generated
#: ``__eq__`` of the node classes (which compares declared fields only).
_HASH_CACHE = "_structural_hash_cache"


class ExpressionError(Exception):
    """Raised when an expression cannot be evaluated against a row."""


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def compile(self, schema: Sequence[str]) -> CompiledExpression:
        """Compile against a positional schema into a closure over row tuples.

        Attribute names are resolved to tuple indexes exactly once, here;
        unknown attributes raise :class:`ExpressionError` at compile time
        rather than per row.  The returned closure implements the same
        semantics as :meth:`evaluate` on ``dict(zip(schema, row))``.
        """
        index = {name: position for position, name in enumerate(schema)}
        return self._compile(index)

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        raise NotImplementedError

    def compile_batch(self, schema: Sequence[str]) -> BatchExpression:
        """Compile against a positional schema into a column-at-a-time kernel.

        The returned kernel takes ``(columns, row_count)`` -- one list per
        schema attribute -- and returns the result column, implementing the
        same per-element semantics as the closure from :meth:`compile`.
        Attribute references return their input column *by reference* (the
        caller must not mutate result columns in place).
        """
        index = {name: position for position, name in enumerate(schema)}
        return self._compile_batch(index)

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        # Fallback: lift the row closure over a zipped batch.  Every concrete
        # node overrides this with a fused kernel; the lift keeps third-party
        # Expression subclasses working unchanged on the batch executor.
        row_fn = self._compile(index)

        def lifted(columns: Sequence[list], n: int) -> list:
            if not columns:  # zero-attribute schema: n rows of the empty tuple
                return [row_fn(()) for _ in range(n)]
            return [row_fn(row) for row in zip(*columns)]

        return lifted

    def attributes(self) -> Tuple[str, ...]:
        """Attribute names referenced by the expression (for schema checks)."""
        return ()

    def _state(self) -> Tuple[Tuple[str, Any], ...]:
        """The structural fields of the node (hash cache excluded)."""
        return tuple(
            item for item in sorted(self.__dict__.items()) if item[0] != _HASH_CACHE
        )

    # Small fluent helpers so tests and workloads read naturally.
    def __eq__(self, other: object) -> bool:  # structural equality
        return type(self) is type(other) and self._state() == other._state()

    def __hash__(self) -> int:
        cached = self.__dict__.get(_HASH_CACHE)
        if cached is None:
            cached = hash((type(self).__name__, self._state()))
            object.__setattr__(self, _HASH_CACHE, cached)
        return cached


@dataclass(frozen=True, eq=True)
class Attribute(Expression):
    """A reference to an attribute of the input row."""

    name: str

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        if self.name not in row:
            raise ExpressionError(f"unknown attribute {self.name!r} in row {list(row)}")
        return row[self.name]

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        try:
            position = index[self.name]
        except KeyError:
            raise ExpressionError(
                f"unknown attribute {self.name!r} in schema {list(index)}"
            ) from None
        return lambda row: row[position]

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        try:
            position = index[self.name]
        except KeyError:
            raise ExpressionError(
                f"unknown attribute {self.name!r} in schema {list(index)}"
            ) from None
        return lambda columns, n: columns[position]

    def attributes(self) -> Tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    # Type-strict: ``1``, ``1.0`` and ``True`` are equal Python values but
    # different constants (they print, and compute, differently), and a plan
    # cache or memo keyed on structure must not hand one query another's.
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and type(other) is type(self)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def _state(self) -> Tuple[Tuple[str, Any], ...]:
        return (("value", self.value), ("type", type(self.value)))

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        value = self.value
        return lambda row: value

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        value = self.value
        return lambda columns, n: [value] * n

    def __repr__(self) -> str:
        return repr(self.value)


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True, eq=True)
class Comparison(Expression):
    """A binary comparison between two expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        operator = _COMPARATORS[self.op]
        # Fast path for the shape that dominates selections: attribute vs
        # literal, with the NULL checks resolved at compile time.
        if isinstance(self.left, Attribute) and isinstance(self.right, Literal):
            if self.left.name not in index:
                self.left._compile(index)  # raises the standard unknown-attribute error
            position = index[self.left.name]
            constant = self.right.value
            if constant is None:
                return lambda row: False
            return lambda row: row[position] is not None and operator(
                row[position], constant
            )
        left_fn = self.left._compile(index)
        right_fn = self.right._compile(index)

        def compare(row: Tuple[Any, ...]) -> bool:
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return False
            return operator(left, right)

        return compare

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        operator = _COMPARATORS[self.op]
        # Mirror the row fast path: attribute vs literal runs a single list
        # comprehension over the referenced column.
        if isinstance(self.left, Attribute) and isinstance(self.right, Literal):
            if self.left.name not in index:
                self.left._compile(index)  # raises the standard unknown-attribute error
            position = index[self.left.name]
            constant = self.right.value
            if constant is None:
                return lambda columns, n: [False] * n
            return lambda columns, n: [
                v is not None and operator(v, constant) for v in columns[position]
            ]
        if isinstance(self.left, Attribute) and isinstance(self.right, Attribute):
            left_pos = index.get(self.left.name)
            right_pos = index.get(self.right.name)
            if left_pos is None:
                self.left._compile(index)
            if right_pos is None:
                self.right._compile(index)
            return lambda columns, n: [
                a is not None and b is not None and operator(a, b)
                for a, b in zip(columns[left_pos], columns[right_pos])
            ]
        left_fn = self.left._compile_batch(index)
        right_fn = self.right._compile_batch(index)

        def compare_columns(columns: Sequence[list], n: int) -> list:
            return [
                a is not None and b is not None and operator(a, b)
                for a, b in zip(left_fn(columns, n), right_fn(columns, n))
            ]

        return compare_columns

    def attributes(self) -> Tuple[str, ...]:
        return self.left.attributes() + self.right.attributes()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=True)
class BooleanOp(Expression):
    """Conjunction or disjunction of sub-expressions."""

    op: str  # "and" | "or"
    operands: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        values = (bool(operand.evaluate(row)) for operand in self.operands)
        return all(values) if self.op == "and" else any(values)

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        compiled = tuple(operand._compile(index) for operand in self.operands)
        if len(compiled) == 2:  # the common shape; avoids a generator per row
            first, second = compiled
            if self.op == "and":
                return lambda row: bool(first(row)) and bool(second(row))
            return lambda row: bool(first(row)) or bool(second(row))
        if self.op == "and":
            return lambda row: all(operand(row) for operand in compiled)
        return lambda row: any(operand(row) for operand in compiled)

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        compiled = tuple(operand._compile_batch(index) for operand in self.operands)
        if len(compiled) == 2:
            first, second = compiled
            if self.op == "and":

                def and_two(columns: Sequence[list], n: int) -> list:
                    return [
                        bool(a) and bool(b)
                        for a, b in zip(first(columns, n), second(columns, n))
                    ]

                return and_two

            def or_two(columns: Sequence[list], n: int) -> list:
                return [
                    bool(a) or bool(b)
                    for a, b in zip(first(columns, n), second(columns, n))
                ]

            return or_two
        fold = all if self.op == "and" else any

        def combine(columns: Sequence[list], n: int) -> list:
            evaluated = [operand(columns, n) for operand in compiled]
            return [fold(values) for values in zip(*evaluated)]

        return combine

    def attributes(self) -> Tuple[str, ...]:
        return tuple(a for operand in self.operands for a in operand.attributes())

    def __repr__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(repr(operand) for operand in self.operands) + ")"


@dataclass(frozen=True, eq=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return not bool(self.operand.evaluate(row))

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        operand = self.operand._compile(index)
        return lambda row: not operand(row)

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        operand = self.operand._compile_batch(index)
        return lambda columns, n: [not value for value in operand(columns, n)]

    def attributes(self) -> Tuple[str, ...]:
        return self.operand.attributes()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True, eq=True)
class Arithmetic(Expression):
    """Binary arithmetic over numeric expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        return _ARITHMETIC[self.op](left, right)

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        operator = _ARITHMETIC[self.op]
        left_fn = self.left._compile(index)
        right_fn = self.right._compile(index)

        def apply(row: Tuple[Any, ...]) -> Any:
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return None
            return operator(left, right)

        return apply

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        operator = _ARITHMETIC[self.op]
        left_fn = self.left._compile_batch(index)
        right_fn = self.right._compile_batch(index)

        def apply_columns(columns: Sequence[list], n: int) -> list:
            return [
                None if a is None or b is None else operator(a, b)
                for a, b in zip(left_fn(columns, n), right_fn(columns, n))
            ]

        return apply_columns

    def attributes(self) -> Tuple[str, ...]:
        return self.left.attributes() + self.right.attributes()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "least": lambda *args: min(a for a in args if a is not None),
    "greatest": lambda *args: max(a for a in args if a is not None),
    "abs": lambda a: None if a is None else abs(a),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
}


@dataclass(frozen=True, eq=True)
class FunctionCall(Expression):
    """A call to one of the built-in scalar functions."""

    name: str
    args: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return _FUNCTIONS[self.name](*(arg.evaluate(row) for arg in self.args))

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        function = _FUNCTIONS[self.name]
        compiled = tuple(arg._compile(index) for arg in self.args)
        if self.name in ("least", "greatest") and len(compiled) == 2:
            # The dominant shape on the hot path: the snapshot rewrite wraps
            # every join's period attributes in two-argument least/greatest.
            pick = min if self.name == "least" else max
            first, second = compiled

            def pick_two(row: Tuple[Any, ...]) -> Any:
                left = first(row)
                right = second(row)
                if left is None or right is None:
                    # Falls back to the interpreter's NULL handling (and its
                    # error when both arguments are NULL).
                    return pick(v for v in (left, right) if v is not None)
                return pick(left, right)

            return pick_two
        if len(compiled) == 1:
            (only,) = compiled
            return lambda row: function(only(row))
        if len(compiled) == 2:
            first, second = compiled
            return lambda row: function(first(row), second(row))
        return lambda row: function(*(arg(row) for arg in compiled))

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        function = _FUNCTIONS[self.name]
        compiled = tuple(arg._compile_batch(index) for arg in self.args)
        if self.name in ("least", "greatest") and len(compiled) == 2:
            # Same dominant shape as the row fast path: the snapshot rewrite
            # wraps every join's period attributes in two-argument
            # least/greatest, so this kernel runs once per join in batch mode.
            pick = min if self.name == "least" else max
            first, second = compiled

            def pick_two_columns(columns: Sequence[list], n: int) -> list:
                return [
                    pick(left, right)
                    if left is not None and right is not None
                    else pick(v for v in (left, right) if v is not None)
                    for left, right in zip(first(columns, n), second(columns, n))
                ]

            return pick_two_columns
        if len(compiled) == 1:
            (only,) = compiled
            return lambda columns, n: [function(v) for v in only(columns, n)]

        def apply_columns(columns: Sequence[list], n: int) -> list:
            evaluated = [arg(columns, n) for arg in compiled]
            return [function(*values) for values in zip(*evaluated)]

        return apply_columns

    def attributes(self) -> Tuple[str, ...]:
        return tuple(a for arg in self.args for a in arg.attributes())

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


@dataclass(frozen=True, eq=True)
class IsNull(Expression):
    """SQL ``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def _compile(self, index: Mapping[str, int]) -> CompiledExpression:
        operand = self.operand._compile(index)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _compile_batch(self, index: Mapping[str, int]) -> BatchExpression:
        operand = self.operand._compile_batch(index)
        if self.negated:
            return lambda columns, n: [v is not None for v in operand(columns, n)]
        return lambda columns, n: [v is None for v in operand(columns, n)]

    def attributes(self) -> Tuple[str, ...]:
        return self.operand.attributes()

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"


# -- fluent constructors -------------------------------------------------------------


def attr(name: str) -> Attribute:
    """Shorthand constructor for attribute references."""
    return Attribute(name)


def lit(value: Any) -> Literal:
    """Shorthand constructor for literals."""
    return Literal(value)


def and_(*operands: Expression) -> Expression:
    """Conjunction; collapses a single operand to itself."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("and", tuple(operands))


def or_(*operands: Expression) -> Expression:
    """Disjunction; collapses a single operand to itself."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("or", tuple(operands))


def col_eq(left: str, right: str) -> Comparison:
    """Equality comparison between two attributes (common join predicate)."""
    return Comparison("=", Attribute(left), Attribute(right))


def compile_predicate(
    predicate: Expression | None, schema: Sequence[str]
) -> CompiledExpression:
    """Compile a filter predicate; ``None`` compiles to "keep every row"."""
    if predicate is None:
        return lambda row: True
    return predicate.compile(schema)


# The node classes are frozen dataclasses with generated (field-based)
# ``__eq__``; route their ``__hash__`` through the memoising base-class
# implementation so deep plans do not recompute subtree hashes on every
# lookup.
for _node_class in (
    Attribute,
    Literal,
    Comparison,
    BooleanOp,
    Not,
    Arithmetic,
    FunctionCall,
    IsNull,
):
    _node_class.__hash__ = Expression.__hash__  # type: ignore[assignment]
del _node_class
