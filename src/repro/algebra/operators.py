"""Logical relational algebra operators (RA^agg).

The same logical plan language is consumed by every evaluator in the
library:

* the abstract-model oracle (per-snapshot K-relation evaluation),
* the logical-model evaluator (period K-relations / ``K^T`` annotations),
* the non-temporal multiset engine (``repro.engine``), and
* the snapshot middleware, which *rewrites* plans with snapshot semantics
  into plans over the SQL-period-relation encoding (``repro.rewriter``).

The operator set is the paper's ``RA^agg``: selection, projection
(duplicate-preserving), theta join, union all, difference (EXCEPT ALL /
monus), and grouping aggregation, plus plumbing operators (relation access,
rename, constant relations) that the rewriting rules of Fig. 4 need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple

from ..errors import PlanError
from .expressions import Attribute, Expression

__all__ = [
    "AlgebraError",
    "Operator",
    "RelationAccess",
    "ConstantRelation",
    "Selection",
    "Projection",
    "Rename",
    "Join",
    "Union",
    "Difference",
    "AggregateSpec",
    "Aggregation",
    "Distinct",
    "AGGREGATE_FUNCTIONS",
]


class AlgebraError(PlanError):
    """Raised for malformed plans (unknown attributes, arity mismatches...).

    Part of the :mod:`repro.errors` taxonomy (a permanent
    :class:`~repro.errors.PlanError`), so the rewriter's and executor's
    subclasses are :class:`~repro.errors.ReproError` instances too.
    """


#: Aggregation functions supported by ``RA^agg`` in this library.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class Operator:
    """Base class of all logical operators.

    ``children`` exposes the sub-plans, and ``schema`` must be resolvable
    given the schemas of the children (the resolution itself is performed by
    the evaluators, which know the catalog).
    """

    def children(self) -> Tuple["Operator", ...]:
        return ()

    def with_children(self, *children: "Operator") -> "Operator":
        """Return a copy of this operator with the given children."""
        raise NotImplementedError

    def walk(self):
        """Yield the operator and all descendants (pre-order)."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- plan rendering -----------------------------------------------------------

    def explain_label(self) -> str:
        """One line describing this node alone (no children).

        Defaults to ``repr``; operators whose generated dataclass ``repr``
        recurses into children must override this (the rewriter's physical
        operators define compact ``__repr__`` instead).
        """
        return repr(self)

    def explain_tree(
        self, annotations: Optional[Mapping[int, str]] = None
    ) -> str:
        """A stable multi-line tree rendering of the whole plan.

        One node per line, children connected with box-drawing guides::

            Aggregation(group by (); count(*) AS cnt)
            └─ Selection((skill = 'SP'))
               └─ Relation(works)

        ``annotations`` optionally maps ``id(node)`` to a suffix appended
        after that node's label (``explain()``'s ``[strategy=...
        actual_rows=...]`` readouts); the one-line-per-node shape is
        preserved.
        Every evaluator-facing rendering (``QueryPipeline.explain``,
        the fluent API's ``TemporalRelation.explain``) builds on this; the
        output is pinned by tests, so treat changes as API changes.
        """

        def label(node: "Operator") -> str:
            text = node.explain_label()
            if annotations:
                suffix = annotations.get(id(node))
                if suffix:
                    text = f"{text} {suffix}"
            return text

        lines: list[str] = [label(self)]

        def render(node: "Operator", prefix: str) -> None:
            children = node.children()
            for position, child in enumerate(children):
                last = position == len(children) - 1
                connector = "└─ " if last else "├─ "
                lines.append(prefix + connector + label(child))
                render(child, prefix + ("   " if last else "│  "))

        render(self, "")
        return "\n".join(lines)

    # -- planner extension hooks --------------------------------------------------
    #
    # The planner (:mod:`repro.planner`) knows the core RA^agg operators
    # natively; operators outside that set (the rewriter's physical temporal
    # operators, future custom operators) participate in static schema
    # inference and selection push-down by overriding these two hooks, so
    # the planner never has to import -- or even know about -- them.

    def planner_schema(
        self, child_schemas: Sequence[Optional[Tuple[str, ...]]]
    ) -> Optional[Tuple[str, ...]]:
        """Output schema given the (possibly unknown) child schemas.

        Return the ordered attribute tuple, or ``None`` when it cannot be
        derived statically.  The default is ``None``: unknown operators are
        opaque to the planner.
        """
        return None

    def planner_selection_pushdown(self, attributes: frozenset) -> Tuple[int, ...]:
        """Child indexes a selection over ``attributes`` may be pushed into.

        A selection directly above this operator whose predicate references
        exactly ``attributes`` is replaced by selections over the children at
        the returned indexes.  Return ``()`` (the default) to keep the
        selection above the operator.
        """
        return ()

    def planner_projection_pushdown(
        self,
        columns: Tuple[Tuple[Any, str], ...],
        child_schemas: Sequence[Optional[Tuple[str, ...]]],
    ) -> Optional["Operator"]:
        """Sink a projection directly above this operator through it.

        ``columns`` are the ``(expression, name)`` pairs of the projection;
        ``child_schemas`` the statically inferred child schemas (``None``
        where unknown).  Return a replacement plan for
        ``Projection(self, columns)`` or ``None`` (the default) to leave the
        projection where it is.  Implementations own the validity
        conditions.
        """
        return None


@dataclass(frozen=True)
class RelationAccess(Operator):
    """A reference to a base relation in the catalog.

    For snapshot queries over SQL period relations, ``period`` names the pair
    of attributes storing the validity interval (defaults to
    ``("t_begin", "t_end")`` which the datasets in this repository use).
    """

    name: str
    alias: Optional[str] = None
    period: Optional[Tuple[str, str]] = None

    def with_children(self) -> "RelationAccess":
        return self

    def __repr__(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Relation({self.name}{alias})"


@dataclass(frozen=True)
class ConstantRelation(Operator):
    """An inline constant relation: explicit schema plus literal rows.

    The rewriting of aggregation without group-by unions the input with a
    one-row constant relation ``{(null, Tmin, Tmax)}`` so that gaps produce
    output (the paper's fix for the AG bug).
    """

    schema: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]

    # Values compare type-strictly, as :class:`~repro.algebra.expressions
    # .Literal` does: a row ``(1,)`` is not the row ``(1.0,)`` or ``(True,)``.
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantRelation)
            and type(other) is type(self)
            and self.schema == other.schema
            and _typed(self.rows) == _typed(other.rows)
        )

    def with_children(self) -> "ConstantRelation":
        return self

    def __repr__(self) -> str:
        return f"Constant({list(self.schema)}, {len(self.rows)} rows)"


def _typed(rows: Tuple[Tuple[Any, ...], ...]) -> Tuple[Tuple[Tuple[type, Any], ...], ...]:
    return tuple(tuple((type(value), value) for value in row) for row in rows)


@dataclass(frozen=True)
class Selection(Operator):
    """``sigma_theta``: keep tuples satisfying the predicate."""

    child: Operator
    predicate: Expression

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "Selection":
        return Selection(child, self.predicate)

    def __repr__(self) -> str:
        return f"Selection({self.predicate!r})"


@dataclass(frozen=True)
class Projection(Operator):
    """``Pi_A``: duplicate-preserving projection onto expressions.

    ``columns`` is a sequence of ``(expression, output name)`` pairs.  Under
    bag semantics the multiplicities of value-equivalent results add up,
    which is exactly the K-relation projection (sum over pre-images).
    """

    child: Operator
    columns: Tuple[Tuple[Expression, str], ...]

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "Projection":
        return Projection(child, self.columns)

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(name for _, name in self.columns)

    @staticmethod
    def of_attributes(child: Operator, *names: str) -> "Projection":
        """Project onto a plain list of attributes keeping their names."""
        return Projection(child, tuple((Attribute(n), n) for n in names))

    def __repr__(self) -> str:
        cols = ", ".join(f"{expr!r} AS {name}" for expr, name in self.columns)
        return f"Projection({cols})"


@dataclass(frozen=True)
class Rename(Operator):
    """``rho``: rename attributes according to a mapping old -> new."""

    child: Operator
    renames: Tuple[Tuple[str, str], ...]

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "Rename":
        return Rename(child, self.renames)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{old}->{new}" for old, new in self.renames)
        return f"Rename({pairs})"


@dataclass(frozen=True)
class Join(Operator):
    """Theta join of two inputs.

    The schemas of the two inputs must be disjoint (use :class:`Rename` to
    disambiguate); ``predicate`` may be ``None`` for a cross product.
    Which algorithm runs the join is the executor's reading of the
    predicate (interval pattern, else equality keys, else nested loop);
    the node carries no physical choice.
    """

    left: Operator
    right: Operator
    predicate: Optional[Expression] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, left: Operator, right: Operator) -> "Join":
        return Join(left, right, self.predicate)

    def __repr__(self) -> str:
        return f"Join({self.predicate!r})"


@dataclass(frozen=True)
class Union(Operator):
    """``UNION ALL``: bag union (annotation addition)."""

    left: Operator
    right: Operator

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, left: Operator, right: Operator) -> "Union":
        return Union(left, right)

    def __repr__(self) -> str:
        return "UnionAll"


@dataclass(frozen=True)
class Difference(Operator):
    """``EXCEPT ALL``: bag difference (annotation monus)."""

    left: Operator
    right: Operator

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, left: Operator, right: Operator) -> "Difference":
        return Difference(left, right)

    def __repr__(self) -> str:
        return "ExceptAll"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation function application: ``func(argument) AS alias``.

    ``argument`` is ``None`` for ``count(*)``.
    """

    func: str
    argument: Optional[Expression]
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise AlgebraError(f"unknown aggregation function {self.func!r}")
        if self.func != "count" and self.argument is None:
            raise AlgebraError(f"{self.func} requires an argument expression")

    def __repr__(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        return f"{self.func}({arg}) AS {self.alias}"


@dataclass(frozen=True)
class Aggregation(Operator):
    """``G gamma f(A)``: grouping aggregation.

    ``group_by`` may be empty, in which case a single group covering the
    whole input is produced -- and, under snapshot semantics, a result row is
    produced even for snapshots where the input is empty (no AG bug).
    """

    child: Operator
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "Aggregation":
        return Aggregation(child, self.group_by, self.aggregates)

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(self.group_by) + tuple(a.alias for a in self.aggregates)

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregation(group by {groups}; {aggs})"


@dataclass(frozen=True)
class Distinct(Operator):
    """Duplicate elimination (``SELECT DISTINCT``).

    Not part of the paper's core ``RA^agg`` but needed by some of the TPC-H
    derived workload queries; under K-semantics it maps every non-zero
    annotation to ``1_K`` (well-defined for B and N).
    """

    child: Operator

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "Distinct":
        return Distinct(child)

    def __repr__(self) -> str:
        return "Distinct"
