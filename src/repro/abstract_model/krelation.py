"""K-relations and the evaluation of RA^agg over them (paper Section 4.1).

A K-relation maps tuples to annotations from a commutative semiring K;
tuples annotated with ``0_K`` are not in the relation.  Query evaluation
follows Green et al. [21]: selection multiplies with the predicate's
characteristic value, projection sums over pre-images, join multiplies the
annotations of the joined tuples, union adds, difference applies the monus
(for m-semirings), and aggregation follows the multiset-friendly definition
the paper uses in Section 7.2 (group results annotated with ``1_K``).

The operators are generic in K: the abstract temporal model wraps plain
K-relations per time point (see :mod:`repro.abstract_model.snapshot`), and
the logical model is this class over the period semiring ``K^T`` (see
:mod:`repro.logical_model.period_relation`).  Results are built through
``type(self)``, so an operator over a subclass returns that subclass.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..semirings.base import Semiring, SemiringError
from ..semirings.standard import BOOLEAN, NATURAL

__all__ = ["KRelation", "aggregate_rows", "aggregate_values"]

Row = Tuple[Any, ...]


class KRelation:
    """An annotated relation: schema + mapping from value tuples to K-values."""

    __slots__ = ("semiring", "schema", "_data")

    def __init__(
        self,
        semiring: Semiring,
        schema: Iterable[str],
        data: Mapping[Row, Any] | Iterable[Tuple[Row, Any]] = (),
    ) -> None:
        self.semiring = semiring
        self.schema: Tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate attribute names in schema {self.schema}")
        self._data: Dict[Row, Any] = {}
        items = data.items() if isinstance(data, Mapping) else data
        for row, annotation in items:
            self.add(row, annotation)

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        semiring: Semiring,
        schema: Iterable[str],
        rows: Iterable[Row],
    ) -> "KRelation":
        """Build a relation annotating each listed row with ``1_K``.

        Listing a row twice doubles its annotation (bag behaviour for N).
        """
        relation = cls(semiring, schema)
        for row in rows:
            relation.add(row, semiring.one)
        return relation

    def empty_like(self, schema: Optional[Iterable[str]] = None) -> "KRelation":
        """An empty relation of the same class and semiring (optionally new schema)."""
        return type(self)(self.semiring, self.schema if schema is None else schema)

    # -- mutation (used only while building) ---------------------------------------------

    def add(self, row: Row, annotation: Any) -> None:
        """Add ``annotation`` to the current annotation of ``row``."""
        row = tuple(row)
        if len(row) != len(self.schema):
            raise ValueError(
                f"row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        current = self._data.get(row, self.semiring.zero)
        updated = self.semiring.plus(current, annotation)
        if self.semiring.is_zero(updated):
            self._data.pop(row, None)
        else:
            self._data[row] = updated

    # -- access ----------------------------------------------------------------------------

    def annotation(self, row: Row) -> Any:
        """The annotation of ``row`` (``0_K`` if absent)."""
        return self._data.get(tuple(row), self.semiring.zero)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Tuple[Row, Any]]:
        return iter(self._data.items())

    def rows(self) -> List[Row]:
        """All distinct rows with non-zero annotation."""
        return list(self._data)

    def to_row_dict(self, row: Row) -> Dict[str, Any]:
        return dict(zip(self.schema, row))

    # -- RA+ operators -----------------------------------------------------------------------

    def select(self, predicate) -> "KRelation":
        """``sigma_theta``: multiply annotations by the predicate value (0/1)."""
        result = self.empty_like()
        for row, annotation in self._data.items():
            if predicate.evaluate(self.to_row_dict(row)):
                result.add(row, annotation)
        return result

    def project(self, columns: Iterable[Tuple[Any, str]]) -> "KRelation":
        """``Pi_A``: evaluate projection expressions, summing over pre-images."""
        columns = list(columns)
        result = self.empty_like([name for _, name in columns])
        for row, annotation in self._data.items():
            row_dict = self.to_row_dict(row)
            out = tuple(expr.evaluate(row_dict) for expr, _ in columns)
            result.add(out, annotation)
        return result

    def rename(self, renames: Mapping[str, str]) -> "KRelation":
        """``rho``: rename attributes (values and annotations untouched)."""
        missing = set(renames) - set(self.schema)
        if missing:
            raise ValueError(f"cannot rename unknown attributes {sorted(missing)}")
        schema = tuple(renames.get(name, name) for name in self.schema)
        return type(self)(self.semiring, schema, dict(self._data))

    def join(self, other: "KRelation", predicate=None) -> "KRelation":
        """Theta join; annotations of join partners are multiplied."""
        overlap = set(self.schema) & set(other.schema)
        if overlap:
            raise ValueError(
                f"join inputs share attributes {sorted(overlap)}; rename first"
            )
        result = self.empty_like(self.schema + other.schema)
        for left_row, left_annotation in self._data.items():
            left_dict = self.to_row_dict(left_row)
            for right_row, right_annotation in other._data.items():
                combined = {**left_dict, **other.to_row_dict(right_row)}
                if predicate is None or predicate.evaluate(combined):
                    result.add(
                        left_row + right_row,
                        self.semiring.times(left_annotation, right_annotation),
                    )
        return result

    def union(self, other: "KRelation") -> "KRelation":
        """``UNION ALL``: annotation addition (schemas must match by arity)."""
        self._check_union_compatible(other)
        result = type(self)(self.semiring, self.schema, dict(self._data))
        for row, annotation in other._data.items():
            result.add(row, annotation)
        return result

    def difference(self, other: "KRelation") -> "KRelation":
        """``EXCEPT ALL``: annotation monus (requires an m-semiring)."""
        self._check_union_compatible(other)
        if not self.semiring.has_monus:
            raise SemiringError(
                f"difference undefined: semiring {self.semiring.name} has no monus"
            )
        result = self.empty_like()
        for row, annotation in self._data.items():
            remaining = self.semiring.monus(annotation, other.annotation(row))
            if not self.semiring.is_zero(remaining):
                result.add(row, remaining)
        return result

    def distinct(self) -> "KRelation":
        """Duplicate elimination: every non-zero annotation becomes ``1_K``."""
        result = self.empty_like()
        for row in self._data:
            result.add(row, self.semiring.one)
        return result

    # -- aggregation ----------------------------------------------------------------------------

    def aggregate(self, group_by: Iterable[str], aggregates) -> "KRelation":
        """Grouping aggregation under multiset (N) or set (B) semantics.

        For N, multiplicities weigh ``count``/``sum``/``avg``; for B each
        distinct tuple counts once.  Result rows are annotated with ``1_K``
        (Definition 7.1).  With an empty ``group_by`` a result row is
        produced even when the input is empty -- the behaviour snapshot
        semantics requires to expose aggregation gaps.
        """
        if self.semiring not in (NATURAL, BOOLEAN):
            raise SemiringError(
                f"aggregation is defined for N and B only, not {self.semiring.name}"
            )
        group_by = tuple(group_by)
        aggregates = tuple(aggregates)
        unknown = set(group_by) - set(self.schema)
        if unknown:
            raise ValueError(f"unknown group-by attributes {sorted(unknown)}")

        groups: Dict[Row, List[Tuple[Dict[str, Any], int]]] = {}
        for row, annotation in self._data.items():
            row_dict = self.to_row_dict(row)
            key = tuple(row_dict[g] for g in group_by)
            weight = int(annotation) if self.semiring == NATURAL else 1
            groups.setdefault(key, []).append((row_dict, weight))
        if not group_by and not groups:
            groups[()] = []

        schema = group_by + tuple(spec.alias for spec in aggregates)
        result = KRelation(self.semiring, schema)
        for key, members in groups.items():
            values = tuple(
                aggregate_rows(spec.func, spec.argument, members) for spec in aggregates
            )
            result.add(key + values, self.semiring.one)
        return result

    # -- comparisons -------------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KRelation):
            return NotImplemented
        return (
            self.semiring == other.semiring
            and self.schema == other.schema
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.semiring, self.schema, tuple(sorted(self._data.items(), key=repr))))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.semiring.name}, {list(self.schema)}, "
            f"{len(self._data)} rows)"
        )

    def _check_union_compatible(self, other: "KRelation") -> None:
        if self.semiring != other.semiring:
            raise SemiringError(
                f"cannot combine relations over {self.semiring.name} and {other.semiring.name}"
            )
        if len(self.schema) != len(other.schema):
            raise ValueError(
                f"union-incompatible schemas {self.schema} and {other.schema}"
            )


def aggregate_rows(
    func: str,
    argument,
    members: List[Tuple[Dict[str, Any], int]],
) -> Any:
    """Evaluate one SQL aggregation function over weighted rows.

    ``members`` is a list of ``(row dictionary, weight)`` pairs; the weight
    is the tuple multiplicity.  ``None`` argument values are ignored, like
    SQL ignores NULLs; an empty input yields ``0`` for ``count`` and ``None``
    otherwise.
    """
    if func == "count":
        if argument is None:
            return sum(weight for _row, weight in members)
        return sum(
            weight for row, weight in members if argument.evaluate(row) is not None
        )

    values: List[Tuple[Any, int]] = []
    for row, weight in members:
        value = argument.evaluate(row)
        if value is not None:
            values.append((value, weight))
    return aggregate_values(func, values)


def aggregate_values(func: str, values: List[Tuple[Any, int]]) -> Any:
    """``sum``/``avg``/``min``/``max`` over weighted non-NULL argument values.

    The shared dispatch behind :func:`aggregate_rows` and the engine's
    compiled aggregation path (``count`` stays with the callers, whose
    NULL-vs-row semantics differ).  An empty input yields ``None``.
    """
    if not values:
        return None
    if func == "sum":
        return sum(value * weight for value, weight in values)
    if func == "avg":
        total_weight = sum(weight for _value, weight in values)
        return sum(value * weight for value, weight in values) / total_weight
    if func == "min":
        return min(value for value, _weight in values)
    if func == "max":
        return max(value for value, _weight in values)
    raise ValueError(f"unknown aggregation function {func!r}")
