"""PERIODENC: encoding N^T-relations as SQL period relations (Definition 8.1).

A period N-relation (logical model) annotates each tuple with a temporal
N-element.  Its SQL encoding appends two attributes ``t_begin`` / ``t_end``
and stores one *physical row per interval and multiplicity unit*: an
annotation entry ``I -> n`` becomes ``n`` duplicate rows carrying ``I``'s end
points.  The inverse mapping rebuilds the temporal elements by summing the
singleton annotations of duplicate rows.

These conversions are used at the edges of the middleware (loading inputs,
decoding results for callers that want a :class:`PeriodKRelation`); the
rewritten queries themselves never materialise temporal elements, and a
snapshot needs no decoding: :func:`timeslice_table` reads it off the rows.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..abstract_model.krelation import KRelation
from ..engine.table import Table
from ..logical_model.period_relation import PeriodKRelation
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring

__all__ = [
    "T_BEGIN", "T_END", "period_encode", "period_decode", "period_schema", "timeslice_table"
]

#: Canonical names of the period attributes in rewritten plans.
T_BEGIN = "t_begin"
T_END = "t_end"


def period_schema(schema: Iterable[str]) -> Tuple[str, ...]:
    """The SQL-period-relation schema for a given data schema."""
    schema = tuple(schema)
    if T_BEGIN in schema or T_END in schema:
        raise ValueError(
            f"data schema {schema} already contains the reserved attributes "
            f"{T_BEGIN!r}/{T_END!r}"
        )
    return schema + (T_BEGIN, T_END)


def period_encode(relation: PeriodKRelation, name: str = "encoded") -> Table:
    """``PERIODENC``: one physical row per interval and multiplicity unit.

    Only defined for N^T-relations (multisets), matching the paper: other
    semirings have no faithful plain-multiset encoding.
    """
    if relation.base_semiring != NATURAL:
        raise ValueError(
            "PERIODENC is defined for N^T-relations only, got "
            f"{relation.base_semiring.name}^T"
        )
    table = Table(name, period_schema(relation.schema))
    for row, element in relation:
        for interval, multiplicity in element.items():
            physical = row + (interval.begin, interval.end)
            for _ in range(int(multiplicity)):
                table.append(physical)
    return table


def period_decode(
    table: Table,
    period_semiring: PeriodSemiring,
    period: Tuple[str, str] = (T_BEGIN, T_END),
) -> PeriodKRelation:
    """``PERIODENC^-1``: rebuild a period N-relation from a period table.

    Each row is the fact ``(data row, begin, end, 1)`` of
    :meth:`PeriodKRelation.from_periods`: duplicate rows add up, the
    temporal elements come out coalesced, so decoding an *uncoalesced*
    table and decoding its coalesced form yield equal relations (so a check
    through decoding cannot see the encoding), and NULL periods are dropped.
    """
    if period_semiring.base != NATURAL:
        raise ValueError("period tables decode to N^T-relations only")
    begin_attr, end_attr = period
    begin_index = table.column_index(begin_attr)
    end_index = table.column_index(end_attr)
    data_indexes = [
        i for i, attribute in enumerate(table.schema)
        if attribute not in (begin_attr, end_attr)
    ]
    return PeriodKRelation.from_periods(
        period_semiring,
        tuple(table.schema[i] for i in data_indexes),
        (
            (tuple(row[i] for i in data_indexes), row[begin_index], row[end_index], 1)
            for row in table.rows
        ),
    )


def timeslice_table(
    table: Table, point: int, period: Tuple[str, str] = (T_BEGIN, T_END)
) -> KRelation:
    """``tau_T`` of a period table: the N-relation of the rows valid at ``point``.

    Each row counts once while ``begin <= point < end``; NULL and degenerate
    periods hold at no point (SQL comparison semantics).  For an in-domain
    point this is ``period_decode(table, ...).timeslice(point)``.
    """
    begin_index = table.column_index(period[0])
    end_index = table.column_index(period[1])
    data_indexes = [
        i for i, attribute in enumerate(table.schema) if attribute not in period
    ]
    relation = KRelation(NATURAL, tuple(table.schema[i] for i in data_indexes))
    for row in table.rows:
        begin, end = row[begin_index], row[end_index]
        if begin is None or end is None or not (begin <= point < end):
            continue
        relation.add(tuple(row[i] for i in data_indexes), 1)
    return relation
