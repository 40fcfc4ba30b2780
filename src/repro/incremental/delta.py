"""Z-set delta batches: signed-multiplicity rows over one relation.

The abstract model annotates tuples with elements of a commutative
semiring; specializing to the *integers* gives Z-sets -- multisets whose
multiplicities may be negative -- which are the currency of DBSP-style
incremental view maintenance.  A :class:`Delta` is a Z-set over the rows of
one named relation: ``+k`` means "insert this row k times", ``-k`` means
"delete k copies".  Rows are full physical tuples *including the period
attributes* (PERIODENC), so deltas compose with the rewritten plans without
any re-encoding.

Converged states (base tables, materialized view contents) are ordinary
bags -- Z-sets with non-negative multiplicities; only in-flight deltas are
signed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple, Union

from ..errors import IncrementalError

__all__ = [
    "Delta",
    "ZSet",
    "add_into",
    "zset_diff",
    "zset_of",
]

Row = Tuple[Any, ...]
#: A Z-set: row tuple -> signed multiplicity (zero entries are dropped).
ZSet = Dict[Row, int]


def zset_of(rows: Iterable[Sequence[Any]]) -> ZSet:
    """The Z-set of a row iterable (each occurrence contributes +1)."""
    zset: ZSet = {}
    get = zset.get
    for row in rows:
        key = tuple(row)
        zset[key] = get(key, 0) + 1
    return zset


def add_into(target: ZSet, delta: Mapping[Row, int]) -> int:
    """Add ``delta`` into ``target`` in place, dropping zeroed entries.

    Returns the number of entries that cancelled to zero (the consolidation
    count).
    """
    cancelled = 0
    for row, weight in delta.items():
        if weight == 0:
            continue
        updated = target.get(row, 0) + weight
        if updated == 0:
            target.pop(row, None)
            cancelled += 1
        else:
            target[row] = updated
    return cancelled


def zset_diff(new: Mapping[Row, int], old: Mapping[Row, int]) -> ZSet:
    """The delta turning ``old`` into ``new`` (``new - old``, consolidated)."""
    delta: ZSet = {}
    for row, weight in new.items():
        change = weight - old.get(row, 0)
        if change:
            delta[row] = change
    for row, weight in old.items():
        if row not in new and weight:
            delta[row] = -weight
    return delta


@dataclass(eq=False)  # the fields are its wire form; __init__ and __repr__ are its own
class Delta:
    """A signed row batch against one named relation.

    ``entries`` may be a mapping ``row -> weight`` or an iterable of
    ``(row, weight)`` pairs; rows are normalised to tuples and zero weights
    are dropped.  Build insert/delete batches with :meth:`inserts` and
    :meth:`deletes`, or mix signs freely::

        Delta("works", {("Ann", "SP", 3, 10): 1, ("Joe", "NS", 8, 16): -1})
    """

    __slots__ = ("relation", "entries")
    relation: str
    entries: ZSet

    def __init__(
        self,
        relation: str,
        entries: Union[Mapping[Row, int], Iterable[Tuple[Sequence[Any], int]]] = (),
    ) -> None:
        self.relation = relation
        consolidated: ZSet = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        get = consolidated.get
        for row, weight in pairs:
            if not isinstance(weight, int):
                raise IncrementalError(
                    f"delta multiplicities must be ints, got {weight!r}"
                )
            key = tuple(row)
            updated = get(key, 0) + weight
            if updated == 0:
                consolidated.pop(key, None)
            else:
                consolidated[key] = updated
        self.entries = consolidated

    @classmethod
    def inserts(cls, relation: str, rows: Iterable[Sequence[Any]]) -> "Delta":
        """A pure-insert delta: every row gains one copy per occurrence."""
        delta = cls(relation)
        delta.entries = zset_of(rows)
        return delta

    @classmethod
    def deletes(cls, relation: str, rows: Iterable[Sequence[Any]]) -> "Delta":
        """A pure-delete delta: every row loses one copy per occurrence."""
        delta = cls(relation)
        delta.entries = {row: -count for row, count in zset_of(rows).items()}
        return delta

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def weight(self) -> int:
        """Net row-count change this delta causes (sum of multiplicities)."""
        return sum(self.entries.values())

    def __repr__(self) -> str:
        return f"Delta({self.relation!r}, {len(self.entries)} entries)"
