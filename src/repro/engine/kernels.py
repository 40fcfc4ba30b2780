"""Typed columns and the whole-column kernels over them (numpy, optional).

**The column knows its typed form.**  A :class:`Column` is one attribute of
a batch: its ``values`` list (what scalar code and ``.rows()`` read) and,
lazily and at most once, a typed form -- an exact int64 array when every
entry is an ``int`` (plus a validity mask when some are NULL), dict-equality
codes with their dictionary otherwise.  :func:`_int_form` and
:func:`_code_form` are the only places a values list is scanned into arrays.
Base-table columns live on the :class:`~repro.engine.table.TableVersion`
they describe, so a version is scanned once however many operators and
queries read it, and DML hands the forms on: the successor's column is
:meth:`Column.extended` by the inserted tail or the :meth:`Column.kept` rows
of a delete -- only the tail is ever scanned again.  A column *gathered*
from another at an index array (a join side, a split, a filtering selection,
a group's first row, the rows a difference leaves) gets its forms by
gathering the source's and produces ``values`` only if someone asks; two
columns *concatenated* (a union) join theirs; a kernel's output column, and
an ``int`` constant projected from the cutover on (:func:`constant_ints`),
is born from its array and ``.tolist()``-ed on the same condition.

**The kernels.**  REWR's joins, splits and temporal aggregates all ask one
question: *which entries of group g fall in the time range [a, b)?*  The
group/equality-key columns are factorised to dense int codes
(:func:`factorize`), ``(code, time)`` is packed into one sortable int64 --
``code * span + time - lo``, see :func:`pack_span` -- and a range of one
group's entries is then two ``searchsorted`` calls over the sorted packed
array, expanded to flat index pairs by :func:`expand_ranges`.  On top of
that primitive sit

* :func:`interval_join_vectorized` -- the interval-overlap join with any
  number of equality keys (zero included), as index pairs,
* :func:`split_segments_vectorized` -- the split operator's cut points,
* the step sweep (:func:`_step_sweep`) -- per group, one ``cumsum`` per
  measure over its packed events, counted per cell where the grid holds at
  most :data:`DENSE_GRID` cells per event and sorted otherwise, and the
  touching segments of equal values joined: the coalesced encoding.  It
  serves :func:`temporal_aggregate_vectorized` (``count``/``sum``/``avg``
  as running sums, ``min``/``max`` as a range-update sweep over the same
  points) and :func:`monus_vectorized` -- coalescing, temporal bag
  difference and distinct, ``count(*)`` over signed multiplicities: the
  subtrahend's rows weigh ``-count``, and distinct counts nothing.

The set operators need the factorise half alone:

* :func:`consolidate` -- bag difference (``EXCEPT ALL``: per distinct row,
  the left multiplicity less the right one, where positive) and, with
  nothing to subtract, ``DISTINCT``: one exact integer tally per input over
  the rows' codes, as an index into the left input.

Materialized-view maintenance and catalog deletes read codes too:
:func:`rows_holding` finds the rows holding some values (a view's dirty
slice, a delete's candidates) by one table lookup per row.

Multiplicities travel as a counts column; no kernel duplicates a tuple.

Every kernel has a scalar twin in :mod:`repro.engine.sweeps` that defines
its result and serves what it declines by returning ``None`` -- the one
scalar definition of the algorithm, which the row reference runs too:
``join`` (``partition_by_keys`` + ``interval_sweep``), ``split``
(``collect_group_endpoints`` + ``split_segments``), and for the step sweep
``temporal_aggregate`` and ``monus``, whose entries it lists in the same
order; for :func:`consolidate`, ``except_all`` and the ``dict.fromkeys`` of
:func:`repro.engine.batch._distinct`.  That kernel
declines nothing (any value has a code, a tally past int64 is kept in Python
ints): its twin serves below the cutover, without numpy, and an input that
arrives as row tuples already built.  The others decline NULL or non-``int``
end points (``bool`` and ``float`` included: the kernels would print them as
ints), a packed code that would not fit (``codes * span >= 2**62``), a
weighted step function whose multiplicities could sum past int64 and, for
aggregation, a ``sum``/``avg``/``min``/``max`` argument that is not
``int``-or-NULL (``bool``/``float``, or past int64) or a sum that could
leave int64.  Every caller -- join, split, aggregation, the step-function
sweep (coalescing, temporal difference and distinct), bag difference,
``DISTINCT``, and the operators that merely carry
forms along (a filtering selection, REWR's period intersection, a union) -- asks
:func:`worthwhile` first, and of the sizes nothing else; that one rule also
covers a numpy-less install, where no column ever has a typed form: below
:data:`KERNEL_CUTOVER` input rows the array set-up costs more than the
scalar sweep (measured in EXPERIMENTS.md, "The engine and its reference").

This is the one module that imports numpy; it imports nothing else from the
package.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

try:  # optional: every kernel declines without it and the scalar twin runs
    import numpy as np
except ImportError:  # the CI leg without numpy runs this branch
    np = None  # type: ignore[assignment]

__all__ = [
    "KERNEL_CUTOVER",
    "worthwhile",
    "Column",
    "factorize",
    "pack_span",
    "first_rows",
    "run_starts",
    "gather",
    "gather_columns",
    "kept_rows",
    "rows_except",
    "expand_ranges",
    "constant_ints",
    "period_bound",
    "interval_join_vectorized",
    "paired_rows",
    "split_segments_vectorized",
    "temporal_aggregate_vectorized",
    "monus_vectorized",
    "consolidate",
    "rows_holding",
]

Row = Tuple[Any, ...]
#: Limit check between kernel stages: ``checkpoint(rows_about_to_exist)``.
Checkpoint = Optional[Callable[[int], None]]

#: Packed ``code * span + offset`` values stay below this, so one more
#: doubling (the step-function kernel's rise bit) still fits a signed 64-bit lane.
PACK_LIMIT = 1 << 62

#: Combined input rows from which an operator tries its kernel.  Fixed, not
#: settable: join, split, coalescing and ``min``/``max`` aggregation cross
#: over at 60-190 rows on both input shapes the benchmark has,
#: ``count``/``sum``/``avg`` aggregation near 40
#: (``benchmarks/kernel_cutover.py``, table in EXPERIMENTS.md); 256 is past
#: all of them and keeps 32-row plans entirely scalar.
KERNEL_CUTOVER = 256

#: Cells of the packed ``(group, time)`` grid per event up to which temporal
#: aggregation counts its events per cell instead of sorting them.  Fixed,
#: not settable: counting took 0.6-0.8x the sort's time at 8 cells per
#: event from 256 to 64 000 rows, and 0.85-1.5x at 16 from 2 048 rows up
#: (EXPERIMENTS.md, "Temporal aggregation counts, and its coalesce merges
#: runs").  The grid's arrays then hold at most this many cells per event,
#: so their memory is bounded by the input's.
DENSE_GRID = 8

#: Candidate pairs the join kernel expands between two limit checks.  A block
#: is index arrays only (16 bytes a pair), so its size trades per-block numpy
#: overhead against how long a residual-heavy join runs between two looks at
#: the deadline and how many rejected candidates are alive at once
#: (EXPERIMENTS.md, "The engine and its reference").
PAIR_BLOCK = 1 << 14

_NONE = type(None)
_UNSET: Any = object()


def worthwhile(rows: int) -> bool:
    """Whether an operator over ``rows`` input rows should try its kernel."""
    return np is not None and rows >= KERNEL_CUTOVER


# -- the column -------------------------------------------------------------------------


def _int_form(values: List[Any]) -> Optional[Tuple[Any, Any]]:
    """``(int64 array, validity mask)`` of a values list, or ``None``.

    The mask is ``None`` when every entry is an ``int``; NULL entries read 0
    under a ``False`` mask bit.  The ``type`` scan is exact on purpose:
    ``bool``/``float`` entries would come back *out* of a kernel as ints.
    """
    if values and type(values[0]) not in (int, _NONE):
        return None  # the common miss (a string column) without the scan
    types = set(map(type, values))
    if not types <= {int, _NONE}:
        return None
    try:
        if _NONE not in types:
            return np.asarray(values, dtype=np.int64), None
        valid = np.asarray([value is not None for value in values], dtype=bool)
        return np.asarray([value or 0 for value in values], dtype=np.int64), valid
    except OverflowError:
        return None


def _code_form(values: List[Any]) -> Tuple[Any, Dict[Any, int]]:
    """``(codes, dictionary)``: equal codes exactly where a ``dict`` finds the values equal.

    The dictionary maps each distinct value (NULL included) to its code, in
    first-seen order.  It says which values are *equal*, never what a row
    prints: ``1``, ``1.0`` and ``True`` share one code.
    """
    # Two passes at C speed -- distinct values in first-seen order, then one
    # lookup per row -- around a Python loop over the distinct values only.
    dictionary: Dict[Any, int] = dict.fromkeys(values)  # type: ignore[arg-type]
    for code, value in enumerate(dictionary):
        dictionary[value] = code
    codes = np.fromiter(map(dictionary.__getitem__, values), np.int64, len(values))
    return codes, dictionary


def _all_int(form: Any) -> bool:
    """Whether an int form has been derived and has no NULL entry."""
    return form is not _UNSET and form is not None and form[1] is None


def _joined_ints(forms: Sequence[Tuple[Any, Any]]) -> Tuple[Any, Any]:
    """The int form of columns laid end to end, from the int form each one has."""
    arrays = [array for array, _ in forms]
    valid = None
    if any(mask is not None for _, mask in forms):
        valid = np.concatenate(
            [np.ones(len(array), dtype=bool) if mask is None else mask for array, mask in forms]
        )
    return np.concatenate(arrays), valid


class Column:
    """One attribute of a batch: a ``values`` list and, lazily, its typed form.

    Built one of five ways -- around a values list (``Column(values)``),
    around an int64 array a kernel produced (``Column(ints=array)``), as the
    rows ``at`` of another column (:meth:`gathered`), as two columns laid end
    to end (:meth:`concatenated`), or as a stored table column's successor
    under DML or a slice of it (:meth:`extended`, :meth:`kept`).  Whichever
    parts are missing are derived on first use and kept: ``values`` by
    ``.tolist()``, by gathering the source's list, by adding the two lists or
    by reading the stored rows, the int form by one exact type scan or from the source's
    (the two halves') arrays, the codes by one dict pass or from the source's
    codes (the dictionary is shared; a second half's is mapped into the
    first's).  Nothing here is ever mutated once derived, so columns may be
    shared between batches, queries and threads.
    """

    __slots__ = ("_values", "_ints", "_codes", "_source", "_at", "_halves", "_load")

    def __init__(
        self,
        values: Optional[List[Any]] = None,
        ints: Any = None,
        load: Optional[Callable[[], List[Any]]] = None,
    ) -> None:
        self._values = values
        self._ints: Any = _UNSET if ints is None else (ints, None)
        self._codes: Optional[Tuple[Any, Dict[Any, int]]] = None
        self._source: Optional[Column] = None
        self._at: Any = None
        self._halves: Optional[Tuple[Column, Column]] = None
        #: Reads the values list of a stored column the first time it is asked for.
        self._load = load

    @classmethod
    def gathered(cls, source: "Column", at: Any) -> "Column":
        """``source`` at the int64 index array ``at``; nothing is read yet."""
        column = cls()
        column._source = source
        column._at = at
        return column

    @classmethod
    def concatenated(cls, first: "Column", second: "Column") -> "Column":
        """``first`` followed by ``second`` (a union's output); nothing is read yet."""
        column = cls()
        column._halves = (first, second)
        return column

    def extended(self, tail: Sequence[Any], load: Callable[[], List[Any]]) -> "Column":
        """This column followed by ``tail``: the successor of a stored column under an insert.

        Whatever form was derived here is carried by scanning the tail alone,
        under :func:`_int_form`'s and :func:`_code_form`'s own rules: an int
        column that receives anything but an ``int`` or NULL is known not to
        be one, a new value gets the dictionary's next code (the dictionary
        is copied first -- this column keeps its own).  What was never asked
        for here is not derived; ``load()`` reads the values list if someone
        asks.  The new column holds no reference to this one.
        """
        column = Column(load=load)
        form = self._ints
        if form is None:
            column._ints = None
        elif form is not _UNSET:
            added = _int_form(list(tail))
            column._ints = None if added is None else _joined_ints((form, added))
        if self._codes is not None:
            codes, dictionary = self._codes
            unseen = [value for value in dict.fromkeys(tail) if value not in dictionary]
            if unseen:
                dictionary = dict(dictionary)
                for value in unseen:
                    dictionary[value] = len(dictionary)
            tail_codes = np.fromiter(map(dictionary.__getitem__, tail), np.int64, len(tail))
            column._keep_codes(np.concatenate([codes, tail_codes]), dictionary)
        return column

    def kept(self, at: Any, load: Callable[[], List[Any]]) -> "Column":
        """The rows ``at`` of this column: a stored column's successor under a delete, or a slice.

        The forms derived here are gathered exactly as :meth:`gathered`
        would gather them, now, so that the new column can let go of this one.
        """
        column = Column.gathered(self, at)
        if self._ints is not _UNSET:
            column.nullable_ints()
        if self._codes is not None:
            column._keep_codes(self._codes[0][at], self._codes[1])
        column._source = column._at = None
        column._load = load
        return column

    def _keep_codes(self, codes: Any, dictionary: Dict[Any, int]) -> None:
        # A carried dictionary only grows (a delete leaves its entries behind):
        # once it is larger than the column, deriving it afresh is the cheaper pass.
        if len(dictionary) <= len(codes):
            self._codes = (codes, dictionary)

    def __len__(self) -> int:
        if self._values is not None:
            return len(self._values)
        if self._source is not None:
            return len(self._at)
        if self._halves is not None:
            return len(self._halves[0]) + len(self._halves[1])
        if self._ints is not _UNSET and self._ints is not None:
            return len(self._ints[0])
        return len(self.values)

    def _origin(self) -> Tuple["Column", Any]:
        """``(source, at)``, with a chain of unread gathers folded into one index."""
        source, at = self._source, self._at
        assert source is not None
        while source._values is None and source._source is not None:
            at = source._at[at]
            source = source._source
        self._source, self._at = source, at
        return source, at

    @property
    def values(self) -> List[Any]:
        """The column as a Python list of Python values (shared: never mutate)."""
        values = self._values
        if values is None:
            held, source, at = self._ints, None, None
            if not _all_int(held) and self._source is not None:
                source, at = self._origin()
                held = source._ints  # read it only if someone derived it already
            if _all_int(held):
                values = (held[0] if at is None else held[0][at]).tolist()
            elif self._halves is not None:
                values = self._halves[0].values + self._halves[1].values
            elif source is None:
                values = self._load()
            else:
                values = gather(source.values, at.tolist())
            self._values = values
        return values

    def nullable_ints(self) -> Optional[Tuple[Any, Any]]:
        """``(int64 array, validity mask or None)``, or ``None`` unless int-or-NULL typed.

        A gathered column answers from its source's form alone: rows picked
        out of a column that is not int typed are not scanned again (they
        take the scalar route even if they happen to be all ints).
        """
        form = self._ints
        if form is _UNSET:
            if self._halves is not None:
                # Int typed when both halves are, by their own forms alone.
                first = self._halves[0].nullable_ints()
                second = None if first is None else self._halves[1].nullable_ints()
                form = None if second is None else _joined_ints((first, second))
            elif self._source is None:
                form = _int_form(self.values)
            else:
                source, at = self._origin()
                form = source.nullable_ints()
                if form is not None:
                    array, valid = form
                    if valid is not None:
                        valid = valid[at]
                        if valid.all():
                            valid = None
                    form = (array[at], valid)
            self._ints = form
        return form

    def ints(self) -> Any:
        """The column as an int64 array, or ``None`` unless every entry is an ``int``."""
        form = self.nullable_ints()
        return form[0] if _all_int(form) else None

    def known_codes(self) -> Optional[Tuple[Any, Dict[Any, int]]]:
        """:meth:`codes` if they are derived or carried already, else ``None``; scans nothing."""
        return self._codes

    def codes(self) -> Tuple[Any, Dict[Any, int]]:
        """Dict-equality codes of the rows and the value -> code dictionary."""
        coded = self._codes
        if coded is None:
            if self._source is not None:
                source, at = self._origin()
                codes, dictionary = source.codes()
                coded = (codes[at], dictionary)
            elif self._halves is not None:
                halves, dictionary = _shared_codes(self._halves)
                coded = (np.concatenate(halves), dictionary)
            else:
                coded = _code_form(self.values)
            self._codes = coded
        return coded


def gather(column: Sequence[Any], indexes: Sequence[int]) -> List[Any]:
    """The entries of a Python list at ``indexes``, in their order."""
    return gather_columns((column,), indexes)[0]


def gather_columns(columns: Sequence[Sequence[Any]], indexes: Sequence[int]) -> List[List[Any]]:
    """:func:`gather` of every list in ``columns`` at the same ``indexes``.

    One ``itemgetter`` picks the entries of all of them at C speed (0.65-0.8x
    the time of a list comprehension per column, 30 to 10 000 indexes).
    """
    if len(indexes) < 2:  # itemgetter returns a bare item for one index, and needs one
        return [[column[i] for i in indexes] for column in columns]
    pick = itemgetter(*indexes)
    return [list(pick(column)) for column in columns]


def kept_rows(mask: Sequence[Any]) -> Any:
    """Index array of a selection mask's truthy entries (Python truthiness)."""
    return np.asarray(list(compress(range(len(mask)), mask)), dtype=np.int64)


def rows_except(count: int, doomed: Sequence[int]) -> Any:
    """Index array of ``range(count)`` without the positions ``doomed``."""
    keep = np.ones(count, dtype=bool)
    keep[np.asarray(doomed, dtype=np.int64)] = False
    return np.flatnonzero(keep)


def constant_ints(value: Any, n: int) -> Optional[Column]:
    """``n`` copies of a plain ``int`` as a column born typed, or ``None``.

    REWR's ``1 AS __agg_arg_0`` (Fig. 4's ``count(*)`` rule) above the
    cutover: no values list is built unless someone reads it, and no kernel
    scans one.  ``None`` for anything else -- ``True``, ``1.0``, a string,
    NULL, an int past int64 -- which keeps its values list.
    """
    if type(value) is not int or not -(1 << 63) <= value < 1 << 63:
        return None
    return Column(ints=np.full(n, value, dtype=np.int64))


def period_bound(latest: bool, first: Column, second: Column) -> Optional[Column]:
    """``greatest``/``least`` of two all-int columns as one array operation.

    REWR's period intersection above every join.  ``None`` unless both
    columns are int typed (a NULL end point takes the expression's own NULL
    rules, i.e. the scalar path).
    """
    left, right = first.ints(), second.ints()
    if left is None or right is None:
        return None
    return Column(ints=(np.maximum if latest else np.minimum)(left, right))


# -- the primitive: factorise, pack, expand ---------------------------------------------


def factorize(
    column_sets: Sequence[Sequence[Column]],
    lengths: Sequence[int],
    nulls_match: bool,
) -> Tuple[List[Any], int]:
    """Group codes for the key columns of one or more inputs, in one code space.

    ``column_sets[i]`` holds input i's key columns (the same number for
    every input, possibly zero) and ``lengths[i]`` its row count.  Returns
    one int64 code array per input plus the exclusive upper bound of the
    codes; rows get equal codes exactly when their keys are equal the way a
    ``dict`` finds them equal (what the scalar paths partition with).
    ``nulls_match=False`` is the join reading of SQL NULL: a row with a NULL
    key gets a code no row of another input has.

    Each key position contributes one digit per row, taken from the columns'
    typed forms (:func:`_digits`: no key column is scanned here that was
    scanned before); the digits combine mixed-radix and are made dense with
    ``np.unique`` whenever the radix product is sparser than the rows.
    """
    if not column_sets[0]:
        return [np.zeros(n, dtype=np.int64) for n in lengths], 1
    codes = nulls = None
    capacity = 1
    for columns in zip(*column_sets):
        digits, width, null = _digits(columns)
        if null is not None and not nulls_match:
            nulls = digits == null if nulls is None else nulls | (digits == null)
        if codes is None:
            codes, capacity = digits, width
            continue
        if capacity * width >= PACK_LIMIT:
            codes, capacity = _dense(codes)
            digits, width = _dense(digits)
        codes = codes * width + digits
        capacity *= width
    if capacity > len(codes):
        codes, capacity = _dense(codes)
    if len(lengths) == 1:
        return [codes], capacity  # possibly the column's own codes: read-only
    cuts = np.cumsum(lengths)[:-1]
    per_input = np.split(codes, cuts)
    if nulls is not None and nulls.any():
        # ``codes`` is this call's own array (a concatenation), so the NULL
        # rows can be renumbered in place: one fresh code per input.
        for position, (array, mask) in enumerate(zip(per_input, np.split(nulls, cuts))):
            array[mask] = capacity + position
        capacity += len(per_input)
    return per_input, capacity


def _digits(columns: Sequence[Column]) -> Tuple[Any, int, Optional[int]]:
    """One key position of every input: ``(digits, width, NULL's digit or None)``.

    The digits of all inputs are concatenated and lie in ``[0, width)``.
    All-int columns are offset by their minimum; otherwise the columns'
    dict-equality codes are used, in one code space (:func:`_shared_codes`).
    """
    arrays = [column.ints() for column in columns]
    if all(array is not None for array in arrays):
        digits = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        low = int(digits.min())
        width = int(digits.max()) - low + 1
        if width >= PACK_LIMIT:
            return (*_dense(digits), None)
        return digits - low, width, None
    parts, merged = _shared_codes(columns)
    digits = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return digits, len(merged), merged.get(None)


def _shared_codes(columns: Sequence[Column]) -> Tuple[List[Any], Dict[Any, int]]:
    """Every column's dict-equality codes in the first one's code space, and its dictionary.

    A later column's dictionary is mapped into the first's value by value --
    O(distinct values), not O(rows) -- and the values only it holds get the
    next codes of a copy: a column's own dictionary is never extended.
    """
    first = columns[0].codes()[1]
    merged = first
    parts = []
    for column in columns:
        codes, dictionary = column.codes()
        if dictionary is not first:
            if merged is first:
                merged = dict(first)
            setdefault = merged.setdefault
            remap = np.asarray(
                [setdefault(value, len(merged)) for value in dictionary], dtype=np.int64
            )
            codes = remap[codes]
        parts.append(codes)
    return parts, merged


def _dense(codes: Any) -> Tuple[Any, int]:
    """The codes renumbered ``0..n-1`` in sorted order, and ``n``."""
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse, len(uniques)


def pack_span(n_codes: int, times: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """``(lo, span)`` such that ``code * span + t - lo`` orders by ``(code, t)``.

    ``times`` are the int64 arrays holding every time value that will be
    packed; ``None`` when the largest packed value would reach
    :data:`PACK_LIMIT` (the caller declines rather than wrap around).
    """
    filled = [array for array in times if len(array)]
    lo = min(int(array.min()) for array in filled)
    span = max(int(array.max()) for array in filled) - lo + 1
    if n_codes * span >= PACK_LIMIT:
        return None
    return lo, span


def first_rows(codes: Any, n_codes: int) -> Any:
    """Per code, the index of the first row carrying it (0 for absent codes).

    The scalar paths print a group under its first-seen key; gathering the
    key columns at these rows does the same without decoding any code.
    """
    first = np.zeros(n_codes, dtype=np.int64)
    # Repeated indices keep the last value assigned: walk the rows backwards.
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def run_starts(sorted_codes: Any) -> Any:
    """Start index of every run of equal values in a sorted, non-empty array."""
    boundary = np.empty(len(sorted_codes), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def expand_ranges(lo: Any, hi: Any) -> Tuple[Any, Any]:
    """All (head, tail) index pairs with ``tail`` in ``[lo[head], hi[head])``.

    The ranges come from two ``searchsorted`` calls, so each is contiguous;
    repeat/cumsum/arange expand them into flat pair arrays at C speed.
    """
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    heads = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    tails = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, counts)
    return heads, tails


# -- (1) keyed interval join ------------------------------------------------------------


def interval_join_vectorized(
    left_keys: Sequence[Column],
    right_keys: Sequence[Column],
    left_period: Tuple[Column, Column],
    right_period: Tuple[Column, Column],
    left_counts: Optional[Sequence[int]],
    right_counts: Optional[Sequence[int]],
    keep: Optional[Callable[[Any, Any], Sequence[Any]]],
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[Any, Any, Optional[List[int]]]]:
    """Interval-overlap join on equal keys, as index pairs.

    Same pairing rule as :func:`repro.engine.sweeps.interval_sweep` split
    into two disjoint cases -- pairs whose left row starts first (ties
    included) and pairs whose right row starts strictly first -- each solved
    for *all* head rows of *all* key groups at once: sort one side by packed
    ``(key code, begin)``, locate every head's candidates with two
    ``searchsorted`` calls (the lower bounds run over needles already in
    sorted order, which binary-searches markedly faster) and expand the
    ranges to flat index pairs.  The other strict comparison holds
    automatically for well-formed intervals; a per-pair mask enforces it
    only when degenerate (``end <= begin``) intervals are present.

    ``*_keys`` are the equality-key columns (zero allowed), ``*_period`` the
    (begin, end) columns and ``*_counts`` the multiplicities (``None`` = all
    ones).  Returns ``(left_index, right_index, counts)`` -- output entry k
    is left row ``left_index[k]`` beside right row ``right_index[k]``,
    ``counts`` (Python ints: a product may not wrap) ``None`` when all ones
    -- or ``None`` (declined) as the module docstring lists.  No row is
    built and no data column touched: the caller gathers what it reads.

    Candidates are expanded :data:`PAIR_BLOCK` at a time.  Before each block
    ``checkpoint`` sees the deadline and the rows produced so far -- plus,
    without a residual, the block's own pairs, so an over-budget join is
    refused while all that exists of it is index arrays -- and ``keep``, the
    caller's residual, maps a block's ``(left_index, right_index)`` to a
    mask of the pairs that stay, so a join that keeps few of its candidates
    holds one block of them at a time.
    """
    n_left, n_right = len(left_period[0]), len(right_period[0])
    if not n_left or not n_right:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, None
    lb, le = left_period[0].ints(), left_period[1].ints()
    rb, re = right_period[0].ints(), right_period[1].ints()
    if lb is None or le is None or rb is None or re is None:
        return None
    (left_codes, right_codes), n_codes = factorize(
        (left_keys, right_keys), (n_left, n_right), nulls_match=False
    )
    packing = pack_span(n_codes, (lb, le, rb, re))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    left_base = left_codes * span - lo
    right_base = right_codes * span - lo
    left_begins = left_base + lb
    right_begins = right_base + rb
    left_order = np.argsort(left_begins)
    right_order = np.argsort(right_begins)
    sorted_left = left_begins[left_order]
    sorted_right = right_begins[right_order]
    # With no degenerate intervals the second overlap comparison is implied
    # by the range bounds (rb >= lb and re > rb give re > lb), so the
    # per-pair masks -- two gathers and two compares -- can be skipped.
    check_degenerate = bool((le <= lb).any() or (re <= rb).any())

    # Case A -- left head starts first (lb <= rb): candidates are its key
    # group's right rows with rb in [lb, le).  Case B -- right head starts
    # strictly first (rb < lb): its key group's left rows with lb in (rb, re).
    cases = (
        (
            left_order,
            right_order,
            np.searchsorted(sorted_right, sorted_left, side="left"),
            np.searchsorted(sorted_right, (left_base + le)[left_order], side="left"),
        ),
        (
            right_order,
            left_order,
            np.searchsorted(sorted_left, sorted_right, side="right"),
            np.searchsorted(sorted_left, (right_base + re)[right_order], side="left"),
        ),
    )
    weighted = left_counts is not None or right_counts is not None
    if weighted:
        # Python ints: a product of multiplicities may not wrap.
        left_weights = np.asarray(left_counts or [1] * n_left, dtype=object)
        right_weights = np.asarray(right_counts or [1] * n_right, dtype=object)
    left_blocks, right_blocks = [], []
    counts: List[int] = []
    produced = 0
    for heads_are_right, (head_order, tail_order, first, last) in enumerate(cases):
        for start, stop in _pair_blocks(first, last):
            heads, tails = expand_ranges(first[start:stop], last[start:stop])
            left_index = head_order[start:stop][heads]
            right_index = tail_order[tails]
            if heads_are_right:
                left_index, right_index = right_index, left_index
            if check_degenerate:
                mask = (re[right_index] > lb[left_index]) & (le[left_index] > rb[right_index])
                left_index, right_index = left_index[mask], right_index[mask]
            weights = (
                (left_weights[left_index] * right_weights[right_index]).tolist()
                if weighted
                else None
            )
            if checkpoint is not None:
                pairs = len(left_index) if weights is None else sum(weights)
                checkpoint(produced + (pairs if keep is None else 0))
            if keep is not None:
                kept = kept_rows(keep(left_index, right_index))
                left_index, right_index = left_index[kept], right_index[kept]
                if weights is not None:
                    weights = gather(weights, kept.tolist())
            left_blocks.append(left_index)
            right_blocks.append(right_index)
            if weights is None:
                produced += len(left_index)
            else:
                counts += weights
                produced += sum(weights)
    return (
        np.concatenate(left_blocks),
        np.concatenate(right_blocks),
        counts if weighted else None,
    )


def paired_rows(
    left_rows: Sequence[Row], left_index: Any, right_rows: Sequence[Row], right_index: Any
) -> List[Row]:
    """``left_rows[i] + right_rows[j]`` for every index pair of a join.

    The one way a kernel-served join becomes row tuples.  Object arrays of
    the input tuples: a fancy-indexed ``+`` concatenates a block of pairs in
    C, whatever the pairs-per-head density -- 2.6x faster on a 2 M-row
    result than transposing ten gathered columns (EXPERIMENTS.md) -- in
    blocks of :data:`PAIR_BLOCK` so a block's new tuples are still cached
    when they are appended.
    """
    left = np.fromiter(left_rows, dtype=object, count=len(left_rows))
    right = np.fromiter(right_rows, dtype=object, count=len(right_rows))
    rows: List[Row] = []
    for start in range(0, len(left_index), PAIR_BLOCK):
        stop = start + PAIR_BLOCK
        rows += (left[left_index[start:stop]] + right[right_index[start:stop]]).tolist()
    return rows


def _pair_blocks(first: Any, last: Any) -> List[Tuple[int, int]]:
    """Head ranges ``[start, stop)`` expanding to about :data:`PAIR_BLOCK` pairs each."""
    sizes = np.cumsum(np.maximum(last - first, 0))
    total = int(sizes[-1])
    if total <= PAIR_BLOCK:
        return [(0, len(first))]
    cuts = np.searchsorted(sizes, np.arange(PAIR_BLOCK, total, PAIR_BLOCK)) + 1
    edges = np.unique(np.concatenate([[0], cuts, [len(first)]])).tolist()
    return list(zip(edges, edges[1:]))


# -- (2) split --------------------------------------------------------------------------


def split_segments_vectorized(
    left_keys: Sequence[Column],
    left_begins: Column,
    left_ends: Column,
    right_keys: Sequence[Column],
    right_begins: Column,
    right_ends: Column,
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[Any, Column, Column]]:
    """Cut every left interval at its group's end points, whole-column.

    Vector twin of :func:`repro.engine.sweeps.collect_group_endpoints` +
    :func:`~repro.engine.sweeps.split_segments`, with the same result
    ``(row_indexes, piece_begins, piece_ends)`` in the same order -- the row
    indexes as an int64 array to gather the data columns at, the pieces as
    int columns.  The distinct packed ``(group, end point)`` values of
    *both* inputs are sorted once; a row's own begin and end are among them,
    so its pieces are the consecutive pairs of one contiguous slice -- two
    exact ``searchsorted`` hits and one :func:`expand_ranges`.  Degenerate
    rows contribute cut points and vanish, as in the scalar path.
    """
    lb, le = left_begins.ints(), left_ends.ints()
    rb, re = right_begins.ints(), right_ends.ints()
    if lb is None or le is None or rb is None or re is None:
        return None
    if not len(lb):
        return lb, Column(ints=lb), Column(ints=lb)
    (left_codes, right_codes), n_codes = factorize(
        (left_keys, right_keys), (len(lb), len(rb)), nulls_match=True
    )
    packing = pack_span(n_codes, (lb, le, rb, re))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    left_base = left_codes * span - lo
    right_base = right_codes * span - lo
    left_begin_codes = left_base + lb
    left_end_codes = left_base + le
    points = np.concatenate(
        [left_begin_codes, left_end_codes, right_base + rb, right_base + re]
    )
    points.sort()
    points = points[run_starts(points)]
    if checkpoint is not None:
        checkpoint(0)
    rows = np.flatnonzero(lb < le)
    heads, tails = expand_ranges(
        np.searchsorted(points, left_begin_codes[rows]),
        np.searchsorted(points, left_end_codes[rows]),
    )
    row_indexes = rows[heads]
    base = left_base[row_indexes]
    return (
        row_indexes,
        Column(ints=points[tails] - base),
        Column(ints=points[tails + 1] - base),
    )


# -- (3) step functions: temporal aggregation, coalescing, difference and distinct ------


def temporal_aggregate_vectorized(
    key_columns: Sequence[Column],
    begins: Column,
    ends: Column,
    counts: Optional[Sequence[int]],
    aggregates: Sequence[Tuple[str, Optional[Column]]],
    checkpoint: Checkpoint = None,
) -> Optional[Tuple[Any, List[Column], Column, Column, bool]]:
    """The five aggregates over the segments between a group's end points, coalesced.

    Vector twin of :func:`repro.engine.sweeps.temporal_aggregate`: the step
    sweep's ``(group_rows, value_columns, begins, ends, dense)`` of one
    input (:func:`_step_sweep`).  ``aggregates`` pairs each function with
    its evaluated argument column (``None`` for ``count(*)``).
    A NULL argument keeps its row open and takes no part in the value; a
    segment with no non-NULL argument prints ``None`` (0 for ``count``).
    Sums are exact int64 -- the kernel declines when ``max|value| * total
    multiplicity`` could leave the lane -- and ``avg`` divides Python ints,
    so every value equals the scalar sweep's bit for bit.
    """
    return _step_sweep(key_columns, begins, ends, counts, None, aggregates, checkpoint)


def monus_vectorized(
    key_columns: Sequence[Column],
    begins: Column,
    ends: Column,
    counts: Optional[Sequence[int]],
    subtrahend: Optional[
        Tuple[Sequence[Column], Column, Column, Optional[Sequence[int]]]
    ] = None,
    checkpoint: Checkpoint = None,
    *,
    distinct: bool = False,
) -> Optional[Tuple[Any, Column, Column, List[int]]]:
    """Coalescing, temporal bag difference or distinct: ``(rows, begins, ends, counts)``.

    Vector twin of :func:`repro.engine.sweeps.monus`: the step sweep
    (:func:`_step_sweep`) with ``count(*)`` over signed multiplicities as
    the level -- the first input's rows weigh ``+count``, the
    ``subtrahend``'s ``-count``, so it is ``l`` or ``max(l - r, 0)`` where
    a segment is open -- and, for ``distinct``, no aggregate at all: its
    level is 1 wherever a segment is open.  ``checkpoint`` sees the output
    weight, the sum of the levels, last; the core's count of segments is
    not a monus's output.
    """
    level_of = () if distinct else (("count", None),)
    polled = None if checkpoint is None else (lambda _segments: checkpoint(0))
    served = _step_sweep(key_columns, begins, ends, counts, subtrahend, level_of, polled)
    if served is None:
        return None
    rows, levels, segment_begins, segment_ends, _dense = served
    level = levels[0].ints() if levels else np.ones(len(rows), dtype=np.int64)
    if checkpoint is not None:
        checkpoint(int(level.sum()))
    return rows, segment_begins, segment_ends, level.tolist()


def _step_sweep(
    key_columns: Sequence[Column],
    begins: Column,
    ends: Column,
    counts: Optional[Sequence[int]],
    subtrahend: Optional[Tuple[Sequence[Column], Column, Column, Optional[Sequence[int]]]],
    aggregates: Sequence[Tuple[str, Optional[Column]]],
    checkpoint: Checkpoint,
) -> Optional[Tuple[Any, List[Column], Column, Column, bool]]:
    """Per value group, the maximal intervals of equal aggregates over open rows.

    Every valid row (``begin < end``) is a rise of its group's step function
    at its begin and a fall at its end, weighing its multiplicity
    (``counts``, ``None`` = all ones); a ``subtrahend`` row, in the same
    layout, rises at its end and falls at its begin, and counts only where
    a valid row of the first input holds its key.  The keys of both inputs
    are factorised into one code space, the groups numbered by their first
    valid row (what the scalar twins list them by) and the events packed as
    ``(group, time)`` (:func:`pack_span`).  Their tally per point -- the
    grid cells some event falls in, ascending -- takes one of three routes
    with the same points and states bit for bit: counted per cell where the
    grid holds at most :data:`DENSE_GRID` cells per event
    (:func:`_tally_dense`), plain-sorted where every event weighs one and
    nothing else is measured (:func:`_tally_plain`), ``argsort``-ed
    otherwise (:func:`_tally_sorted`).  One ``cumsum`` per measure gives
    the state after each point; a segment runs from a point whose open
    weight is positive to the next point.  ``min``/``max`` are not
    invertible: a row is a range of its group's segments, and
    :func:`_segment_extremes` folds every row's value into them.  A segment
    touching the one before it in its group with equal values joins its run
    (:func:`_runs`), so the output is the coalesced encoding.

    Returns ``(group_rows, value_columns, begins, ends, dense)`` -- group by
    group, each in time order; ``group_rows[k]`` is the first valid row of
    entry k's group, and ``dense`` says which route tallied -- or ``None``
    (declined) as the module docstring lists.  ``checkpoint`` is polled
    between the stages, last with the segments about to be valued.
    """
    b, e = begins.ints(), ends.ints()
    if b is None or e is None:
        return None
    right_counts = None
    if subtrahend is not None:
        right_keys, right_begin_column, right_end_column, right_counts = subtrahend
        right_b, right_e = right_begin_column.ints(), right_end_column.ints()
        if right_b is None or right_e is None:
            return None
    weighted = counts is not None or right_counts is not None
    if weighted and sum(counts or ()) + sum(right_counts or ()) >= PACK_LIMIT:
        return None
    rows = np.flatnonzero(b < e)
    if not len(rows):
        nothing = Column(ints=rows)
        return rows, [nothing for _ in aggregates], nothing, nothing, False
    weights = None if counts is None else np.asarray(counts, dtype=np.int64)[rows]
    scale = 1 if weights is None else weights

    # One int64 measure per running quantity; measure 0 is the open weight
    # (``None`` while every event weighs one).
    # plan: (func, count measure, sum measure or -- min/max -- argument slot).
    measures = [weights]
    arguments: List[Tuple[Any, Any]] = []  # (values, present) of the valid rows
    plan: List[Tuple[str, int, int]] = []
    for func, column in aggregates:
        count_at = value_at = 0
        if column is not None:
            form = column.nullable_ints()
            if func != "count" and form is None:
                return None
            present = _present(column) if form is None else form[1]
            if present is not None:
                present = present[rows]
                measures.append(scale * present)
                count_at = len(measures) - 1
            if func in ("sum", "avg"):
                values = form[0][rows]
                largest = max(abs(int(values.max())), abs(int(values.min())))
                if largest * (len(rows) if weights is None else int(weights.sum())) >= PACK_LIMIT:
                    return None
                measures.append(scale * values)
                value_at = len(measures) - 1
            elif func != "count":
                arguments.append((form[0][rows], present))
                value_at = len(arguments) - 1
        plan.append((func, count_at, value_at))

    if subtrahend is None:
        (codes,), n_codes = factorize((key_columns,), (len(b),), nulls_match=True)
    else:
        (codes, right_codes), n_codes = factorize(
            (key_columns, right_keys), (len(b), len(right_b)), nulls_match=True
        )
    codes, b, e = codes[rows], b[rows], e[rows]
    # Groups are numbered by their first valid row, the order the twins list them in.
    first = openers = first_rows(codes, n_codes)
    gids = codes
    if not (first[1:] > first[:-1]).all():  # unless every code is held, in that order
        opening = np.zeros(len(rows), dtype=bool)
        opening[first] = True  # a code no row holds points at row 0, which opens anyway
        openers = np.flatnonzero(opening)
        number = np.full(n_codes, -1, dtype=np.int64)
        number[codes[openers]] = np.arange(len(openers), dtype=np.int64)
        gids = number[codes]
        if subtrahend is not None:
            right_codes = number[right_codes]  # -1: no valid row holds the code
    if subtrahend is not None:
        kept = np.flatnonzero((right_b < right_e) & (right_codes >= 0))
        gids = np.concatenate([gids, right_codes[kept]])
        # Mirrored: a subtrahend row raises l - r at its end and lowers it at its begin.
        b, e = np.concatenate([b, right_e[kept]]), np.concatenate([e, right_b[kept]])
        if weighted:
            left = np.ones(len(rows), dtype=np.int64) if weights is None else weights
            right = np.asarray(right_counts or [1] * len(right_b), dtype=np.int64)[kept]
            measures[0] = np.concatenate([left, right])
    packing = pack_span(len(openers), (b, e))
    if packing is None:
        return None
    lo, span = packing
    if checkpoint is not None:
        checkpoint(0)
    base = gids * span - lo
    rises, falls = base + b, base + e
    cells = len(openers) * span
    dense = cells <= DENSE_GRID * 2 * len(rises)
    if dense:
        points, states = _tally_dense(rises, falls, cells, measures)
    elif len(measures) == 1 and measures[0] is None:
        points, states = _tally_plain(rises, falls)
    else:
        points, states = _tally_sorted(rises, falls, measures)
    if checkpoint is not None:
        checkpoint(0)
    # A group's last point closes everything, so an open point's successor
    # is always a point of the same group.
    open_points = np.flatnonzero(states[0][:-1] > 0)
    if checkpoint is not None:
        checkpoint(len(open_points))
    if arguments:
        # A row spans the segments from its begin's point up to its end's.
        first_segment = np.searchsorted(points, rises)
        last_segment = np.searchsorted(points, falls)
    groups = points[open_points] // span
    group_rows = rows[openers[groups]]
    segment_begins = points[open_points] - groups * span + lo
    segment_ends = points[open_points + 1] - groups * span + lo
    value_columns: List[Column] = []
    for func, count_at, value_at in plan:
        held = states[count_at][open_points]
        if func == "count":
            value_columns.append(Column(ints=held))
            continue
        if func == "avg":
            sums = states[value_at][open_points].tolist()
            value_columns.append(
                Column([s / c if c else None for s, c in zip(sums, held.tolist())])
            )
            continue
        if func == "sum":
            values = states[value_at][open_points]
        else:
            argument, present = arguments[value_at]
            chosen = slice(None) if present is None else np.flatnonzero(present)
            values = _segment_extremes(
                func == "max",
                first_segment[chosen],
                last_segment[chosen],
                argument[chosen],
                len(points),
            )[open_points]
        if count_at and not held.all():
            values = [v if c else None for v, c in zip(values.tolist(), held.tolist())]
            value_columns.append(Column(values))
        else:
            value_columns.append(Column(ints=values))
    # The coalesced encoding: a segment continuing the one before it -- same
    # group, touching, equal values -- joins its run (there is at least one
    # segment: a valid row is open somewhere).
    firsts, lasts = _runs([Column(ints=groups), *value_columns], segment_begins, segment_ends)
    return (
        group_rows[firsts],
        [Column.gathered(column, firsts) for column in value_columns],
        Column(ints=segment_begins[firsts]),
        Column(ints=segment_ends[lasts]),
        dense,
    )


def _runs(columns: Sequence[Column], begins: Any, ends: Any) -> Tuple[Any, Any]:
    """``(firsts, lasts)``: int64 arrays of each run's first and last entry.

    Entry i joins the run of entry i - 1 where it begins as that one ends
    (``begins`` and ``ends`` are int64 arrays) and every column holds an
    equal value -- int forms compared with their validity masks, anything
    else by its dict-equality codes.  A run prints under its first entry,
    from its begin to its last entry's end.
    """
    if not len(begins):
        return begins, begins
    joined = begins[1:] == ends[:-1]
    for column in columns:
        form = column.nullable_ints()
        if form is None:
            codes = column.codes()[0]
            joined &= codes[1:] == codes[:-1]
            continue
        values, valid = form
        joined &= values[1:] == values[:-1]
        if valid is not None:
            joined &= valid[1:] == valid[:-1]
    firsts = np.flatnonzero(np.concatenate([[True], ~joined]))
    return firsts, np.append(firsts[1:], len(begins)) - 1


def _tally_sorted(rises: Any, falls: Any, measures: Sequence[Any]) -> Tuple[Any, List[Any]]:
    """``(points, states)`` of the packed events by ``argsort``-ing them.

    The events sort by packed ``(group, time)``, each carrying its
    measures' values (``None``: one per event), equal points collapse with
    ``np.add.reduceat`` and one ``cumsum`` per measure gives the state after
    each point.
    """
    events = np.concatenate([rises, falls])
    order = np.argsort(events)
    events = events[order]
    starts = run_starts(events)
    states = []
    for measure in measures:
        if measure is None:
            measure = np.ones(len(rises), dtype=np.int64)
        states.append(
            np.cumsum(np.add.reduceat(np.concatenate([measure, -measure])[order], starts))
        )
    return events[starts], states


def _tally_plain(rises: Any, falls: Any) -> Tuple[Any, List[Any]]:
    """``(points, [state])`` of events that each weigh one, by one plain sort.

    The sign rides in the low bit of the doubled packed code (set on a rise;
    :data:`PACK_LIMIT` leaves room for it), so the codes sort themselves
    with no index array to carry along; a point's signs collapse with
    ``np.add.reduceat`` and one ``cumsum`` gives the open weight after it.
    """
    events = np.concatenate([(rises << 1) | 1, falls << 1])
    events.sort()
    pairs = events >> 1
    starts = run_starts(pairs)
    signs = (events & 1) * 2 - 1
    return pairs[starts], [np.cumsum(np.add.reduceat(signs, starts))]


def _tally_dense(
    rises: Any, falls: Any, cells: int, measures: Sequence[Any]
) -> Tuple[Any, List[Any]]:
    """``(points, states)`` of the packed events by counting them per grid cell.

    Same arrays as :func:`_tally_sorted`, with no sort: the points are the
    cells of the ``cells``-long grid that some event marks, read off in
    ascending order, and a table from cell to point index (written at the
    points only) turns every event into its point's slot.  Each state is the
    ``cumsum`` of a measure's net change per point, and every tally is exact
    int64 -- ``np.bincount`` of a unit measure (``None``), ``np.add.at`` of
    any other (no float accumulator: a sum may pass 2**53).
    """
    occupied = np.zeros(cells, dtype=bool)
    occupied[rises] = True
    occupied[falls] = True
    points = np.flatnonzero(occupied)
    n_points = len(points)
    slot = np.empty(cells, dtype=np.int64)
    slot[points] = np.arange(n_points, dtype=np.int64)
    up, down = slot[rises], slot[falls]
    states = []
    for measure in measures:
        if measure is None:
            net = np.bincount(up, minlength=n_points) - np.bincount(down, minlength=n_points)
        else:
            net = np.zeros(n_points, dtype=np.int64)
            np.add.at(net, up, measure)
            np.subtract.at(net, down, measure)
        states.append(np.cumsum(net))
    return points, states


def _present(column: Column) -> Any:
    """Which rows of a column that is not int typed are non-NULL (``None`` = all)."""
    codes, dictionary = column.codes()
    null = dictionary.get(None)
    return None if null is None else codes != null


def _segment_extremes(
    largest: bool, first: Any, last: Any, values: Any, n_segments: int
) -> Any:
    """Per segment, the max (or min) value over the rows covering it.

    Row r covers segments ``[first[r], last[r])`` (never empty) and carries
    ``values[r]``.  A reverse sparse table, one level alive at a time: a
    range of length L is two overlapping blocks of ``2**k <= L`` segments,
    so each row is folded into two cells of level k (``ufunc.at``), and
    pushing level k down onto level k-1 -- a block is its two half blocks,
    one array operation per level -- leaves every segment's answer at level
    0.  Segments no row covers keep the identity; the caller reads only
    segments it knows to be covered.
    """
    pick = np.maximum if largest else np.minimum
    limits = np.iinfo(np.int64)
    cells = np.full(n_segments, limits.min if largest else limits.max, dtype=np.int64)
    if not len(first):
        return cells
    # frexp is exact: length = m * 2**e with m in [0.5, 1), so k = e - 1.
    levels = np.frexp((last - first).astype(np.float64))[1] - 1
    for level in range(int(levels.max()), -1, -1):
        rows = np.flatnonzero(levels == level)
        if len(rows):
            pick.at(cells, first[rows], values[rows])
            pick.at(cells, last[rows] - (1 << level), values[rows])
        if level:
            half = 1 << (level - 1)
            cells[half:] = pick(cells[half:], cells[:-half])
    return cells


# -- (4) consolidation: bag difference and distinct -------------------------------------


def consolidate(
    column_sets: Sequence[Sequence[Column]],
    lengths: Sequence[int],
    counts: Sequence[Optional[Sequence[int]]],
) -> Tuple[Any, Optional[List[int]]]:
    """The first input's bag minus every other's: which of its rows stay, how often.

    ``EXCEPT ALL`` is the monus of the multiplicities: per distinct row, what
    the first input holds of it less what the others hold, where positive.
    Vector twin of :func:`repro.engine.sweeps.except_all` -- same entries,
    same order, same counts: all inputs are factorised into one
    dict-equality code space (``1``, ``1.0`` and ``True`` are one row,
    NULL equals NULL), the net multiplicity per code is one exact integer
    tally per input, and a surviving row is listed where the first input
    first holds it and printed as it stands there.  With one input this is
    ``DISTINCT`` (every row of it survives once listed).

    ``column_sets[i]`` are input i's columns (all of them: the row is the
    key), ``lengths[i]`` its entries and ``counts[i]`` their multiplicities,
    all positive (``None`` = all ones).  Returns ``(at, net)``: the int64
    index array of the first input's surviving entries, ascending, and their
    net multiplicities as Python ints (``None`` = all ones).  Declines
    nothing: a tally that could leave int64 is kept in Python ints.
    """
    if not lengths[0]:
        return np.empty(0, dtype=np.int64), None
    codes, n_codes = factorize(column_sets, lengths, nulls_match=True)
    net = _tally(codes[0], counts[0], n_codes)
    for other, weights in zip(codes[1:], counts[1:]):
        net = net - _tally(other, weights, n_codes)
    # The first input's rows that open a surviving code, in row order.
    first = np.zeros(lengths[0], dtype=bool)
    first[first_rows(codes[0], n_codes)[net > 0]] = True
    at = np.flatnonzero(first)
    net = net[codes[0][at]]
    return at, None if (net == 1).all() else net.tolist()


def _tally(codes: Any, weights: Optional[Sequence[int]], n_codes: int) -> Any:
    """How often each code occurs, weighted; exact (no float accumulator).

    An input holding fewer than 2**62 rows in all is tallied in int64 (the
    difference of two such tallies fits too), a larger one in Python ints.
    """
    if weights is None:
        return np.bincount(codes, minlength=n_codes)
    dtype = np.int64 if sum(weights) < PACK_LIMIT else object
    tally = np.zeros(n_codes, dtype=dtype)
    np.add.at(tally, codes, np.asarray(weights, dtype=dtype))
    return tally


# -- (5) keyed rows: a view's dirty slice, a delete's candidates ---------------------------


def rows_holding(columns: Sequence[Column], wanted: Sequence[Collection[Any]]) -> Any:
    """Ascending index array of the rows whose value in ``columns[i]`` is in ``wanted[i]``, every i.

    Read off each column's codes: one boolean table over its dictionary,
    looked up at every row's code -- so a value finds the rows a ``dict``
    finds equal to it (``1``, ``1.0`` and ``True`` alike, NULL by NULL).
    What a catalog delete and a view's dirty slice narrow on.
    """
    mask = None
    for column, values in zip(columns, wanted):
        codes, dictionary = column.codes()
        hit = np.zeros(len(dictionary), dtype=bool)
        hit[[dictionary[value] for value in values if value in dictionary]] = True
        mask = hit[codes] if mask is None else mask & hit[codes]
    return np.flatnonzero(mask)
