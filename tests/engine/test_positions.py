"""``TableVersion.positions``: narrowing on carried codes finds exactly what the dict pass finds.

A delete asks where the first copies of its rows sit.  With numpy, from the
kernel cutover on, the version narrows the candidates on the dict-equality
codes some column already carries (the ones that know the most values)
before the dict check; otherwise every row is a candidate.  Both must
agree with a plain reference walk -- the same positions, or the same :class:`TableError` with the version
untouched -- over the values that make dict equality subtle: ``1`` / ``1.0``
/ ``True`` (one dict key), ``0`` / ``0.0`` / ``False``, NULL, duplicates,
rows not held and rows of the wrong arity.  The sweep runs in both CI legs;
without numpy both versions take the whole pass.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Table, TableError, kernels

SCHEMA = ("a", "b", "c")
VALUES = st.sampled_from([1, 1.0, True, 0, 0.0, False, None, 2, "a", "b"])
ROWS = st.tuples(VALUES, VALUES, VALUES)
SHORT = st.tuples(VALUES, VALUES)


@contextmanager
def kernels_at_any_size():
    saved = kernels.KERNEL_CUTOVER
    kernels.KERNEL_CUTOVER = 0
    try:
        yield
    finally:
        kernels.KERNEL_CUTOVER = saved


def reference(rows, removing):
    """The first copies of each doomed row by a plain walk, or the error naming the rows not held."""
    budget = dict(removing)
    doomed = []
    for position, row in enumerate(rows):
        if budget.get(row):
            budget[row] -= 1
            doomed.append(position)
    missing = sorted(str(row) for row, short in budget.items() if short)
    if missing:
        return f"cannot delete from 't': row(s) not present (or not often enough): {missing[:3]}"
    return doomed


def outcome(version, removing):
    try:
        return version.positions(removing)
    except TableError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(ROWS, max_size=30),
    coded=st.sets(st.integers(0, len(SCHEMA) - 1)),
    strangers=st.lists(st.one_of(ROWS, SHORT), max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 63), st.integers(1, 3)), max_size=8),
)
def test_narrowing_on_codes_finds_what_the_dict_pass_finds(rows, coded, strangers, picks):
    pool = rows + strangers
    removing = Counter()
    for index, copies in picks if pool else ():
        removing[pool[index % len(pool)]] += copies
    whole = Table("t", SCHEMA, rows).version  # below the cutover: every row is a candidate
    found = [outcome(whole, removing)]
    with kernels_at_any_size():
        narrowing = Table("t", SCHEMA, rows).version
        columns = narrowing.columns()
        if kernels.np is not None:
            for position in coded:
                columns[position].codes()
        forms = [column.known_codes() for column in columns]
        found.append(outcome(narrowing, removing))
    expected = reference(rows, removing)
    assert found == [expected, expected]
    # A refused delete leaves the version as it was: rows, count, carried forms.
    assert whole.rows() == narrowing.rows() == rows and narrowing.count == len(rows)
    now = [column.known_codes() for column in columns]
    assert all(known is then for known, then in zip(now, forms) if then is not None)


def test_a_catalog_delete_narrows_on_the_carried_codes(monkeypatch):
    """The catalog's delete reads the codes the last kernel left, and only the candidates."""
    pytest.importorskip("numpy")
    rows = [(f"k{i % 97}", i % 5, i) for i in range(max(512, kernels.KERNEL_CUTOVER))]
    database = Database()
    database.create_table("t", SCHEMA, rows)
    database.table("t").version.columns()[0].codes()  # what a grouping kernel derives
    narrowed = []
    holding = kernels.rows_holding
    monkeypatch.setattr(
        kernels, "rows_holding", lambda *args: narrowed.append(holding(*args)) or narrowed[-1]
    )
    doomed = [rows[3], rows[100], rows[6]]  # k3, k3, k6
    database.delete("t", doomed)
    (candidates,) = narrowed
    assert candidates.tolist() == [p for p, row in enumerate(rows) if row[0] in ("k3", "k6")]
    assert Counter(database.table("t").rows) == Counter(rows) - Counter(doomed)
    # The successor carries the codes on: the next delete narrows again.
    with pytest.raises(TableError, match="not present"):
        database.delete("t", [rows[3]])
    assert len(narrowed) == 2
    # A table no query has read takes the whole pass and derives nothing.
    database.create_table("u", SCHEMA, rows)
    database.delete("u", doomed)
    assert len(narrowed) == 2
    assert database.table("u").version._columns is None
    assert Counter(database.table("u").rows) == Counter(rows) - Counter(doomed)
