"""Property tests pinning ``ColumnarBatch``'s dual representation.

A batch holds its entries row-wise, column-wise, or both, transposing
lazily in either direction.  The batch differential exercises this only
incidentally (through whole plans); these properties pin the conversion
cycle directly -- rows -> columns -> rows and columns -> rows -> columns
must be identities -- on exactly the adversarial shapes the generator can
produce: empty batches, NULL data values, NULL period endpoints, and
degenerate (``begin == end``) intervals.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import RelationAccess, Selection
from repro.datasets.generator import GeneratorConfig, generate_table
from repro.engine import Database, execute
from repro.engine.batch import ColumnarBatch
from repro.engine.table import Table

SCHEMA = ("key", "cat", "val", "t_begin", "t_end")


def _cells():
    return st.one_of(
        st.none(),
        st.integers(-3, 3),
        st.sampled_from(["a", "b"]),
    )


def _rows():
    """Row lists over SCHEMA: NULLs anywhere, degenerate/NULL endpoints."""
    endpoint = st.one_of(st.none(), st.integers(0, 4))
    row = st.tuples(_cells(), _cells(), _cells(), endpoint, endpoint)
    return st.lists(row, max_size=8)


def _adversarial_configs():
    """Generator configs dialling every adversarial shape up, rows down."""
    return st.builds(
        GeneratorConfig,
        rows=st.integers(0, 12),
        domain_size=st.just(8),
        seed=st.integers(0, 2**10),
        duplicate_rate=st.just(0.4),
        null_rate=st.just(0.4),
        null_endpoint_rate=st.just(0.4),
        degenerate_rate=st.just(0.4),
    )


@given(rows=_rows())
def test_rows_to_columns_to_rows_is_identity(rows):
    batch = ColumnarBatch.from_rows("b", SCHEMA, rows)
    columns = list(batch.columns)  # force the row -> column transpose
    assert len(columns) == len(SCHEMA)
    assert all(len(column) == len(rows) for column in columns)
    # A fresh column-backed batch must transpose back to the same rows.
    rebuilt = ColumnarBatch("b", SCHEMA, columns, [1] * len(rows), all_ones=True)
    assert rebuilt.entry_rows() == list(rows)
    assert rebuilt.expanded_rows() == list(rows)


@given(rows=_rows())
def test_columns_to_rows_to_columns_is_identity(rows):
    columns = (
        [list(column) for column in zip(*rows)] if rows else [[] for _ in SCHEMA]
    )
    batch = ColumnarBatch("b", SCHEMA, columns, [1] * len(rows), all_ones=True)
    entry_rows = batch.entry_rows()  # force the column -> row transpose
    assert entry_rows == [tuple(row) for row in rows]
    again = ColumnarBatch.from_rows("b", SCHEMA, entry_rows)
    assert list(again.columns) == columns


@given(rows=_rows(), counts=st.data())
def test_expansion_respects_multiplicities(rows, counts):
    multiplicities = counts.draw(
        st.lists(
            st.integers(1, 3), min_size=len(rows), max_size=len(rows)
        )
    )
    batch = ColumnarBatch("b", SCHEMA, None, multiplicities, rows=list(rows))
    expanded = batch.expanded_rows()
    assert len(expanded) == sum(multiplicities)
    expected = Counter()
    for row, count in zip(rows, multiplicities):
        expected[row] += count
    assert Counter(expanded) == expected
    assert batch.weight() == sum(multiplicities)
    # Round-trip through a table expands the counts away but keeps the bag.
    assert Counter(batch.to_table().rows) == Counter(expanded)


@given(config=_adversarial_configs())
def test_generated_tables_round_trip_through_batches(config):
    """from_table -> to_table is a bag identity on adversarial catalogs."""
    table = generate_table("R", config, prefix="r")
    batch = ColumnarBatch.from_table(table)
    assert batch.columns is not None and len(batch.columns) == len(table.schema)
    round_tripped = batch.to_table()
    assert round_tripped.schema == table.schema
    assert Counter(round_tripped.rows) == Counter(table.rows)
    # The transpose memoises on the table and is reused while rows are
    # unchanged ...
    again = ColumnarBatch.from_table(table)
    assert all(a is b for a, b in zip(again.columns, batch.columns))
    # ... and invalidated by growth (append changes the list length).
    table.append(("k0", None, None, 0, 0))
    fresh = ColumnarBatch.from_table(table)
    assert len(fresh.columns[0]) == len(table.rows)


def test_an_insert_landing_mid_transpose_is_not_lost():
    """A racing ``insert`` leaves ``from_table`` consistent, and the next read sees it.

    Thread-free replay of the server's race (reads and DML share a thread
    pool and a catalog): the first row is a tuple whose iterator -- which
    the transpose asks for -- performs the insert, i.e. the insert lands
    after the transpose started and before the cache entry is written.
    The cache used to record the *new* length against the *old* columns, so
    every later column-path read dropped the inserted rows.
    """
    database = Database()

    class InsertsWhileTransposed(tuple):
        fired = False

        def __iter__(self):
            if not InsertsWhileTransposed.fired:
                InsertsWhileTransposed.fired = True
                database.insert("t", [(100, 0, 4), (101, 0, 4)])
            return super().__iter__()

    table = database.create_table("t", ("a", "t_begin", "t_end"), [(i, 0, 4) for i in range(5)])
    table.rows[0] = InsertsWhileTransposed(table.rows[0])

    racing = ColumnarBatch.from_table(table)
    assert InsertsWhileTransposed.fired and len(table.rows) == 7
    # One consistent snapshot (here: the table before the insert) ...
    assert len(racing) == len(racing.entry_rows()) == len(racing.columns[0]) == 5
    # ... and the next read is not served the stale transpose.
    plan = Selection(RelationAccess("t"), Comparison(">=", attr("a"), lit(100)))
    expected = execute(plan, database, executor="row").rows
    assert sorted(expected) == [(100, 0, 4), (101, 0, 4)]
    assert sorted(execute(plan, database).rows) == sorted(expected)


def test_empty_batch_both_directions():
    empty_rows = ColumnarBatch.from_rows("b", SCHEMA, [])
    assert list(empty_rows.columns) == [[] for _ in SCHEMA]
    assert empty_rows.entry_rows() == []
    assert empty_rows.weight() == 0
    empty_columns = ColumnarBatch("b", SCHEMA, [[] for _ in SCHEMA], [])
    assert empty_columns.entry_rows() == []
    assert empty_columns.to_table().rows == []
    empty_table = ColumnarBatch.from_table(Table("t", SCHEMA))
    assert len(empty_table) == 0 and empty_table.expanded_rows() == []


def test_zero_width_schema_round_trip():
    batch = ColumnarBatch("b", (), [], [2, 3])
    assert batch.entry_rows() == [(), ()]
    assert batch.weight() == 5
