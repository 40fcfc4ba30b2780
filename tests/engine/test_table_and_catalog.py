"""Unit tests for the engine's storage layer: tables and the catalog."""

import pytest

from repro.engine import DEFAULT_PERIOD, Database, Table, TableError


class TestTable:
    def test_construction_and_len(self):
        table = Table("t", ("a", "b"), [(1, 2), (3, 4)])
        assert len(table) == 2
        assert table.schema == ("a", "b")

    def test_duplicate_schema_rejected(self):
        with pytest.raises(TableError):
            Table("t", ("a", "a"))

    def test_append_checks_arity(self):
        table = Table("t", ("a", "b"))
        with pytest.raises(TableError):
            table.append((1,))

    def test_duplicates_preserved(self):
        table = Table("t", ("a",), [(1,), (1,)])
        assert table.rows == [(1,), (1,)]

    def test_column_access(self):
        table = Table("t", ("a", "b"), [(1, 2), (3, 4)])
        assert table.column_index("b") == 1
        assert table.column("a") == [1, 3]
        with pytest.raises(TableError):
            table.column_index("missing")

    def test_clone_and_empty_copy(self):
        table = Table("t", ("a",), [(1,)])
        clone = table.clone("copy")
        clone.append((2,))
        assert len(table) == 1 and len(clone) == 2
        assert len(table.empty_copy()) == 0

    def test_pretty_truncates(self):
        table = Table("t", ("a",), [(i,) for i in range(30)])
        rendering = table.pretty(limit=5)
        assert "more rows" in rendering


class TestDatabase:
    def test_create_and_lookup(self):
        database = Database()
        database.create_table("t", ("a", "t_begin", "t_end"), [(1, 0, 5)], period=DEFAULT_PERIOD)
        assert "t" in database
        assert database.table("t").rows == [(1, 0, 5)]
        assert database.period_of("t") == DEFAULT_PERIOD

    def test_period_attributes_must_exist(self):
        database = Database()
        with pytest.raises(TableError):
            database.create_table("t", ("a",), [], period=("b", "c"))

    def test_non_temporal_table_has_no_period(self):
        database = Database()
        database.create_table("t", ("a",), [])
        assert database.period_of("t") is None

    def test_insert_and_row_counts(self):
        database = Database()
        database.create_table("t", ("a",), [(1,)])
        database.insert("t", [(2,), (3,)])
        assert database.row_counts() == {"t": 3}

    def test_delete_takes_the_first_copies_and_keeps_the_surviving_order(self):
        database = Database()
        table = database.create_table("t", ("a",), [(1,), (2,), (1,), (3,), (1,), (2,)])
        before = table.rows
        database.delete("t", [(1,), [1], (3,)])  # two of three copies, by any sequence
        assert table.rows == [(2,), (1,), (2,)]
        assert table.rows is not before and len(before) == 6  # replaced, not rewritten
        database.delete("t", [])
        assert table.rows == [(2,), (1,), (2,)]

    def test_delete_of_more_copies_than_present_removes_nothing(self):
        database = Database()
        table = database.create_table("t", ("a",), [(1,), (2,), (1,)])
        seen = []
        database.add_dml_observer(lambda name, delta: seen.append(delta))
        before = table.rows
        with pytest.raises(TableError, match=r"not often enough\): \['\(1,\)', '\(9,\)'\]"):
            database.delete("t", [(1,), (1,), (1,), (2,), (9,)])
        assert table.rows is before and before == [(1,), (2,), (1,)] and not seen
        database.delete("t", [(1,), (1,)])
        assert table.rows == [(2,)] and seen == [{(1,): -2}]

    def test_insert_of_a_batch_with_one_malformed_row_adds_nothing(self):
        database = Database()
        table = database.create_table("t", ("a", "b"), [(1, 2)])
        seen = []
        database.add_dml_observer(lambda name, delta: seen.append(delta))
        before, published = table.rows, database.snapshot()
        with pytest.raises(TableError, match="row arity 1 does not match schema arity 2"):
            database.insert("t", [(3, 4), (5,), (6, 7)])
        assert table.rows is before and before == [(1, 2)] and not seen
        assert database.snapshot() is published and published["t"].rows() == [(1, 2)]
        database.insert("t", iter([[3, 4], (3, 4)]))  # any iterable of any sequences
        assert table.rows == [(1, 2), (3, 4), (3, 4)] and seen == [{(3, 4): 2}]
        assert database.snapshot()["t"].rows() == table.rows

    def test_drop_table(self):
        database = Database()
        database.create_table("t", ("a",), [])
        database.drop_table("t")
        assert "t" not in database
        with pytest.raises(TableError):
            database.table("t")

    def test_register_existing_table(self):
        database = Database()
        table = Table("t", ("a", "t_begin", "t_end"), [(1, 0, 3)])
        database.register(table, period=DEFAULT_PERIOD)
        assert database.table("t").rows == [(1, 0, 3)]

    def test_unknown_table(self):
        with pytest.raises(TableError):
            Database().table("missing")
