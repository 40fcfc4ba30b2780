"""The ANALYZE statistics model and its catalog integration.

Covers the collection pass itself (distinct counts, NULL fractions,
endpoint histograms, length quantiles, the overlap-density sweep), the
wire round-trip the remote ``analyze`` frame relies on, and the catalog
life-cycle: ``analyze()`` stores statistics, DML on an analyzed table
drops them and DDL drops them with the table.
"""

import json

import pytest

from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.errors import ProtocolError
from repro.server.codec import decode, encode
from repro.stats import (
    EndpointHistogram,
    TableStatistics,
    collect_table_statistics,
)


def _table(rows, name="events", schema=("key", "t_begin", "t_end")):
    return Table(name, schema, [tuple(row) for row in rows])


class TestCollection:
    def test_row_and_distinct_counts(self):
        table = _table(
            [("a", 0, 5), ("a", 2, 8), ("b", 1, 4), (None, 3, 9)],
        )
        stats = collect_table_statistics(table, period=("t_begin", "t_end"))
        assert stats.row_count == 4
        assert stats.distinct("key") == 2  # NULL excluded
        assert stats.null_fraction("key") == 0.25
        assert stats.distinct("t_begin") == 4

    def test_histograms_cover_the_endpoint_range(self):
        rows = [("k", begin, begin + 2) for begin in range(32)]
        stats = collect_table_statistics(_table(rows), period=("t_begin", "t_end"))
        assert stats.begin_histogram.lo == 0.0
        assert stats.begin_histogram.hi == 31.0
        assert stats.begin_histogram.total == 32
        # fraction_below is monotone and anchored at the range ends.
        hist = stats.begin_histogram
        assert hist.fraction_below(0) == 0.0
        assert hist.fraction_below(31) == 1.0
        fractions = [hist.fraction_below(v) for v in range(32)]
        assert fractions == sorted(fractions)

    def test_length_quantiles_are_the_five_point_summary(self):
        rows = [("k", 0, length) for length in (1, 2, 3, 4, 100)]
        stats = collect_table_statistics(_table(rows), period=("t_begin", "t_end"))
        assert stats.length_quantiles == (1.0, 2.0, 3.0, 4.0, 100.0)

    def test_overlap_density_extremes(self):
        # All intervals identical: every pair overlaps.
        dense = [("k", 0, 10) for _ in range(8)]
        stats = collect_table_statistics(_table(dense), period=("t_begin", "t_end"))
        assert stats.overlap_density == 1.0
        # Disjoint intervals: no pair overlaps.
        sparse = [("k", i * 10, i * 10 + 5) for i in range(8)]
        stats = collect_table_statistics(_table(sparse), period=("t_begin", "t_end"))
        assert stats.overlap_density == 0.0

    def test_degenerate_intervals_do_not_overlap(self):
        rows = [("k", 5, 5), ("k", 5, 5), ("k", 0, 10)]
        stats = collect_table_statistics(_table(rows), period=("t_begin", "t_end"))
        assert stats.overlap_density == 0.0

    def test_collection_is_deterministic(self):
        rows = [("k", i % 7, i % 7 + 1 + i % 3) for i in range(1000)]
        table = _table(rows)
        first = collect_table_statistics(table, period=("t_begin", "t_end"))
        second = collect_table_statistics(table, period=("t_begin", "t_end"))
        assert first == second

    def test_no_period_columns_no_interval_statistics(self):
        table = Table("plain", ("a", "b"), [(1, 2), (3, 4)])
        stats = collect_table_statistics(table)
        assert stats.begin_histogram is None
        assert stats.length_quantiles == ()
        assert stats.overlap_density == 0.0
        assert stats.row_count == 2


class TestSerialization:
    def test_json_roundtrip_preserves_everything(self):
        rows = [("a", 0, 5), ("b", 2, 8), (None, 1, 4)]
        stats = collect_table_statistics(_table(rows), period=("t_begin", "t_end"))
        payload = json.loads(json.dumps(encode(TableStatistics, stats)))
        assert decode(TableStatistics, payload) == stats

    def test_minimal_payload_decodes(self):
        stats = decode(TableStatistics, {"table": "t", "row_count": 0})
        assert stats.row_count == 0
        assert stats.period is None
        assert stats.overlap_density == 0.0
        assert stats.columns == {}

    def test_histogram_roundtrip(self):
        hist = EndpointHistogram(lo=0.0, hi=10.0, counts=(3, 0, 7))
        assert decode(EndpointHistogram, encode(EndpointHistogram, hist)) == hist
        # An int is a float on the wire; a bool is never an int.
        assert decode(EndpointHistogram, {"lo": 0, "hi": 10, "counts": [3]}).lo == 0.0
        with pytest.raises(ProtocolError, match="counts: expected int, got True"):
            decode(EndpointHistogram, {"lo": 0, "hi": 10, "counts": [True]})


class TestCatalogLifecycle:
    def _database(self):
        database = Database()
        database.create_table(
            "events",
            ("key", "t_begin", "t_end"),
            [("a", 0, 5), ("b", 2, 8)],
            period=("t_begin", "t_end"),
        )
        return database

    def test_analyze_stores_statistics(self):
        database = self._database()
        collected = database.analyze()
        assert set(collected) == {"events"}
        assert database.statistics_for("events") is collected["events"]
        assert collected["events"].period == ("t_begin", "t_end")

    def test_analyze_one_table(self):
        database = self._database()
        database.create_table("other", ("x", "t_begin", "t_end"), [])
        collected = database.analyze("events")
        assert set(collected) == {"events"}
        assert database.statistics_for("other") is None

    def test_dml_drops_statistics(self):
        database = self._database()
        database.analyze()
        database.insert("events", [("c", 1, 3)])
        assert database.statistics_for("events") is None

    def test_delete_drops_statistics_too(self):
        database = self._database()
        database.analyze()
        database.delete("events", [("a", 0, 5)])
        assert database.statistics_for("events") is None

    def test_dml_drops_only_the_written_tables_statistics(self):
        database = self._database()
        database.create_table("other", ("x", "t_begin", "t_end"), [(1, 0, 2)])
        other = database.analyze("other")["other"]
        database.insert("events", [("c", 1, 3)])
        # A stale estimate must not outlive the rows it described -- and
        # only those rows changed.
        assert database.statistics_for("events") is None
        assert database.statistics_for("other") is other

    def test_ddl_drops_statistics_with_the_table(self):
        database = self._database()
        database.analyze()
        database.drop_table("events")
        assert database.statistics_for("events") is None

    def test_reanalyze_refreshes_after_dml(self):
        database = self._database()
        database.analyze()
        database.insert("events", [("c", 1, 3)])
        refreshed = database.analyze("events")
        assert refreshed["events"].row_count == 3
        assert database.statistics_for("events") is refreshed["events"]

    def test_table_statistics_mapping_view(self):
        database = self._database()
        assert database.table_statistics() == {}
        database.analyze()
        assert set(database.table_statistics()) == {"events"}
