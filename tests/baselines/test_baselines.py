"""Tests for the baselines: bug reproduction and oracle agreement.

The central claims reproduced here are the ones behind Table 1 of the paper:
the interval-preservation (ATSQL-style) baseline exhibits the aggregation
gap and bag difference bugs, the temporal-alignment (PG-Nat-style) baseline
exhibits the aggregation gap bug and evaluates difference with set
semantics, while the pipeline and the naive per-snapshot evaluator are
correct.  Positive relational algebra, on the other hand, is
snapshot-reducible for every evaluator.  The two native baselines are REWR
variants that a :class:`QueryPipeline` runs like REWR itself.
"""

import pytest

from repro.algebra import (
    AggregateSpec,
    Aggregation,
    Comparison,
    Join,
    Projection,
    RelationAccess,
    Selection,
    attr,
    lit,
)
from repro.baselines import (
    IntervalPreservationRewriter,
    NaiveSnapshotEvaluator,
    TemporalAlignmentRewriter,
)
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.engine import Database
from repro.rewriter import (
    QueryPipeline,
    RewriteError,
    SnapshotRewriter,
    T_BEGIN,
    T_END,
    timeslice_table,
)


@pytest.fixture
def database():
    return populate_database(Database())


def pipeline(database, rewriter_cls=SnapshotRewriter):
    return QueryPipeline(TIME_DOMAIN, database=database, rewriter_cls=rewriter_cls)


def interval_preservation(database):
    return pipeline(database, IntervalPreservationRewriter)


def temporal_alignment(database):
    return pipeline(database, TemporalAlignmentRewriter)


def naive(database):
    return NaiveSnapshotEvaluator(database, TIME_DOMAIN)


NATIVE = [interval_preservation, temporal_alignment]


class TestAggregationGapBug:
    def gap_counts(self, table):
        """Count values reported for the gap hours 0-2, 16-17 and 20-23."""
        cnt = table.column_index("cnt")
        begin = table.column_index(T_BEGIN)
        end = table.column_index(T_END)
        reported = set()
        for row in table.rows:
            for probe in (0, 16, 20):
                if row[begin] <= probe < row[end]:
                    reported.add((probe, row[cnt]))
        return reported

    def test_middleware_reports_zero_counts_over_gaps(self, database):
        result = pipeline(database).execute(query_onduty())
        assert self.gap_counts(result) == {(0, 0), (16, 0), (20, 0)}

    def test_naive_reports_zero_counts_over_gaps(self, database):
        result = naive(database).execute(query_onduty())
        assert self.gap_counts(result) == {(0, 0), (16, 0), (20, 0)}

    @pytest.mark.parametrize("evaluator", NATIVE)
    def test_native_baselines_exhibit_ag_bug(self, database, evaluator):
        result = evaluator(database).execute(query_onduty())
        assert self.gap_counts(result) == set()


class TestBagDifferenceBug:
    def sp_points(self, table):
        skill = table.column_index("skill")
        begin = table.column_index(T_BEGIN)
        end = table.column_index(T_END)
        points = set()
        for row in table.rows:
            if row[skill] == "SP":
                points.update(range(row[begin], row[end]))
        return points

    def test_middleware_returns_missing_sp_requirements(self, database):
        result = pipeline(database).execute(query_skillreq())
        assert self.sp_points(result) == {6, 7, 10, 11}

    def test_naive_matches_pipeline(self, database):
        result = naive(database).execute(query_skillreq())
        assert self.sp_points(result) == {6, 7, 10, 11}

    def test_interval_preservation_exhibits_bd_bug(self, database):
        result = interval_preservation(database).execute(query_skillreq())
        assert self.sp_points(result) == set()

    def test_temporal_alignment_set_difference_exhibits_bd_bug(self, database):
        result = temporal_alignment(database).execute(query_skillreq())
        assert self.sp_points(result) == set()


class TestPositiveAlgebraIsCorrectEverywhere:
    """Selection/projection/join are snapshot-reducible for every evaluator."""

    QUERY = Projection.of_attributes(
        Join(
            RelationAccess("works"),
            RelationAccess("assign"),
            Comparison("=", attr("skill"), attr("req_skill")),
        ),
        "name",
        "mach",
    )

    @pytest.mark.parametrize("evaluator", [*NATIVE, naive])
    def test_join_agrees_with_pipeline(self, database, evaluator):
        expected = pipeline(database).execute_decoded(self.QUERY)
        actual = evaluator(database).execute_decoded(self.QUERY)
        assert actual.snapshot_equivalent(expected)

    @pytest.mark.parametrize("evaluator", [*NATIVE, naive])
    def test_selection_agrees_with_pipeline(self, database, evaluator):
        query = Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP")))
        expected = pipeline(database).execute_decoded(query)
        actual = evaluator(database).execute_decoded(query)
        assert actual.snapshot_equivalent(expected)


class TestBaselineInfrastructure:
    def test_null_join_keys_never_match(self, database):
        """SQL semantics in the baseline join: NULL = NULL is not true
        (matching the engine's hash/interval joins and real PostgreSQL)."""
        database.create_table(
            "w2",
            ["name2", "skill2", "t_begin", "t_end"],
            [("Zoe", None, 0, 24), ("Ann", "SP", 0, 24)],
            period=("t_begin", "t_end"),
        )
        database.create_table(
            "a2",
            ["mach2", "req2", "t_begin", "t_end"],
            [("M9", None, 0, 24), ("M1", "SP", 0, 24)],
            period=("t_begin", "t_end"),
        )
        evaluator = temporal_alignment(database)
        query = Join(
            RelationAccess("w2"),
            RelationAccess("a2"),
            Comparison("=", attr("skill2"), attr("req2")),
        )
        result = evaluator.execute(query)
        names = {row[result.column_index("name2")] for row in result.rows}
        assert names == {"Ann"}

    def test_unsupported_operator_raises(self, database):
        class Strange:
            pass

        with pytest.raises(RewriteError):
            interval_preservation(database).execute(Strange())

    def test_grouped_aggregation_interval_preservation(self, database):
        from repro.algebra import AggregateSpec, Aggregation

        query = Aggregation(
            RelationAccess("works"), ("skill",), (AggregateSpec("count", None, "cnt"),)
        )
        result = interval_preservation(database).execute_decoded(query)
        # For non-empty groups the baseline is correct.
        expected = pipeline(database).execute_decoded(query)
        assert result.snapshot_equivalent(expected)

    def test_naive_execute_decoded_equals_pipeline(self, database):
        expected = pipeline(database).execute_decoded(query_onduty())
        actual = naive(database).execute_decoded(query_onduty())
        assert actual == expected

    def test_constant_relation_support(self, database):
        from repro.algebra import ConstantRelation

        result = interval_preservation(database).execute(
            ConstantRelation(("v",), ((1,),))
        )
        assert result.rows == [(1, 0, 24)]


class TestNullPeriodEndpoints:
    """A row with a NULL period end point holds at no point, as under REWR.

    The row-at-a-time evaluators the native baselines replaced raised
    ``TypeError`` on it (an ``int < None`` in their interval arithmetic).
    """

    QUERIES = {
        "grouped-count": Aggregation(
            RelationAccess("works"), ("skill",), (AggregateSpec("count", None, "cnt"),)
        ),
        "join": TestPositiveAlgebraIsCorrectEverywhere.QUERY,
    }

    @pytest.mark.parametrize("query", list(QUERIES))
    @pytest.mark.parametrize("evaluator", NATIVE)
    def test_the_row_holds_at_no_point(self, database, evaluator, query):
        plan = self.QUERIES[query]
        without = evaluator(database).execute(plan)
        database.insert("works", [("Zed", "SP", None, 7)])
        with_null = evaluator(database).execute(plan)
        rewr = pipeline(database).execute(plan)
        for point in TIME_DOMAIN.points():
            expected = timeslice_table(rewr, point)
            assert timeslice_table(with_null, point) == expected
            assert timeslice_table(without, point) == expected
