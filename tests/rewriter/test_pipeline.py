"""Unit tests for the QueryPipeline: Figure 1 end-to-end and API behaviour."""

import pytest

from repro.algebra import (
    AggregateSpec,
    Aggregation,
    Comparison,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
    attr,
    lit,
)
from repro.datasets.running_example import (
    EXPECTED_ONDUTY,
    EXPECTED_SKILLREQ,
    TIME_DOMAIN,
    load_running_example,
    query_onduty,
    query_skillreq,
)
from repro.logical_model import PeriodKRelation
from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from repro.rewriter import QueryPipeline, RewriteError, T_BEGIN, T_END, period_decode
from repro.semirings import NATURAL
from repro.temporal import Interval, TimeDomain


@pytest.fixture
def pipeline():
    return load_running_example()


def result_mapping(table, value_columns):
    """Collect {value tuple: set of (begin, end)} from a period table."""
    begin = table.column_index(T_BEGIN)
    end = table.column_index(T_END)
    value_indexes = [table.column_index(c) for c in value_columns]
    mapping = {}
    for row in table.rows:
        key = tuple(row[i] for i in value_indexes)
        mapping.setdefault(key, set()).add((row[begin], row[end]))
    return mapping


class TestRunningExample:
    def test_qonduty_matches_figure_1b(self, pipeline):
        table = pipeline.execute(query_onduty())
        mapping = result_mapping(table, ["cnt"])
        assert mapping == {
            (cnt,): set(intervals) for cnt, intervals in EXPECTED_ONDUTY.items()
        }

    def test_qskillreq_matches_figure_1c(self, pipeline):
        table = pipeline.execute(query_skillreq())
        mapping = result_mapping(table, ["skill"])
        assert mapping == {
            (skill,): set(intervals) for skill, intervals in EXPECTED_SKILLREQ.items()
        }

    def test_result_is_coalesced_and_unique(self, pipeline):
        """Re-loading a fragmented but equivalent works table gives identical output."""
        fragmented = QueryPipeline(TIME_DOMAIN)
        fragmented.load_table(
            "works",
            ["name", "skill"],
            [
                ("Ann", "SP", 3, 7),
                ("Ann", "SP", 7, 10),
                ("Joe", "NS", 8, 16),
                ("Sam", "SP", 8, 16),
                ("Ann", "SP", 18, 20),
            ],
        )
        fragmented.load_table(
            "assign",
            ["mach", "req_skill"],
            [("M1", "SP", 3, 12), ("M2", "SP", 6, 14), ("M3", "NS", 3, 16)],
        )
        original = pipeline.execute(query_onduty())
        other = fragmented.execute(query_onduty())
        assert sorted(original.rows) == sorted(other.rows)

    def test_execute_decoded_returns_period_relation(self, pipeline):
        relation = pipeline.execute_decoded(query_onduty())
        assert isinstance(relation, PeriodKRelation)
        assert relation.annotation((2,)).mapping == {Interval(8, 10): 1}

    def test_execute_snapshot_slices_result(self, pipeline):
        snapshot = pipeline.execute_snapshot(query_onduty(), 8)
        assert snapshot.annotation((2,)) == 1
        snapshot_gap = pipeline.execute_snapshot(query_onduty(), 0)
        assert snapshot_gap.annotation((0,)) == 1

    def test_explain_renders_plan(self, pipeline):
        text = pipeline.explain(query_onduty())
        assert text == pipeline.rewrite(query_onduty()).explain_tree()
        assert text.startswith("Coalesce(period=t_begin..t_end)")
        assert "└─ TemporalAggregate(group by (); count(__agg_arg_0) AS cnt)" in text
        assert "Relation(works)" in text


class TestDataLoading:
    def test_load_table_registers_period(self, pipeline):
        assert pipeline.database.period_of("works") == (T_BEGIN, T_END)

    def test_load_period_relation_round_trip(self):
        pipeline = QueryPipeline(TimeDomain(0, 10))
        relation = PeriodKRelation.from_periods(
            pipeline.period_semiring, ("x",), [((1,), 0, 5, 2)]
        )
        pipeline.load_period_relation("r", relation)
        decoded = pipeline.execute_decoded(Projection.of_attributes(RelationAccess("r"), "x"))
        assert decoded == relation

    def test_custom_period_attribute_names(self):
        pipeline = QueryPipeline(TimeDomain(0, 10))
        pipeline.load_table("r", ["x"], [(1, 0, 5)], period=("vt_s", "vt_e"))
        result = pipeline.execute(Projection.of_attributes(RelationAccess("r"), "x"))
        assert result.rows == [(1, 0, 5)]
        assert result.schema == ("x", T_BEGIN, T_END)


class TestRewriteErrors:
    def test_unknown_relation(self, pipeline):
        with pytest.raises(RewriteError):
            pipeline.execute(RelationAccess("missing"))

    def test_join_with_clashing_schemas(self, pipeline):
        with pytest.raises(RewriteError):
            pipeline.execute(Join(RelationAccess("works"), RelationAccess("works")))

    def test_renaming_period_attributes_rejected(self, pipeline):
        with pytest.raises(RewriteError):
            pipeline.execute(Rename(RelationAccess("works"), ((T_BEGIN, "x"),)))

    def test_union_arity_mismatch(self, pipeline):
        plan = Union(
            Projection.of_attributes(RelationAccess("works"), "name"),
            Projection.of_attributes(RelationAccess("assign"), "mach", "req_skill"),
        )
        with pytest.raises(RewriteError):
            pipeline.execute(plan)



class TestConfigurationVariants:
    @pytest.fixture
    def variants(self, pipeline):
        database = pipeline.database
        return {
            "default": pipeline,
            "per-operator": QueryPipeline(
                TIME_DOMAIN, database, rewriter_cls=PerOperatorCoalesceRewriter
            ),
            "naive-aggregate": QueryPipeline(
                TIME_DOMAIN, database, rewriter_cls=SplitThenAggregateRewriter
            ),
            "no-optimizer": QueryPipeline(TIME_DOMAIN, database, optimize=False),
        }

    @pytest.mark.parametrize(
        "query_factory", [query_onduty, query_skillreq], ids=["onduty", "skillreq"]
    )
    def test_all_variants_agree_up_to_snapshot_equivalence(self, variants, query_factory):
        reference = variants["default"].execute_decoded(query_factory())
        for name, variant in variants.items():
            result = variant.execute_decoded(query_factory())
            assert result.snapshot_equivalent(reference), name

    def test_uncoalesced_variant_still_decodes_correctly(self, pipeline):
        """The plan under the final coalesce may emit fragmented rows, but decodes the same."""
        reference = pipeline.execute_decoded(query_onduty())
        raw = pipeline.execute_rewritten(pipeline.rewriter.rewrite(query_onduty()).child)
        assert period_decode(raw, pipeline.period_semiring) == reference


class TestAdditionalOperators:
    def test_distinct_is_per_snapshot(self, pipeline):
        query = Distinct(Projection.of_attributes(RelationAccess("works"), "skill"))
        decoded = pipeline.execute_decoded(query)
        assert decoded.annotation(("SP",)).mapping == {Interval(3, 16): 1, Interval(18, 20): 1}

    def test_grouped_aggregation(self, pipeline):
        query = Aggregation(
            RelationAccess("works"), ("skill",), (AggregateSpec("count", None, "cnt"),)
        )
        decoded = pipeline.execute_decoded(query)
        assert decoded.annotation(("SP", 2)).mapping == {Interval(8, 10): 1}
        assert decoded.annotation(("NS", 1)).mapping == {Interval(8, 16): 1}

    def test_union_all(self, pipeline):
        query = Union(
            Projection.of_attributes(RelationAccess("works"), "skill"),
            Rename(
                Projection.of_attributes(RelationAccess("assign"), "req_skill"),
                (("req_skill", "skill"),),
            ),
        )
        decoded = pipeline.execute_decoded(query)
        # At hour 7, works has one SP and assign needs two SPs: multiplicity 3.
        assert decoded.timeslice(7).annotation(("SP",)) == 3
