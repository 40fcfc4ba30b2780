"""Behavior of the fluent session API over the paper's running example."""

import pytest

from repro import ExecutionPolicy, TimeDomain, connect
from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Projection,
    RelationAccess,
    Rename,
    Selection,
)
from repro.api import FluentError, Session, TemporalRelation
from repro.backends import SQLiteBackend
from repro.datasets.running_example import (
    ASSIGN_ROWS,
    EXPECTED_ONDUTY,
    EXPECTED_SKILLREQ,
    TIME_DOMAIN,
    WORKS_ROWS,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.engine.catalog import Database
from repro.rewriter import QueryPipeline


@pytest.fixture
def session() -> Session:
    session = connect(domain=TIME_DOMAIN)
    session.load("works", ["name", "skill"], WORKS_ROWS)
    session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)
    return session


def expected_onduty_rows():
    return sorted(
        (cnt, begin, end)
        for cnt, intervals in EXPECTED_ONDUTY.items()
        for begin, end in intervals
    )


class TestConnect:
    def test_domain_coercions(self):
        assert connect(domain=TimeDomain(0, 24)).domain == TimeDomain(0, 24)
        assert connect(domain=(0, 24)).domain == TimeDomain(0, 24)
        assert connect(domain=24).domain == TimeDomain(0, 24)
        with pytest.raises(FluentError):
            connect("tomorrow")

    def test_attach_to_existing_catalog(self):
        database = populate_database(Database())
        session = connect(domain=TIME_DOMAIN, database=database)
        assert session.database is database
        assert sorted(session.table("works").rows()) == sorted(
            database.table("works").rows
        )

    def test_unknown_table_error_names_candidates(self, session):
        with pytest.raises(FluentError, match="works"):
            session.table("wrks")

    def test_session_repr_names_backend_and_tables(self, session):
        assert "works" in repr(session)
        assert "memory" in repr(session)

    @pytest.mark.parametrize("value", ["cost", "nonsense", "off", 1, None])
    def test_planner_is_a_boolean_refused_where_it_is_written(self, session, value):
        """At the keyword, the constructor and the assignment; not at the first query."""
        for write in (
            lambda: connect(domain=TIME_DOMAIN, planner=value),
            lambda: QueryPipeline(TIME_DOMAIN, optimize=value),
            lambda: setattr(session, "planner", value),
        ):
            with pytest.raises(ValueError, match="True .*False"):
                write()
        assert session.planner is True

    @pytest.mark.parametrize("text", ["cost", "syntactic", "nonsense"])
    def test_dsn_planner_is_on_or_off(self, text):
        with pytest.raises(ValueError, match="true/false, on/off"):
            connect(f"memory://?domain=0:8&planner={text}")


class TestRunningExampleThroughFluentChains:
    def test_onduty(self, session):
        onduty = session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
        assert sorted(onduty.rows()) == expected_onduty_rows()

    def test_skillreq(self, session):
        required = (
            session.table("assign").select("req_skill").rename(req_skill="skill")
        )
        available = session.table("works").select("skill")
        result = required.difference(available)
        expected = sorted(
            (skill, begin, end)
            for skill, intervals in EXPECTED_SKILLREQ.items()
            for begin, end in intervals
        )
        assert sorted(result.rows()) == expected

    def test_snapshot_reducibility(self, session):
        onduty = session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
        assert dict(onduty.snapshot(8)) == {(2,): 1}
        assert dict(onduty.snapshot(0)) == {(0,): 1}

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_snapshot_is_the_decoded_timeslice(self, backend):
        session = connect(domain=TIME_DOMAIN, backend=backend)
        works = session.load("works", ["name", "skill"], WORKS_ROWS)
        assign = session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)
        relations = [
            works.where("skill = 'SP'").agg(cnt="count(*)"),
            works.join(assign, on="skill = req_skill").select("name", "mach"),
            assign.select("req_skill").difference(
                works.select("skill").rename(skill="req_skill")
            ),
        ]
        for relation in relations:
            decoded = relation.decoded()
            for point in TIME_DOMAIN.points():
                assert relation.snapshot(point) == decoded.timeslice(point)
        with pytest.raises(ValueError):
            relations[0].snapshot(TIME_DOMAIN.max_point)

    def test_join_with_predicate_string(self, session):
        pairs = (
            session.table("works")
            .join(session.table("assign"), on="skill = req_skill")
            .where("skill = 'SP'")
            .select("name", "mach")
        )
        rows = pairs.rows()
        assert ("Ann", "M1", 3, 10) in rows
        # decoded snapshot at hour 7: Ann is on duty, M1 and M2 need SP.
        snapshot = dict(pairs.snapshot(7))
        assert snapshot[("Ann", "M1")] == 1
        assert snapshot[("Ann", "M2")] == 1

    def test_join_with_pair_sequence(self, session):
        by_pairs = session.table("works").join(
            session.table("assign"), on=[("skill", "req_skill")]
        )
        by_string = session.table("works").join(
            session.table("assign"), on="skill = req_skill"
        )
        assert by_pairs.plan == by_string.plan

    def test_group_by_agg(self, session):
        per_skill = session.table("works").group_by("skill").agg(cnt="count(*)")
        assert per_skill.plan == Aggregation(
            RelationAccess("works"), ("skill",), (AggregateSpec("count", None, "cnt"),)
        )
        assert ("SP", 2, 8, 10) in per_skill.rows()

    def test_union_and_distinct(self, session):
        skills = (
            session.table("assign")
            .select("req_skill")
            .rename(req_skill="skill")
            .union(session.table("works").select("skill"))
            .distinct()
        )
        snapshot = dict(skills.snapshot(8))
        assert snapshot == {("SP",): 1, ("NS",): 1}

    def test_sqlite_backend_agrees(self):
        session = connect(domain=TIME_DOMAIN, backend="sqlite")
        session.load("works", ["name", "skill"], WORKS_ROWS)
        onduty = session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
        assert sorted(onduty.rows()) == expected_onduty_rows()


class TestPlanEquality:
    """Fluent chains build exactly the hand-written operator trees."""

    def test_onduty_plan(self, session):
        fluent = session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
        assert fluent.plan == query_onduty()

    def test_skillreq_plan(self, session):
        fluent = (
            session.table("assign")
            .select("req_skill")
            .rename(req_skill="skill")
            .difference(session.table("works").select("skill"))
        )
        assert fluent.plan == query_skillreq()

    def test_select_computed_columns(self, session):
        fluent = session.table("works").select("name", upper="skill")
        assert fluent.plan == Projection(
            RelationAccess("works"),
            ((attr("name"), "name"), (attr("skill"), "upper")),
        )

    def test_query_wraps_hand_built_trees(self, session):
        wrapped = session.query(query_onduty())
        assert isinstance(wrapped, TemporalRelation)
        assert wrapped.plan == query_onduty()
        assert sorted(wrapped.rows()) == expected_onduty_rows()


class TestValidation:
    def test_where_rejects_non_expressions(self, session):
        with pytest.raises(TypeError):
            session.table("works").where(42)

    def test_select_needs_columns(self, session):
        with pytest.raises(FluentError):
            session.table("works").select()

    def test_rename_needs_pairs(self, session):
        with pytest.raises(FluentError):
            session.table("works").rename()

    def test_agg_needs_aggregates(self, session):
        with pytest.raises(FluentError):
            session.table("works").group_by("skill").agg()

    def test_agg_shorthand_is_validated(self, session):
        with pytest.raises(FluentError, match="func"):
            session.table("works").agg(cnt="count")
        with pytest.raises(FluentError, match=r"count\(\*\)"):
            session.table("works").agg(total="sum(*)")

    def test_join_overlaps_false_is_rejected(self, session):
        with pytest.raises(FluentError, match="snapshot"):
            session.table("works").join(session.table("assign"), overlaps=False)

    def test_cross_session_operands_are_rejected(self, session):
        other = connect(domain=TIME_DOMAIN)
        other.load("works", ["name", "skill"], WORKS_ROWS)
        with pytest.raises(FluentError, match="session"):
            session.table("works").union(other.table("works"))


class TestCoalesceAndCheck:
    def test_the_final_coalesce_makes_the_encoding_unique(self, session):
        from collections import Counter

        from repro.rewriter import CoalesceOperator, period_decode

        works = session.table("works")
        relation = works.select("skill").union(works.select("skill"))
        # The plan under REWR's final coalesce leaves a non-canonical
        # encoding; the coalesce turns it into the unique normal form the
        # session returns...
        pipeline = session.pipeline
        uncoalesced = pipeline.rewriter.rewrite(relation.plan).child
        raw = pipeline.execute_rewritten(uncoalesced)
        assert Counter(raw.rows) != Counter(relation.rows())
        coalesced = pipeline.execute_rewritten(CoalesceOperator(uncoalesced))
        assert Counter(coalesced.rows) == Counter(relation.rows())
        # ...and both encodings decode to the same period K-relation (Lemma 6.1).
        assert period_decode(raw, pipeline.period_semiring) == relation.decoded()

    def test_check_runs_the_conformance_oracle(self, session):
        report = session.table("works").where("skill = 'SP'").agg(
            cnt="count(*)"
        ).check(backends=("memory",))
        assert report.ok
        assert report.checks > 0

    def test_check_catches_broken_rewrites(self, session):
        from repro.conformance.mutations import BrokenDistinctRewriter

        report = (
            session.table("works")
            .select("skill")
            .distinct()
            .check(backends=("memory",), rewriter_cls=BrokenDistinctRewriter)
        )
        assert not report.ok
        assert report.counterexample is not None

    def test_check_certifies_the_pipelines_own_rewriter(self, session):
        # The check verb over a pipeline wired to a broken rewriter must FAIL:
        # the oracle certifies the rewriter that pipeline executes, not the
        # default one.
        from repro.conformance.mutations import BrokenDistinctRewriter
        from repro.server.verbs import VERBS

        pipeline = QueryPipeline(
            TIME_DOMAIN, session.database, rewriter_cls=BrokenDistinctRewriter
        )
        plan = session.table("works").select("skill").distinct().plan
        report = VERBS["check"].run(pipeline, plan, {"backends": ("memory",)})
        assert not report.ok
        assert VERBS["check"].run(session.pipeline, plan, {"backends": ("memory",)}).ok


class TestExplain:
    @pytest.mark.parametrize(
        "policy", [None, ExecutionPolicy(retries=1)], ids=["no-policy", "policy"]
    )
    def test_explain_sections(self, session, policy):
        session.policy = policy
        text = (
            session.table("works")
            .join(session.table("assign"), on="skill = req_skill")
            .where("skill = 'SP'")
            .explain()
        )
        assert "logical plan:" in text
        assert "REWR plan:" in text
        assert "optimized plan (planner on):" in text
        assert "planner rules fired:" in text
        assert "planner." in text
        assert "join_strategy.interval = 1" in text
        assert "executed plan:" in text
        assert "strategy=interval" in text and "actual_rows=" in text
        assert "plan cache:" in text

    @pytest.mark.parametrize("backend", ["sqlite", "session"])
    def test_explain_on_sqlite_shows_the_hosts_query_plan(self, backend):
        database = populate_database(Database())
        if backend == "session":
            backend = SQLiteBackend.for_database(database)
        session = connect(domain=TIME_DOMAIN, database=database, backend=backend)
        text = (
            session.table("works")
            .join(session.table("assign"), on="skill = req_skill")
            .explain()
        )
        section = text.split("execution (backend='sqlite'):")[1].split("\n\n")[0]
        assert "(no joins)" not in section
        assert "statement: " in section and " CTEs" in section
        # The equi+overlap join of REWR: one loop per input (which of them is
        # an index SEARCH is pinned in tests/backends, per SQLite version).
        steps = map(str.split, section.splitlines())
        loops = [step for step in steps if step[1:2] in (["__l"], ["__r"])]
        assert len(loops) == 2 and {step[0] for step in loops} <= {"SCAN", "SEARCH"}

    @pytest.mark.parametrize("planner", [True, False])
    def test_explain_shows_the_plan_that_executes(self, planner):
        """The last staged plan is the rewrite execution caches, not a re-staging."""
        session = connect(domain=TIME_DOMAIN, planner=planner)
        works = session.load("works", ["name", "skill"], WORKS_ROWS)
        assign = session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)
        relation = works.join(assign, on="skill = req_skill").where("skill = 'SP'")
        staged = [
            section.split("\n", 1)[1]
            for section in relation.explain().split("\n\n")
            if section.startswith(("REWR plan:", "optimized plan"))
        ]
        executed = session.pipeline.rewrite(relation.plan)
        assert len(staged) == (2 if planner else 1)
        assert staged[-1] == "\n".join(
            "  " + line for line in executed.explain_tree().splitlines()
        )

    def test_explain_with_planner_off(self):
        session = connect(domain=TIME_DOMAIN, planner=False)
        session.load("works", ["name", "skill"], WORKS_ROWS)
        text = session.table("works").where("skill = 'SP'").explain()
        assert "planner: off" in text
        assert "optimized plan" not in text


class TestPipelineInterop:
    def test_operator_trees_share_the_sessions_pipeline(self, session):
        pipeline = session.pipeline
        assert pipeline.database is session.database
        assert sorted(pipeline.execute(query_onduty()).rows) == expected_onduty_rows()
        # The pipeline call above warmed the *shared* plan cache.
        hits_before = session.cache_info().hits
        session.query(query_onduty()).rows()
        assert session.cache_info().hits == hits_before + 1
