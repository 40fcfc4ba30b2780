"""Differential tests: the SQLite backend against the in-memory engine.

The acceptance bar for the SQL backend is *equivalence with the engine after
canonical coalescing*: for every Table-1 correctness case and for the full
Table-3 Employee and TPC-BiH workloads, executing the rewritten plan on
sqlite3 must produce the same period relation the in-memory engine
produces.  Aggregate values that are floats are compared after rounding
(the two hosts sum in different orders), everything else exactly.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter

import pytest

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    ConstantRelation,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Selection,
)
from repro.backends import InMemoryBackend, SQLCompiler, SQLiteBackend, compile_plan
from repro.baselines import (
    IntervalPreservationRewriter,
    PerOperatorCoalesceRewriter,
    SplitThenAggregateRewriter,
    TemporalAlignmentRewriter,
)
from repro.datasets.employees import EmployeesConfig, generate_employees
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.datasets.sqlite_loader import connect_memory, load_database
from repro.datasets.tpcbih import TPCBiHConfig, generate_tpcbih
from repro.datasets.workloads import EMPLOYEE_WORKLOAD, TPCH_WORKLOAD
from repro.engine.catalog import Database
from repro.errors import BackendError
from repro.execution import available_backends, resolve_backend
from repro.experiments.table1 import _fresh_database
from repro.planner import optimize as planner_optimize
from repro.planner.rules import split_conjuncts
from repro.rewriter import SnapshotRewriter, period_decode
from repro.rewriter.pipeline import QueryPipeline

EMPLOYEE_CONFIG = EmployeesConfig(scale=0.05)
TPCH_CONFIG = TPCBiHConfig(scale_factor=0.1)


def canonical(table, float_digits: int = 6) -> Counter:
    """Multiset of rows with floats rounded (cross-host sum ordering)."""
    return Counter(
        tuple(round(v, float_digits) if isinstance(v, float) else v for v in row)
        for row in table.rows
    )


def assert_equivalent(memory_table, sqlite_table):
    assert memory_table.schema == sqlite_table.schema
    assert canonical(memory_table) == canonical(sqlite_table)


# -- fixtures ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def employee_database():
    return generate_employees(EMPLOYEE_CONFIG)

@pytest.fixture(scope="module")
def employee_setup(employee_database):
    pipeline = QueryPipeline(EMPLOYEE_CONFIG.domain, database=employee_database)
    backend = SQLiteBackend.for_database(employee_database)
    yield pipeline, backend
    backend.close()


@pytest.fixture(scope="module")
def tpch_setup():
    database = generate_tpcbih(TPCH_CONFIG)
    pipeline = QueryPipeline(TPCH_CONFIG.domain, database=database)
    backend = SQLiteBackend.for_database(database)
    yield pipeline, backend
    backend.close()


# -- Table 1: the running-example correctness cases -------------------------------------


class TestTable1Cases:
    """Every probe of the Table-1 correctness matrix, SQLite vs engine."""

    def uniqueness_query(self):
        return Projection.of_attributes(
            Selection(
                RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))
            ),
            "name",
            "skill",
        )

    @pytest.mark.parametrize("split_ann", [False, True])
    @pytest.mark.parametrize("case", ["onduty", "skillreq", "uniqueness"])
    def test_case_matches_engine(self, case, split_ann):
        queries = {
            "onduty": query_onduty,
            "skillreq": query_skillreq,
            "uniqueness": self.uniqueness_query,
        }
        database = _fresh_database(split_ann=split_ann)
        pipeline = QueryPipeline(TIME_DOMAIN, database=database)
        query = queries[case]()
        assert_equivalent(
            pipeline.execute(query), pipeline.execute(query, backend="sqlite")
        )

    def test_ag_gap_rows_present_on_sqlite(self):
        """The AG fix survives the SQL lowering: count-0 rows cover the gaps."""
        pipeline = QueryPipeline(
            TIME_DOMAIN, database=populate_database(Database())
        )
        result = pipeline.execute(query_onduty(), backend="sqlite")
        zero_rows = [row for row in result.rows if row[0] == 0]
        covered = set()
        for _, begin, end in zero_rows:
            covered.update(range(begin, end))
        assert {0, 16, 20} <= covered

    def test_bd_multiplicities_present_on_sqlite(self):
        """The BD fix survives: SP requirement surplus appears with interval."""
        pipeline = QueryPipeline(
            TIME_DOMAIN, database=populate_database(Database())
        )
        result = pipeline.execute(query_skillreq(), backend="sqlite")
        sp_points = set()
        for skill, begin, end in result.rows:
            if skill == "SP":
                sp_points.update(range(begin, end))
        assert {6, 7, 10, 11} <= sp_points

    def test_unique_encoding_across_input_representations(self):
        """Snapshot-equivalent inputs produce identical SQLite outputs."""
        query = self.uniqueness_query()
        results = []
        for split_ann in (False, True):
            database = _fresh_database(split_ann=split_ann)
            pipeline = QueryPipeline(TIME_DOMAIN, database=database)
            results.append(pipeline.execute(query, backend="sqlite"))
        assert canonical(results[0]) == canonical(results[1])


# -- Table 3 workloads -------------------------------------------------------------------


class TestEmployeeWorkload:
    @pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
    def test_query_matches_engine(self, employee_setup, query_name):
        pipeline, backend = employee_setup
        query = EMPLOYEE_WORKLOAD[query_name]()
        assert_equivalent(
            pipeline.execute(query), pipeline.execute(query, backend=backend)
        )


    def test_statements_use_no_syntax_newer_than_window_functions(self, employee_setup):
        """The CI matrix starts at SQLite 3.37; 3.35's MATERIALIZED hints are out."""
        pipeline, _ = employee_setup
        for factory in EMPLOYEE_WORKLOAD.values():
            sql = compile_plan(pipeline.rewrite(factory()), pipeline.database).sql
            assert "MATERIALIZED" not in sql.upper()


class TestTPCBiHWorkload:
    @pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
    def test_query_matches_engine(self, tpch_setup, query_name):
        pipeline, backend = tpch_setup
        query = TPCH_WORKLOAD[query_name]()
        result = pipeline.execute(query, backend=backend)
        assert_equivalent(pipeline.execute(query), result)

    def test_workload_produces_rows(self, tpch_setup):
        """Guard against vacuous green: the scale must exercise the queries."""
        pipeline, backend = tpch_setup
        row_counts = {
            name: len(pipeline.execute(factory(), backend=backend))
            for name, factory in TPCH_WORKLOAD.items()
        }
        non_empty = [name for name, count in row_counts.items() if count > 0]
        assert len(non_empty) >= 6, row_counts


# -- plan pin: every equi-join runs as an index join on the host --------------------------

#: EXPLAIN QUERY PLAN wording and automatic-index choice are the host
#: planner's; the pin is checked from the oldest SQLite of the CI matrix on.
needs_modern_planner = pytest.mark.skipif(
    sqlite3.sqlite_version_info < (3, 37),
    reason=f"join plans are pinned for SQLite >= 3.37, found {sqlite3.sqlite_version}",
)


def has_equi_join(plan) -> bool:
    return any(
        isinstance(node, Join)
        and node.predicate is not None
        and any(
            isinstance(conjunct, Comparison) and conjunct.op == "="
            for conjunct in split_conjuncts(node.predicate)
        )
        for node in plan.walk()
    )


def join_blocks(backend, plan, database):
    """Per join block of the host's plan, its loops over the ``__l``/``__r`` inputs."""
    loops: dict = {}
    stack: list = []
    for line in backend.explain(plan, database)[1:]:
        level = (len(line) - len(line.lstrip())) // 2
        del stack[level - 1 :]
        stack.append(line)
        step = line.split()
        if step[0] in ("SCAN", "SEARCH") and step[1] in ("__l", "__r"):
            loops.setdefault(tuple(stack[:-1]), []).append(step[0])
    return list(loops.values())


@needs_modern_planner
class TestJoinPlansArePinned:
    def assert_index_joins(self, pipeline, backend, query):
        plan = pipeline.rewrite(query)
        if not has_equi_join(plan):
            pytest.skip("no equality conjunct in any join of the rewritten plan")
        blocks = join_blocks(backend, plan, pipeline.database)
        assert blocks, "no join block found in the host plan"
        for loops in blocks:
            assert sorted(loops) == ["SCAN", "SEARCH"], blocks

    @pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
    def test_employee_query(self, employee_setup, query_name):
        self.assert_index_joins(*employee_setup, EMPLOYEE_WORKLOAD[query_name]())

    @pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
    def test_tpcbih_query(self, tpch_setup, query_name):
        self.assert_index_joins(*tpch_setup, TPCH_WORKLOAD[query_name]())


# -- join order: the input with more base rows beneath it is the one SQLite loops over ----


def base_rows(plan, database) -> int:
    """Rows of every table / constant occurrence beneath ``plan``."""
    return sum(
        len(database.table(node.name)) if isinstance(node, RelationAccess) else len(node.rows)
        for node in plan.walk()
        if isinstance(node, (RelationAccess, ConstantRelation))
    )


class TestJoinOrderOnThePaperQueries:
    """Every ``CROSS JOIN`` a paper query compiles to follows the rule, ties keeping ``__l``."""

    def assert_rule(self, pipeline, query, monkeypatch):
        database = pipeline.database
        plan = planner_optimize(pipeline.rewrite(query), database)
        compile_join = SQLCompiler._join
        joins = {}  # CTE name -> (join node, its body)

        def spy(compiler, node):
            block = compile_join(compiler, node)
            joins[block.source] = (node, dict(compiler._ctes)[block.source])
            return block

        monkeypatch.setattr(SQLCompiler, "_join", spy)
        sql = compile_plan(plan, database).sql
        assert len(joins) == sql.count("CROSS JOIN")
        for node, body in joins.values():
            outer = re.search(r"^FROM \S+ AS (__[lr]) CROSS JOIN \S+ AS __[lr]", body, re.M)
            left, right = base_rows(node.left, database), base_rows(node.right, database)
            assert outer.group(1) == ("__r" if right > left else "__l"), (left, right, body)

    @pytest.mark.parametrize("query_name", list(EMPLOYEE_WORKLOAD))
    def test_employee_query(self, employee_setup, query_name, monkeypatch):
        self.assert_rule(employee_setup[0], EMPLOYEE_WORKLOAD[query_name](), monkeypatch)

    @pytest.mark.parametrize("query_name", list(TPCH_WORKLOAD))
    def test_tpcbih_query(self, tpch_setup, query_name, monkeypatch):
        self.assert_rule(tpch_setup[0], TPCH_WORKLOAD[query_name](), monkeypatch)


# -- rewriter configurations (ablation modes) --------------------------------------------


class TestRewriterModes:
    """The SQL lowering must agree for REWR, its ablation baselines and their uncoalesced plans."""

    @pytest.mark.parametrize(
        "rewriter_cls",
        [SnapshotRewriter, PerOperatorCoalesceRewriter, SplitThenAggregateRewriter],
        ids=["rewr", "per-operator", "split-then-aggregate"],
    )
    @pytest.mark.parametrize("coalesced", [True, False], ids=["coalesced", "uncoalesced"])
    def test_onduty_decodes_identically(self, rewriter_cls, coalesced):
        database = populate_database(Database())
        pipeline = QueryPipeline(TIME_DOMAIN, database=database, rewriter_cls=rewriter_cls)
        plan = pipeline.rewriter.rewrite(query_onduty())
        if not coalesced:
            # The plan under the final coalesce leaves a non-canonical
            # encoding; compare decoded period relations (decoding
            # coalesces), not raw rows.
            plan = plan.child
        memory = pipeline.execute_rewritten(plan)
        via_sqlite = pipeline.execute_rewritten(plan, backend="sqlite")
        semiring = pipeline.period_semiring
        assert period_decode(memory, semiring) == period_decode(via_sqlite, semiring)

    @pytest.mark.parametrize(
        "rewriter_cls",
        [IntervalPreservationRewriter, TemporalAlignmentRewriter],
        ids=["interval-preservation", "temporal-alignment"],
    )
    @pytest.mark.parametrize(
        "query_name",
        ["onduty", "skillreq", *EMPLOYEE_WORKLOAD],
    )
    def test_native_baseline_rows_agree(self, employee_database, rewriter_cls, query_name):
        """Memory and SQLite return the native baselines' rows alike, as bags."""
        if query_name in ("onduty", "skillreq"):
            database, domain = populate_database(Database()), TIME_DOMAIN
            query = {"onduty": query_onduty, "skillreq": query_skillreq}[query_name]()
        else:
            database, domain = employee_database, EMPLOYEE_CONFIG.domain
            query = EMPLOYEE_WORKLOAD[query_name]()
        pipeline = QueryPipeline(domain, database=database, rewriter_cls=rewriter_cls)
        assert_equivalent(pipeline.execute(query), pipeline.execute(query, backend="sqlite"))

    def test_distinct_rewrite(self):
        database = populate_database(Database())
        pipeline = QueryPipeline(TIME_DOMAIN, database=database)
        query = Distinct(Projection.of_attributes(RelationAccess("works"), "skill"))
        assert_equivalent(
            pipeline.execute(query), pipeline.execute(query, backend="sqlite")
        )


# -- backend selection plumbing ----------------------------------------------------------


class TestBackendSelection:
    def test_registry_lists_both_backends(self):
        names = available_backends()
        assert "memory" in names and "sqlite" in names

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_backend("memory"), InMemoryBackend)
        backend = SQLiteBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            resolve_backend("oracle9i")

    def test_pipeline_default_backend(self):
        database = populate_database(Database())
        pipeline = QueryPipeline(TIME_DOMAIN, database=database, backend="sqlite")
        reference = QueryPipeline(TIME_DOMAIN, database=database)
        assert canonical(pipeline.execute(query_onduty())) == canonical(
            reference.execute(query_onduty())
        )

    def test_sqlite_statistics(self):
        database = populate_database(Database())
        pipeline = QueryPipeline(TIME_DOMAIN, database=database)
        statistics: dict = {}
        pipeline.execute(query_onduty(), statistics=statistics, backend="sqlite")
        assert statistics["sqlite_statements"] == 1
        assert statistics["sqlite_result_rows"] > 0
        assert statistics["sqlite_rows_loaded"] > 0

    def test_session_backend_rejects_foreign_catalog(self, employee_database):
        backend = SQLiteBackend.for_database(employee_database)
        other = populate_database(Database())
        with pytest.raises(BackendError):
            backend.execute(RelationAccess("works"), other)
        backend.close()

    def test_closed_session_backend_raises(self):
        database = populate_database(Database())
        backend = SQLiteBackend.for_database(database)
        backend.close()
        # Must fail loudly, not silently degrade to load-per-query mode.
        with pytest.raises(BackendError):
            backend.execute(RelationAccess("works"), database)

    def test_session_backend_follows_catalog_dml(self):
        """A session backend re-loads what insert/delete touched (no stale reads)."""
        database = populate_database(Database())
        backend = SQLiteBackend.for_database(database)
        plan = RelationAccess("works")
        before = len(backend.execute(plan, database))
        extra = [database.table("works").rows[0]] * 3
        database.insert("works", extra)
        assert len(backend.execute(plan, database)) == before + 3
        database.delete("works", extra[:2])
        assert_equivalent(
            InMemoryBackend().execute(plan, database), backend.execute(plan, database)
        )
        statistics: dict = {}
        backend.execute(plan, database, statistics)
        assert "sqlite_rows_loaded" not in statistics  # clean tables are not re-loaded
        backend.close()

    def test_session_backend_follows_catalog_ddl(self):
        """Replacing or creating a table (DDL) is seen by Table identity."""
        database = populate_database(Database())
        backend = SQLiteBackend.for_database(database)
        database.create_table("works", ["name", "skill"], [("Zoe", "SP")])
        assert backend.execute(RelationAccess("works"), database).rows == [("Zoe", "SP")]
        database.create_table("fresh", ["x"], [(1,), (2,)])
        assert sorted(backend.execute(RelationAccess("fresh"), database).rows) == [(1,), (2,)]
        backend.close()

    def test_callers_own_connection_is_queried_as_is(self):
        """``SQLiteBackend(connection)`` never loads into a connection it was handed."""
        database = populate_database(Database())
        connection = connect_memory()
        load_database(connection, database)
        connection.execute('DELETE FROM "works"')
        assert SQLiteBackend(connection).execute(RelationAccess("works"), database).rows == []
        connection.close()

    def test_session_mode_adds_no_dml_observer(self):
        """It follows the catalog by comparing version ids, so there is nothing to unregister."""
        database = populate_database(Database())
        observers = list(database._observers)
        backend = SQLiteBackend.for_database(database)
        assert database._observers == observers
        loaded = dict(backend._loaded)
        assert loaded == {name: version.id for name, version in database.snapshot().items()}
        database.insert("works", [("Zoe", "SP", 0, 4)])
        assert backend._loaded == loaded  # nothing is told of the write ...
        statistics: dict = {}
        backend.execute(RelationAccess("works"), database, statistics)
        assert statistics["sqlite_rows_loaded"] == len(database.table("works"))  # ... the next query finds it
        assert backend._loaded["works"] == database.snapshot()["works"].id != loaded["works"]
        backend.close()
        assert database._observers == observers

    def test_snapshot_reducibility_via_sqlite(self):
        """Timeslices of the SQLite result equal the abstract-model oracle."""
        database = populate_database(Database())
        pipeline = QueryPipeline(TIME_DOMAIN, database=database)
        decoded = pipeline.execute_decoded(query_onduty(), backend="sqlite")
        reference = pipeline.execute_decoded(query_onduty())
        for point in (0, 5, 9, 17, 23):
            assert decoded.timeslice(point) == reference.timeslice(point)
