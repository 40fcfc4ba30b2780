"""Each shared sub-plan runs once, and plans stay DAGs on the way there.

REWR hands the same inputs to both splits of a bag difference
(``Split(L, R) - Split(R, L)``) and of a distinct (``Split(X, X)``), and a
query may name one sub-plan twice.  REWR maps one input object to one
output object, each planner pass visits and rebuilds an object at most
once, and the planner's last pass makes equal sub-plans one object; the
engine then runs a node once per execution and
hands its batch to every parent (``batch.shared_reuse`` counts the parents
served so).  The row reference runs every occurrence, so the reference
differential checks that sharing one batch between parents is sound.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import pytest

from repro import connect
from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    Difference,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Union,
)
from repro.backends.sqlcompile import compile_plan
from repro.datasets import (
    EmployeesConfig,
    GeneratorConfig,
    TPCBiHConfig,
    generate_catalog,
    generate_employees,
    generate_tpcbih,
)
from repro.datasets.workloads import employee_queries, tpch_queries
from repro.engine import batch as batch_module
from repro.engine.executor import execute
from repro.errors import ResourceLimitError
from repro.execution import QueryLimits
from repro.planner import optimize, rules
from repro.rewriter import pipeline as pipeline_module
from repro.rewriter.operators import SplitOperator
from repro.rewriter.pipeline import QueryPipeline

EMPLOYEES = EmployeesConfig(scale=0.05)
TPCBIH = TPCBiHConfig(scale_factor=0.05)
SMALL = GeneratorConfig(
    rows=32,
    domain_size=64,
    seed=23,
    interval_profile="mixed",
    duplicate_rate=0.1,
    groups=4,
    values=8,
    keys=16,
)


def template(session, bound: int = 2, category: int = 0):
    """The ``adhoc_small`` benchmark's read chain (``benchmarks/suite/workloads``)."""
    r = session.table("R").select(cat="r_cat", val="r_val")
    s = session.table("S").select(cat="s_cat", val="s_val")
    joined = (
        session.table("R")
        .join(session.table("S"), on="r_key = s_key")
        .select(cat="r_cat", val="s_val")
    )
    everything = r.union(s).union(joined)
    active = everything.difference(r.where(f"val > {bound}")).distinct()
    return (
        active.union(everything.where(f"cat = 'g{category}'"))
        .group_by("cat")
        .agg(cnt="count(*)", total="sum(val)")
    )


def _cases():
    employees = generate_employees(EMPLOYEES)
    for name, query in employee_queries().items():
        yield pytest.param(employees, EMPLOYEES.domain, query, id=f"employee-{name}")
    tpcbih = generate_tpcbih(TPCBIH)
    for name, query in tpch_queries().items():
        yield pytest.param(tpcbih, TPCBIH.domain, query, id=f"tpcbih-{name}")
    small = generate_catalog(SMALL)
    session = connect("memory://", domain=SMALL.domain, database=small)
    yield pytest.param(small, SMALL.domain, template(session).plan, id="adhoc_small")


CASES = list(_cases())


def _parents(plan: Operator) -> Dict[int, int]:
    """Per distinct node, how many parents reference it (a DAG walk)."""
    parents: Dict[int, int] = Counter()
    seen = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        for child in node.children():
            parents[id(child)] += 1
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return parents


def _distinct_nodes(plan: Operator) -> List[Operator]:
    return list({id(node): node for node in plan.walk()}.values())


# -- (a) the planner interns --------------------------------------------------------


@pytest.mark.parametrize("database, domain, query", CASES)
def test_no_two_distinct_nodes_of_an_optimized_plan_are_equal(database, domain, query):
    plan = QueryPipeline(domain, database=database).rewrite(query)
    nodes = _distinct_nodes(plan)
    buckets: Dict[Operator, List[Operator]] = {}
    for node in nodes:
        buckets.setdefault(node, []).append(node)
    assert [group for group in buckets.values() if len(group) > 1] == []
    for node in nodes:
        if isinstance(node, Difference) and all(
            isinstance(side, SplitOperator) for side in node.children()
        ):
            left, right = node.left, node.right
            assert left.left is right.right and left.right is right.left


def test_the_queries_with_a_set_operator_share_their_inputs():
    employees = generate_employees(EMPLOYEES)
    pipeline = QueryPipeline(EMPLOYEES.domain, database=employees)
    queries = employee_queries()
    for name in ("diff-1", "diff-2", "agg-join"):
        plan = pipeline.rewrite(queries[name])
        assert any(count > 1 for count in _parents(plan).values()), name


def test_interning_keeps_a_node_whose_operator_is_not_a_dataclass():
    class Opaque(Operator):
        def __init__(self, child):
            self.child = child

        def children(self):
            return (self.child,)

        def with_children(self, child):
            return Opaque(child)

    scan = RelationAccess("R")
    plan = Union(Opaque(scan), Opaque(RelationAccess("R")))
    optimized = optimize(plan)
    assert optimized.left is not optimized.right
    assert optimized.left.child is optimized.right.child


# -- (b) plans stay DAGs through REWR and the planner ---------------------------------


def test_rewr_maps_one_input_object_to_one_output_object():
    database = generate_catalog(SMALL)
    session = connect("memory://", domain=SMALL.domain, database=database)
    query = template(session).plan
    assert (len(list(query.walk())), len(_distinct_nodes(query))) == (28, 16)
    plan = QueryPipeline(SMALL.domain, database=database, optimize=False).rewrite(query)
    assert len(list(plan.walk())) == 114
    assert len(_distinct_nodes(plan)) == 28


@pytest.mark.parametrize("database, domain, query", CASES)
def test_each_planner_pass_rebuilds_an_object_at_most_once(
    database, domain, query, monkeypatch
):
    rebuilt: Counter = Counter()
    passes: List[Counter] = []

    class Context(rules._Context):
        # optimize() gives every pass a fresh node memo; so does _intern().
        def __setattr__(self, name, value):
            if name == "memo":
                passes.append(rebuilt.copy())
                rebuilt.clear()
            super().__setattr__(name, value)

    def counting(with_children):
        def wrapper(self, *children):
            rebuilt[id(self)] += 1
            return with_children(self, *children)

        return wrapper

    def operator_types(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from operator_types(sub)

    for cls in set(operator_types(Operator)):
        if "with_children" in vars(cls):
            monkeypatch.setattr(cls, "with_children", counting(cls.with_children))
    monkeypatch.setattr(rules, "_Context", Context)
    plan = QueryPipeline(domain, database=database, optimize=False).rewrite(query)
    optimize(plan, database)
    passes.append(rebuilt)
    assert len(passes) >= 4
    assert all(max(counts.values(), default=0) <= 1 for counts in passes)


@pytest.mark.parametrize("database, domain, query", CASES)
def test_optimize_is_idempotent_by_identity(database, domain, query):
    plan = QueryPipeline(domain, database=database, optimize=False).rewrite(query)
    optimized = optimize(plan, database)
    assert optimize(optimized, database) is optimized


def test_threads_sharing_one_rewriter_and_one_rewr_plan_plan_alike():
    database = generate_catalog(SMALL)
    session = connect("memory://", domain=SMALL.domain, database=database)
    query = template(session).plan
    rewriter = QueryPipeline(SMALL.domain, database=database, optimize=False).rewriter
    shared = rewriter.rewrite(query)
    fired: Dict[str, int] = {}
    serial = optimize(shared, database, fired)
    start = threading.Barrier(8)

    def plan(rewritten):
        # A memo shared between calls would hand one call another's rewrites,
        # and its rules would fire fewer times than the serial call's.
        statistics: Dict[str, int] = {}
        optimized = optimize(rewritten, database, statistics)
        assert statistics == fired
        return optimized

    def plan_both(_index):
        start.wait(timeout=30)
        return [(plan(shared), plan(rewriter.rewrite(query))) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the passes, not between them
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = pool.map(plan_both, range(8), timeout=120)
            results = [pair for run in runs for pair in run]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 160
    for plans in results:
        for plan in plans:
            assert plan == serial
            assert plan.explain_tree() == serial.explain_tree()


# -- (c) the engine runs a shared node once ------------------------------------------


@pytest.mark.parametrize("database, domain, query", CASES)
def test_each_node_runs_once_and_the_result_equals_the_row_reference(
    database, domain, query, monkeypatch
):
    plan = QueryPipeline(domain, database=database).rewrite(query)
    runs: Counter = Counter()
    execute_node = batch_module._execute_node

    def counted(node, context, run):
        runs[id(node)] += 1
        return execute_node(node, context, run)

    monkeypatch.setattr(batch_module, "_execute_node", counted)
    statistics: Dict[str, int] = {}
    result = execute(plan, database, statistics)
    assert set(runs.values()) == {1}
    assert len(runs) == len(_distinct_nodes(plan))
    shared = sum(count - 1 for count in _parents(plan).values() if count > 1)
    assert statistics.get("batch.shared_reuse", 0) == shared
    reference = execute(plan, database, executor="row")
    assert Counter(result.rows) == Counter(reference.rows)


def test_view_verify_runs_its_pinned_plan_once(monkeypatch):
    session = connect("memory://", domain=SMALL.domain, database=generate_catalog(SMALL))
    view = session.materialize(template(session), "v")
    seen: Dict[str, int] = {}
    engine_execute = pipeline_module.engine_execute

    def with_statistics(plan, database, statistics=None, **options):
        return engine_execute(plan, database, seen, **options)

    monkeypatch.setattr(pipeline_module, "engine_execute", with_statistics)
    assert view.verify()
    # The pinned plan is the left input of one difference and the right
    # input of the other: served once from the memo, its own shared
    # nodes already run.
    inner = sum(count - 1 for count in _parents(view.plan).values() if count > 1)
    assert seen["batch.shared_reuse"] == 2 + inner  # the plan and the table, once each


# -- (d) nothing outlives an execution -------------------------------------------------


def test_a_held_relation_run_again_after_a_write_sees_the_write():
    database = generate_catalog(SMALL)
    session = connect("memory://", domain=SMALL.domain, database=database)
    held = template(session)
    before = held.rows()
    plan = session.pipeline.rewrite(held.plan)
    rows = list(database.table("R").rows)
    added = [(key, "g0", 7, 0, 40) for key, *_ in rows[:6]]
    for write, batch in ((session.insert, added), (session.delete, rows[6:14])):
        write("R", batch)
        after = held.rows()
        assert Counter(after) == Counter(execute(plan, database, executor="row").rows)
        assert Counter(after) != Counter(before)
        before = after


# -- (e) the row budget ----------------------------------------------------------------


def test_a_shared_node_over_the_row_budget_still_raises():
    database = generate_catalog(SMALL)
    joined = Join(
        Projection.of_attributes(RelationAccess("R"), "r_key", "r_cat"),
        Projection.of_attributes(RelationAccess("S"), "s_key", "s_cat"),
        Comparison("=", attr("r_cat"), attr("s_cat")),
    )
    # The join is the only node with more than 64 rows: the difference of
    # it with itself is empty, so only the shared node can raise.
    plan = Difference(joined, joined)
    assert len(execute(joined, database).rows) > 64
    assert execute(plan, database).rows == []
    with pytest.raises(ResourceLimitError):
        execute(plan, database, limits=QueryLimits(row_budget=64))


# -- literals compare type-strictly ------------------------------------------------------


VALUES = (1, 1.0, True)


def test_the_plan_cache_tells_1_and_1_0_and_true_apart():
    session = connect(
        "memory://", domain=EMPLOYEES.domain, database=generate_employees(EMPLOYEES)
    )
    for value in VALUES:
        rows = session.table("dept_manager").select(c=lit(value)).rows()
        assert {type(row[0]) for row in rows} == {type(value)}
        assert {row[0] for row in rows} == {value}


def test_interning_tells_literals_and_constant_rows_apart():
    from repro.algebra.operators import ConstantRelation

    scan = RelationAccess("R")
    for build in (
        lambda value: Projection(scan, ((lit(value), "c"),)),
        lambda value: ConstantRelation(("c",), ((value,),)),
    ):
        plan = Union(Union(build(1), build(1.0)), build(True))
        optimized = optimize(plan)
        leaves = [optimized.left.left, optimized.left.right, optimized.right]
        assert len({id(node) for node in leaves}) == 3
        assert len(set(leaves)) == 3
        assert build(1) == build(1) and hash(build(1)) == hash(build(1))


def test_the_sql_compiler_memo_tells_literals_apart():
    database = generate_employees(EMPLOYEES)
    scan = RelationAccess("dept_manager")
    plan = Union(Projection(scan, ((lit(1), "c"),)), Projection(scan, ((lit(1.0), "c"),)))
    sql = compile_plan(plan, database).sql
    assert "1.0" in sql
