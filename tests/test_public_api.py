"""Integration tests for the package-level public API and the README quickstart."""

import importlib

import pytest

import repro
from repro import (
    Database,
    KRelation,
    PeriodDatabase,
    PeriodKRelation,
    PeriodSemiring,
    Table,
    TemporalElement,
    TimeDomain,
)
from repro.rewriter import QueryPipeline


#: The pinned package-level API surface.  A failure here means an export was
#: added or removed: if intentional, update this snapshot *in the same PR*
#: (it is the contract the README/quickstart and downstream users code
#: against); if not, the import graph changed by accident.
EXPECTED_REPRO_EXPORTS = {
    "__version__",
    # fluent session API (canonical front door)
    "connect",
    "Session",
    "QueryServer",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "parse_expression",
    # temporal foundations
    "TimeDomain",
    "Interval",
    "TemporalElement",
    "PeriodSemiring",
    "Semiring",
    "BOOLEAN",
    "NATURAL",
    # abstract model (oracle)
    "KRelation",
    "SnapshotKRelation",
    "SnapshotDatabase",
    "evaluate_snapshot_query",
    # logical model
    "PeriodKRelation",
    "PeriodDatabase",
    # implementation level
    "Database",
    "Table",
    "ExecutionBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "available_backends",
    # fault tolerance (error taxonomy, policies, fault injection)
    "ReproError",
    "ParseError",
    "PlanError",
    "BackendError",
    "BackendUnavailableError",
    "ProtocolError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "ExecutionPolicy",
    "FaultSchedule",
    "FaultInjectingBackend",
    # incremental view maintenance
    "IncrementalError",
    "Delta",
    "MaterializedView",
    # conformance
    "ConformanceError",
    "ConformanceReport",
    "Counterexample",
    "assert_conformant",
    "check_conformance",
}

EXPECTED_API_EXPORTS = {
    "connect",
    "Session",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "ExpressionSyntaxError",
    "parse_expression",
    "as_expression",
}


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_package_surface_snapshot(self):
        """Accidental export changes must fail loudly (see the note above)."""
        assert set(repro.__all__) == EXPECTED_REPRO_EXPORTS
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_api_surface_snapshot(self):
        api = importlib.import_module("repro.api")
        assert set(api.__all__) == EXPECTED_API_EXPORTS
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.semirings",
            "repro.temporal",
            "repro.abstract_model",
            "repro.logical_model",
            "repro.algebra",
            "repro.engine",
            "repro.backends",
            "repro.rewriter",
            "repro.api",
            "repro.server",
            "repro.client",
            "repro.incremental",
            "repro.baselines",
            "repro.conformance",
            "repro.datasets",
            "repro.experiments",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    def test_execution_module_stays_below_rewriter_and_backends(self):
        """The module that broke the ``rewriter -> backends -> rewriter`` cycle.

        ``repro.execution`` must never grow a *module-level* import of the
        layers above it (function-local imports for lazy registration are
        fine) -- that is the invariant that lets the pipeline and the
        fluent API import the backend contract without ``TYPE_CHECKING``
        guards.  Checked statically so a regression fails here, not as an
        ImportError at some unlucky caller.

        The other half of the layering: exactly one module dispatches plans
        to backends by name.  ``resolve_backend`` is imported by the
        pipeline (``QueryPipeline._run_plan``) and nowhere else -- bar the
        fault-injection *wrapper*, which resolves the inner backend it
        wraps once, at construction, and is itself handed plans by the
        pipeline.

        And the paper's temporal vocabulary stays below the engine: no
        module of ``repro.temporal`` imports ``repro.engine`` (the coalesce
        operator's sweep and kernel live in the engine, the normal forms of
        temporal elements do not need it).
        """
        import ast
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        for path in (package / "temporal").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    named = [alias.name for alias in node.names]
                    if isinstance(node, ast.ImportFrom):
                        named.append(node.module or "")
                    assert not any("engine" in name.split(".") for name in named), (
                        f"temporal/{path.name}:{node.lineno} imports the engine"
                    )

        source = pathlib.Path(repro.execution.__file__).read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert "rewriter" not in module and "backends" not in module, (
                    f"repro.execution imports {module!r} at module level"
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "rewriter" not in alias.name
                    assert "backends" not in alias.name

        importers = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if path.name != "execution.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "resolve_backend" for alias in node.names)
        }
        assert importers == {"rewriter/pipeline.py", "faultinject.py"}


    def test_the_session_surface_is_stated_once(self):
        """``repro.server.verbs`` is the only place that knows a verb's frame.

        In ``repro.api``, ``repro.client`` and the server's dispatcher no
        frame of a verb is built or recognised by hand and no plan is
        encoded or decoded: the session calls verbs by name, the transports
        and the server look them up in the table.  The frames the server
        itself tells apart are the handshake, the streaming ``query`` and
        ``cancel``; every other ``type`` it accepts is a table entry.
        """
        import ast
        import pathlib

        from repro.server.verbs import QUERY, VERBS

        package = pathlib.Path(repro.__file__).parent
        verbs = set(VERBS) | {QUERY.name}
        assert "hello" not in verbs and "cancel" not in verbs
        reference = package.parents[1] / "EXPERIMENTS.md"  # the hand-kept protocol table
        if reference.exists():
            missing = {verb for verb in verbs if f"`{verb}`" not in reference.read_text()}
            assert not missing, f"EXPERIMENTS.md 'Query server' does not list {missing}"
        for path in [
            *package.glob("api/*.py"),
            *package.glob("client/*.py"),
            package / "server" / "core.py",
        ]:
            where = path.relative_to(package).as_posix()
            told_apart = {"hello", "query", "cancel"} if where == "server/core.py" else set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Dict):
                    built = {
                        value.value
                        for key, value in zip(node.keys, node.values)
                        if isinstance(key, ast.Constant)
                        and key.value == "type"
                        and isinstance(value, ast.Constant)
                    }
                    assert not built & verbs, f"{where} builds a {built} frame by hand"
                elif isinstance(node, ast.Compare):
                    compared = {
                        leaf.value
                        for leaf in ast.walk(node)
                        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                    }
                    assert not (compared & (verbs | {"hello", "cancel"})) - told_apart, (
                        f"{where} recognises {compared} by hand"
                    )
                elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                    name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                    assert name not in ("plan_to_json", "plan_from_json"), (
                        f"{where} touches the plan codec"
                    )


class TestOneEngine:
    """The in-memory engine is not a setting: nothing outside ``repro.engine`` names one."""

    def test_the_engine_selector_is_stated_once(self):
        """``repro.engine.execute(..., executor=)`` is the only door to the row reference.

        Outside ``repro/engine/`` no module holds ``"row"`` / ``"batch"`` as
        a string of its own (an engine or backend name), takes or passes a
        parameter called ``executor``, or reads an ``.executor`` attribute.
        The one allow-listed name is the read-only ``Session.executor``
        property: the frozen benchmark suite reads it to name the engine it
        probes, so it stays -- returning ``repro.engine.ENGINE_NAME``.
        """
        import ast
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        defined = []
        for path in package.rglob("*.py"):
            where = path.relative_to(package).as_posix()
            if where.startswith("engine/"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant):
                    assert node.value not in ("row", "batch"), (
                        f"{where}:{node.lineno} names an engine: {node.value!r}"
                    )
                elif isinstance(node, (ast.arg, ast.keyword)):
                    assert node.arg != "executor", f"{where}:{node.lineno} threads executor="
                elif isinstance(node, (ast.Attribute, ast.Name)):
                    name = node.attr if isinstance(node, ast.Attribute) else node.id
                    assert name != "executor", f"{where}:{node.lineno} uses {name!r}"
                elif isinstance(node, ast.ClassDef):
                    defined += [
                        f"{where}:{node.name}.{member.name}"
                        for member in node.body
                        if getattr(member, "name", None) == "executor"
                    ]
        assert defined == ["api/session.py:Session.executor"]

    def test_only_the_engine_makes_and_installs_table_versions(self):
        """A table's version changes by writing its rows, never by hand.

        Outside ``repro/engine/`` nothing constructs a ``TableVersion``,
        assigns (or deletes) a table's ``_version`` or calls ``_install``:
        a writer that built a version itself could publish rows no carried
        form describes, or alter one a reader holds.
        """
        import ast
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        for path in package.rglob("*.py"):
            where = path.relative_to(package).as_posix()
            if where.startswith("engine/"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    assert called not in ("TableVersion", "_install"), (
                        f"{where}:{node.lineno} makes or installs a table version"
                    )
                elif isinstance(node, ast.Attribute) and node.attr == "_version":
                    assert isinstance(node.ctx, ast.Load), (
                        f"{where}:{node.lineno} writes a table's version"
                    )

    def test_sessions_report_the_engine_and_cannot_set_it(self):
        from repro.engine import ENGINE_NAME

        with repro.connect(domain=(0, 8)) as session:
            assert session.executor == ENGINE_NAME == "batch"
            with pytest.raises(AttributeError):
                session.executor = "row"
            with repro.QueryServer(session) as server, repro.connect(server.url) as remote:
                assert remote.executor == ENGINE_NAME

    def test_connect_takes_no_executor(self, tmp_path):
        with pytest.raises(TypeError, match="executor"):
            repro.connect(domain=(0, 8), executor="row")
        with pytest.raises(TypeError, match="executor"):
            QueryPipeline(TimeDomain(0, 8), executor="batch")
        for dsn in (
            "memory://?domain=0:8&executor=batch",
            f"sqlite:///{tmp_path / 'x.db'}?domain=0:8&executor=row",
            "repro://127.0.0.1:1?executor=batch",  # raised while parsing: nothing is dialled
        ):
            scheme = dsn.split(":")[0]
            expected = rf"unsupported {scheme}:// DSN parameter\(s\): \['executor'\]; {scheme}:// takes"
            with pytest.raises(repro.FluentError, match=expected):
                repro.connect(dsn)

    def test_batch_is_not_a_backend_name(self):
        # A superset check: other test modules register backends of their own.
        names = repro.available_backends()
        assert {"memory", "sqlite"} <= set(names) and "batch" not in names
        with pytest.raises(
            repro.BackendUnavailableError,
            match=r"unknown backend 'batch'; available: \[.*'memory', 'sqlite'",
        ):
            repro.connect(domain=(0, 8), backend="batch")

    def test_an_old_clients_executor_field_is_ignored(self):
        """A query frame still carrying ``"executor": "row"`` is answered normally."""
        from repro.algebra.operators import RelationAccess
        from repro.client import RemoteConnection
        from repro.server.verbs import QUERY

        with repro.connect(domain=(0, 8)) as session:
            session.load("r", ["a"], [(1, 0, 4), (2, 2, 6)])
            with repro.QueryServer(session) as server:
                connection = RemoteConnection(server.host, server.port)
                try:
                    frame = QUERY.request({"plan": RelationAccess("r")})
                    _, schema, rows, statistics = connection.run_query(
                        {**frame, "executor": "row"}, 10.0
                    )
                finally:
                    connection.close()
        assert schema == ("a", "t_begin", "t_end")
        assert sorted(rows) == [(1, 0, 4), (2, 2, 6)]
        assert statistics.get("executor.batch") == 1 and "executor.row" not in statistics


class TestNoTuningOption:
    """The engine takes no tuning option; ``kernels.worthwhile`` alone picks kernel or twin."""

    def test_execute_takes_catalog_limits_sinks_and_the_reference_door(self):
        import dataclasses
        import inspect

        from repro.engine import ExecutionContext, execute

        assert list(inspect.signature(execute).parameters) == [
            "plan", "database", "statistics", "limits", "executor", "observations",
        ]
        assert [field.name for field in dataclasses.fields(ExecutionContext)] == [
            "database", "statistics", "observations", "deadline", "row_budget", "snapshot",
        ]

    def test_the_worker_pool_keyword_is_gone_from_every_surface(self):
        with pytest.raises(TypeError, match="parallel_workers"):
            repro.connect(domain=(0, 8), parallel_workers=2)
        with pytest.raises(TypeError, match="parallel_workers"):
            QueryPipeline(TimeDomain(0, 8), parallel_workers=2)
        with pytest.raises(
            repro.FluentError,
            match=r"unsupported memory:// DSN parameter\(s\): \['parallel_workers'\]",
        ):
            repro.connect("memory://?domain=0:8&parallel_workers=2")

    def test_no_module_holds_a_pool_or_reads_numpy_to_pick_a_route(self):
        """Nothing imports ``multiprocessing`` or names anything ``*parallel*``
        (identifiers and strings; prose in docstrings may use the word), and
        outside ``engine/kernels.py`` no condition mentions ``np``: whether a
        kernel runs is ``kernels.worthwhile()``'s decision alone.
        """
        import ast
        import pathlib

        def names(node):
            for field in ("id", "attr", "arg", "name", "module", "asname"):
                value = getattr(node, field, None)
                if isinstance(value, str):
                    yield value

        package = pathlib.Path(repro.__file__).parent
        for path in package.rglob("*.py"):
            where = path.relative_to(package).as_posix()
            tree = ast.parse(path.read_text())
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None
            }
            for node in ast.walk(tree):
                at = f"{where}:{getattr(node, 'lineno', '?')}"
                for name in names(node):
                    assert "parallel" not in name and "multiprocessing" not in name, (
                        f"{at} names {name!r}"
                    )
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    assert id(node) in docstrings or "parallel" not in node.value, (
                        f"{at} holds {node.value!r}"
                    )
                if where == "engine/kernels.py":
                    continue
                condition = node if isinstance(node, ast.Compare) else getattr(node, "test", None)
                if isinstance(condition, ast.AST):
                    assert not any(
                        name == "np" for part in ast.walk(condition) for name in names(part)
                    ), f"{at} asks numpy, not kernels.worthwhile()"

    def test_the_planner_has_one_mode_and_a_join_carries_no_algorithm(self):
        """``planner`` is a boolean; which join algorithm runs is read off the predicate."""
        import ast
        import dataclasses
        import inspect
        import pathlib

        import repro.planner
        from repro.algebra.operators import Join

        assert [field.name for field in dataclasses.fields(Join)] == [
            "left", "right", "predicate",
        ]
        assert repro.planner.__all__ == [
            "optimize", "push_selections", "split_conjuncts",
            "available_attributes", "infer_schema",
        ]
        assert len(inspect.signature(repro.connect).parameters) == 6
        package = pathlib.Path(repro.__file__).parent
        for path in package.rglob("*.py"):
            where = path.relative_to(package).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                at = f"{where}:{getattr(node, 'lineno', '?')}"
                assert not (isinstance(node, ast.keyword) and node.arg == "strategy"), (
                    f"{at} passes strategy="
                )
                assert not (isinstance(node, ast.Constant) and node.value == "cost"), (
                    f"{at} spells a planner mode"
                )

    def test_a_session_has_one_rewriter(self):
        """REWR is not a session setting: the ablation's variants live in ``repro.baselines``."""
        import inspect

        from repro.api import TemporalRelation
        from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
        from repro.rewriter import SnapshotRewriter
        from repro.server.verbs import QUERY, VERBS

        assert list(inspect.signature(repro.connect).parameters) == [
            "target", "backend", "planner", "database", "policy", "domain",
        ]
        for removed in ("coalesce", "use_temporal_aggregate", "rewriter_cls", "plan_cache"):
            with pytest.raises(TypeError, match=removed):
                repro.connect(domain=(0, 8), **{removed: None})
        assert not hasattr(TemporalRelation, "coalesce")
        for verb in (*VERBS.values(), QUERY):
            assert "final_coalesce" not in [arg.name for arg in verb.args], verb.name
        assert list(inspect.signature(SnapshotRewriter.__init__).parameters) == [
            "self", "database", "domain",
        ]
        for baseline in (PerOperatorCoalesceRewriter, SplitThenAggregateRewriter):
            assert issubclass(baseline, SnapshotRewriter)
            assert baseline.__init__ is SnapshotRewriter.__init__

    def test_no_statistics_to_collect(self):
        """The SQL join order keeps no state: nothing analyzes, stores or estimates."""
        import importlib.util

        import repro.planner
        from repro.api import Session
        from repro.server.verbs import VERBS

        for module in ("repro.stats", "repro.planner.estimate"):
            assert importlib.util.find_spec(module) is None, module
        assert not hasattr(repro.planner, "estimate_plan")
        for name in ("analyze", "set_statistics", "statistics_for", "table_statistics"):
            assert not hasattr(Database, name), name
        assert not hasattr(Session, "analyze")
        assert "analyze" not in VERBS



class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro.algebra import (
            AggregateSpec,
            Aggregation,
            Comparison,
            RelationAccess,
            Selection,
            attr,
            lit,
        )

        pipeline = QueryPipeline(TimeDomain(0, 24))
        pipeline.load_table(
            "works",
            ["name", "skill"],
            [
                ("Ann", "SP", 3, 10),
                ("Joe", "NS", 8, 16),
                ("Sam", "SP", 8, 16),
                ("Ann", "SP", 18, 20),
            ],
        )
        onduty = Aggregation(
            Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
            (),
            (AggregateSpec("count", None, "cnt"),),
        )
        table = pipeline.execute(onduty)
        assert (0, 0, 3) in table.rows
        assert (2, 8, 10) in table.rows
        assert "cnt" in table.pretty()


class TestCrossLayerIntegration:
    def test_same_query_through_all_three_levels(self):
        """Abstract, logical and implementation level agree on one query."""
        from repro.abstract_model import evaluate, evaluate_snapshot_query
        from repro.algebra import Projection, RelationAccess
        from repro.semirings import NATURAL

        domain = TimeDomain(0, 12)
        facts = [(("a", 1), 0, 6, 1), (("a", 1), 4, 9, 1), (("b", 2), 2, 5, 1)]

        # logical model
        logical_db = PeriodDatabase(NATURAL, domain)
        logical_db.create_relation("r", ("cat", "val"), facts)
        query = Projection.of_attributes(RelationAccess("r"), "cat")
        logical = evaluate(query, logical_db)

        # abstract model (oracle)
        oracle = evaluate_snapshot_query(query, logical_db.to_snapshot_database())
        assert PeriodKRelation.encode(logical_db.period_semiring, oracle) == logical

        # implementation level
        pipeline = QueryPipeline(domain)
        pipeline.load_period_relation("r", logical_db.relation("r"))
        assert pipeline.execute_decoded(query) == logical

    def test_engine_objects_usable_directly(self):
        database = Database()
        table = Table("t", ("x", "t_begin", "t_end"), [(1, 0, 5)])
        database.register(table, period=("t_begin", "t_end"))
        assert database.table("t").rows == [(1, 0, 5)]

    def test_temporal_element_round_trip_through_krelation(self):
        domain = TimeDomain(0, 10)
        semiring = PeriodSemiring(repro.NATURAL, domain)
        element = semiring.element({})
        assert isinstance(element, TemporalElement)
        relation = KRelation(repro.NATURAL, ("x",), {(1,): 2})
        assert relation.annotation((1,)) == 2
