"""The structured error taxonomy: hierarchy, classification, back-compat."""

import pytest

from repro.api.parser import ExpressionSyntaxError, parse_expression
from repro.api.relation import FluentError
from repro.errors import (
    BackendError,
    BackendUnavailableError,
    ParseError,
    PlanError,
    QueryTimeoutError,
    ReproError,
    ResourceLimitError,
    is_transient,
)


class TestHierarchy:
    def test_every_class_derives_from_repro_error(self):
        for cls in (
            ParseError,
            PlanError,
            BackendError,
            BackendUnavailableError,
            QueryTimeoutError,
            ResourceLimitError,
        ):
            assert issubclass(cls, ReproError), cls

    def test_parse_error_is_value_error(self):
        """Callers that predate the taxonomy wrote ``except ValueError``."""
        assert issubclass(ParseError, ValueError)

    def test_timeout_error_is_timeout_error(self):
        assert issubclass(QueryTimeoutError, TimeoutError)

    def test_unavailable_is_backend_error(self):
        assert issubclass(BackendUnavailableError, BackendError)

    def test_legacy_api_errors_reparented(self):
        assert issubclass(ExpressionSyntaxError, ParseError)
        assert issubclass(FluentError, ParseError)
        # ... and therefore still ValueError, as before the taxonomy.
        assert issubclass(ExpressionSyntaxError, ValueError)
        assert issubclass(FluentError, ValueError)

    def test_plan_layer_errors_reparented(self):
        from repro.algebra.operators import AlgebraError
        from repro.engine.executor import ExecutorError
        from repro.engine.table import TableError
        from repro.rewriter.rewrite import RewriteError

        for cls in (AlgebraError, ExecutorError, TableError, RewriteError):
            assert issubclass(cls, PlanError), cls


class TestTransientClassification:
    def test_permanent_by_default(self):
        for error in (
            ReproError("x"),
            ParseError("x"),
            PlanError("x"),
            BackendError("x"),
            QueryTimeoutError("x"),
            ResourceLimitError("x"),
        ):
            assert not is_transient(error), error

    def test_backend_error_per_instance_flag(self):
        assert is_transient(BackendError("database is locked", transient=True))
        assert not is_transient(BackendError("no such table", transient=False))

    def test_unavailable_is_transient_by_class(self):
        assert is_transient(BackendUnavailableError("host down"))

    def test_non_repro_errors_are_never_transient(self):
        assert not is_transient(RuntimeError("boom"))
        assert not is_transient(KeyboardInterrupt())


class TestPublicBoundaries:
    """Public entry points raise only ReproError subclasses."""

    def test_parser_raises_taxonomy_error(self):
        with pytest.raises(ReproError):
            parse_expression("1 +")

    def test_unknown_backend_raises_taxonomy_error(self):
        from repro.execution import resolve_backend

        with pytest.raises(BackendUnavailableError):
            resolve_backend("no-such-backend")
        with pytest.raises(BackendError):
            resolve_backend(42)

    def test_fluent_chain_raises_taxonomy_error(self):
        from repro import connect

        session = connect(domain=(0, 10))
        with pytest.raises(ReproError):
            session.table("never_loaded")
        works = session.load("works", ["name"], [("Ann", 0, 5)])
        with pytest.raises(ReproError):
            works.select()
        with pytest.raises(ReproError):
            works.where("name =")

    def test_pipeline_bad_config_raises_taxonomy_error(self):
        from repro import TimeDomain
        from repro.rewriter import QueryPipeline

        with pytest.raises(ReproError):
            QueryPipeline(TimeDomain(0, 5), backend="sometimes")

    def test_executing_bad_plan_raises_taxonomy_error(self):
        from repro import connect
        from repro.algebra import RelationAccess

        session = connect(domain=(0, 10))
        with pytest.raises(ReproError):
            session.query(RelationAccess("missing")).rows()
