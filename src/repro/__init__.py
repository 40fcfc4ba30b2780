"""repro: snapshot semantics for temporal multiset relations.

A from-scratch Python implementation of the framework of Dignös, Glavic,
Niu, Böhlen and Gamper, *Snapshot Semantics for Temporal Multiset
Relations*, PVLDB 12(6), 2019:

* **abstract model** -- snapshot K-relations evaluated point-wise
  (:mod:`repro.abstract_model`), the correctness oracle;
* **logical model** -- period K-relations: the K-relations of the abstract
  model over the period semiring ``K^T``, whose annotations are coalesced
  temporal K-elements (:mod:`repro.temporal`, :mod:`repro.logical_model`),
  evaluated by the same interpreter (:func:`repro.abstract_model.evaluate`);
* **implementation** -- SQL period relations on a multiset engine
  (:mod:`repro.engine`) with the REWR query rewriting and the query
  pipeline that plays the paper's middleware (:mod:`repro.rewriter`), a
  schema-aware planner
  (:mod:`repro.planner`: push-down through the temporal operators, join
  predicate normalisation feeding the engine's sort-merge interval join),
  plus pluggable execution backends (:mod:`repro.backends`): the in-memory
  engine or real SQL via sqlite3;
* **baselines, datasets, experiments** -- everything needed to re-run the
  paper's evaluation (:mod:`repro.baselines`, :mod:`repro.datasets`,
  :mod:`repro.experiments`), plus a deterministic synthetic temporal
  workload generator (:mod:`repro.datasets.generator`);
* **conformance** -- systematic enforcement of snapshot-reducibility
  (:mod:`repro.conformance`): every execution configuration checked against
  the abstract-model oracle at every input changepoint, violations shrunk
  to minimized counterexamples.

Quickstart -- the fluent session API (:mod:`repro.api`) is the canonical
public surface: ``connect()`` returns a session owning the catalog, the
rewriter, the planner, the backend and a rewritten-plan cache; lazy
relations compile fluent chains to the logical algebra and execute on the
first terminal call::

    from repro import connect

    session = connect("memory://?domain=0:24")     # hours of 2018-01-01
    works = session.load("works", ["name", "skill"], [
        ("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16),
        ("Sam", "SP", 8, 16), ("Ann", "SP", 18, 20),
    ])
    onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
    print(onduty.pretty())        # snapshot counts incl. the gap rows
    print(onduty.snapshot(8))     # the 08:00 timeslice, by reducibility
    print(onduty.explain())       # logical plan -> REWR -> planner -> execution
    onduty.check().raise_if_failed()   # conformance vs. the abstract oracle

Re-executing ``onduty`` (or the same chain built again) hits the session's
plan cache and skips REWR + planner entirely.  Hand-built operator trees
remain first-class: ``session.query(operator_tree)`` wraps one and runs it
through the same :class:`~repro.rewriter.pipeline.QueryPipeline`
(``session.pipeline``) -- the one execution path of the library.
"""

from .api import (
    FluentError,
    GroupedRelation,
    Session,
    TemporalRelation,
    connect,
    parse_expression,
)

from .abstract_model import (
    KRelation,
    SnapshotDatabase,
    SnapshotKRelation,
    evaluate_snapshot_query,
)
from .backends import InMemoryBackend, SQLiteBackend
from .conformance import (
    ConformanceError,
    ConformanceReport,
    Counterexample,
    assert_conformant,
    check_conformance,
)
from .engine import Database, Table
from .errors import (
    BackendError,
    BackendUnavailableError,
    IncrementalError,
    ParseError,
    PlanError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ResourceLimitError,
)
from .execution import ExecutionBackend, ExecutionPolicy, available_backends
from .faultinject import FaultInjectingBackend, FaultSchedule
from .incremental import Delta, MaterializedView
from .logical_model import PeriodDatabase, PeriodKRelation
from .semirings import BOOLEAN, NATURAL, Semiring
from .server import QueryServer
from .temporal import Interval, PeriodSemiring, TemporalElement, TimeDomain

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "connect",
    "Session",
    "QueryServer",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "parse_expression",
    "TimeDomain",
    "Interval",
    "TemporalElement",
    "PeriodSemiring",
    "Semiring",
    "BOOLEAN",
    "NATURAL",
    "KRelation",
    "SnapshotKRelation",
    "SnapshotDatabase",
    "evaluate_snapshot_query",
    "PeriodKRelation",
    "PeriodDatabase",
    "Database",
    "Table",
    "ExecutionBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "available_backends",
    "ReproError",
    "ParseError",
    "PlanError",
    "BackendError",
    "BackendUnavailableError",
    "ProtocolError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "IncrementalError",
    "Delta",
    "MaterializedView",
    "ExecutionPolicy",
    "FaultSchedule",
    "FaultInjectingBackend",
    "ConformanceError",
    "ConformanceReport",
    "Counterexample",
    "assert_conformant",
    "check_conformance",
]
