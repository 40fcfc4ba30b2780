"""The five workloads, and what they share.

A workload owns its inputs (all derived from the seed), a session opened
with ``connect()``'s defaults, and a stream of operations.  ``setup`` is
everything a user pays before the first timed operation: data generation,
catalog / SQLite / wire load, server start, view materialisation, and one
warm-up pass that fills the caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends import SQLiteBackend
from repro.engine import Database
from repro.engine import execute as engine_execute

from harness import Checks, Digest, DirectExecutor, Op, Row, Samples, closed_loop, digest
from spans import SpanRecorder

ReadChain = Tuple[str, Callable[[], Any]]


def copy_database(database: Database) -> Database:
    """A catalog with the same tables and rows, no views, no observers."""
    clone = Database()
    for name in database.names():
        table = database.table(name)
        clone.create_table(name, table.schema, list(table.rows), database.period_of(name))
    return clone


@dataclass
class Material:
    """What the per-layer probes need to run each layer on a workload's inputs."""

    session: Any  # local in-memory session, connect() defaults, over the catalog
    chains: Callable[[Any], List[ReadChain]]  # session -> the distinct read chains
    predicates: List[str]  # the string predicates those chains parse
    write_table: str
    write_batch: List[Row]
    view: Callable[[Any], Any]  # session -> relation a view is materialized from
    small: Callable[[], Tuple[Database, Any]]  # catalog + domain for the native baseline


class Workload:
    """Base class: a single local client in a closed loop."""

    name = ""
    #: Operation class reported as ``class_a_ms`` / ``class_b_ms`` / ``class_c_ms``.
    classes: Dict[str, str] = {}

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy
        self.session: Any = None
        #: In-memory session with ``connect()`` defaults over the same catalog
        #: (``self.session`` itself when that is what the workload runs on).
        self.local: Any = None
        #: Rows of the warm-up pass per read chain, digested by ``verify``.
        self.warm_rows: Dict[str, Sequence[Any]] = {}
        self.reference: Dict[str, Digest] = {}
        #: Data-generation share of ``setup``, for ``datasets.generate_s``.
        self.generate_seconds = 0.0

    def generate(self, make: Callable[[], Database]) -> None:
        started = time.perf_counter()
        self.database = make()
        self.generate_seconds = time.perf_counter() - started

    # -- lifecycle -------------------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened.  ``self.local`` stays usable for the
        probes: an in-memory session holds nothing that needs releasing."""
        if self.session is not None and self.session is not self.local:
            self.session.close()
        self.session = None

    def scales(self) -> Dict[str, Any]:
        """Input sizes, for the result file's metadata."""
        raise NotImplementedError

    # -- traffic ---------------------------------------------------------------------------

    def chains(self, session: Any) -> List[ReadChain]:
        """The distinct read chains of the traffic, by name, built on ``session``."""
        raise NotImplementedError

    def reads(self) -> List[ReadChain]:
        return self.chains(self.session)

    def schedule(self) -> Iterator[Optional[Op]]:
        raise NotImplementedError

    def traced_executor(self, recorder: SpanRecorder) -> Callable[[Op], Any]:
        raise NotImplementedError

    def run(self, seconds: float, traced: bool) -> Tuple[Samples, List[SpanRecorder]]:
        if traced:
            recorder = SpanRecorder()
            samples = closed_loop(self.schedule(), self.traced_executor(recorder), seconds)
            return samples, [recorder]
        return closed_loop(self.schedule(), DirectExecutor(self.session), seconds), []

    def warm_up(self) -> None:
        """One untimed pass over the read chains: plan cache filled, sizes learnt."""
        for name, build in self.reads():
            self.warm_rows[name] = build().rows()

    def expected_rows(self, name: str) -> int:
        return self.reference[name][0]

    # -- correctness -----------------------------------------------------------------------

    def conformance(self, checks: Checks) -> None:
        """The snapshot-conformance oracle on a small copy of the inputs."""
        raise NotImplementedError

    def verify(self, checks: Checks) -> None:
        """Digest gate, in a quiescent phase.

        First call: the warm-up results become the reference and must agree
        with the row and batch engines, and with SQLite where one SQLite pass
        is cheap (the traced run's SQLite probe covers the rest).
        Later calls: the same chains must still produce the reference, i.e.
        the timed loop left the catalog in its start state.
        """
        if not self.reference:
            self.reference = {name: digest(rows) for name, rows in self.warm_rows.items()}
            self.warm_rows.clear()
            engines = ["row", "batch"]
            if self.sqlite_check_is_cheap():
                engines.append("sqlite")
            cross_check(checks, self.local, self.chains(self.local), self.reference, engines)
            return
        for name, build in self.reads():
            checks.same_digest(
                f"{self.name}/{name} after the timed loop",
                lambda build=build: build().rows(),
                self.reference[name],
            )

    def sqlite_check_is_cheap(self) -> bool:
        return True

    # -- probes ----------------------------------------------------------------------------

    def material(self) -> Material:
        raise NotImplementedError


def cross_check(
    checks: Checks,
    session: Any,
    reads: List[ReadChain],
    reference: Dict[str, Digest],
    engines: Sequence[str],
) -> None:
    """Every read chain's digest on each engine must equal the reference."""
    database = session.database
    plans = {name: session.pipeline.rewrite(build().plan) for name, build in reads}
    for engine in engines:
        backend = (
            SQLiteBackend.for_database(database, optimize=False) if engine == "sqlite" else None
        )
        try:
            for name, plan in plans.items():
                if backend is not None:
                    run = lambda plan=plan: backend.execute(plan, database).rows  # noqa: E731
                else:
                    run = lambda plan=plan: engine_execute(  # noqa: E731
                        plan, database, executor=engine
                    ).rows
                checks.same_digest(f"{name} on {engine}", run, reference[name])
        finally:
            if backend is not None:
                backend.close()


def check_conformance(checks: Checks, reads: List[ReadChain], label: str) -> None:
    """``relation.check()`` for every chain (built on a small session)."""
    for name, build in reads:
        checks.guarded(f"{label}/{name} conformance", lambda build=build: build().check().ok)


def registry() -> Dict[str, Callable[[int, bool], Workload]]:
    from workloads.adhoc_small import AdhocSmall
    from workloads.employee import EmployeeMemory, EmployeeSqlite
    from workloads.server_mixed import ServerMixed
    from workloads.view_churn import ViewChurn

    return {
        cls.name: cls
        for cls in (EmployeeMemory, EmployeeSqlite, AdhocSmall, ServerMixed, ViewChurn)
    }
