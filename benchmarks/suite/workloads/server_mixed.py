"""``server_mixed``: two remote clients, reads beside writes, one shared view.

The server is its own process; ``R`` and ``S`` (4000 rows each) are loaded
over the wire and one view is materialized on the server.  Two
``repro://`` clients run seeded schedules in a closed loop: 45 %
``agg_small`` (grouped aggregate, small result), 35 % ``scan_large``
(selection, ~3.3k result rows), 10 % ``view_rows`` and 10 % writes that
alternate ``delete`` / ``insert`` of one 40-row batch.  Only client 0
writes (a fifth of its ops), so writers are serialised and the catalog
returns to its start state; client 1 issues ``agg_small`` in those slots,
which keeps the overall mix.  ``view_rows`` and the writes are reported
together as class ``small``: a small request and reply whose latency is
mostly the wait behind the other client's query.  Frame and plan codecs,
sockets, asyncio, the thread hand-off and the server's interpreter lock
under two clients are most of ``scan_large``: the only workload where wire
and session changes can show, and where a lock around the shared catalog
would cost.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import connect
from repro.datasets.generator import GeneratorConfig, generate_catalog

from harness import BOUNDARY, Checks, DirectExecutor, Op, Row, Samples, closed_loop, digest
from spans import SpanRecorder
from wire import ServerProcess, TracedRemoteExecutor
from workloads import Material, ReadChain, Workload, check_conformance
from workloads.view_churn import view_chain

VIEW = "key_totals"
CLIENTS = 2
WRITE_BATCH_ROWS = 40
#: Ops per block of each client's schedule (see ``harness.BOUNDARY``).
BLOCK_OPS = 40


def generator_config(rows: int, seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        rows=rows,
        domain_size=64,
        seed=seed,
        interval_profile="mixed",
        duplicate_rate=0.1,
        groups=8,
        values=16,
        keys=max(8, rows // 8),
    )


def agg_small(session: Any) -> Any:
    return (
        session.table("R")
        .where("r_val > 3")
        .group_by("r_cat")
        .agg(cnt="count(*)", total="sum(r_val)")
    )


def scan_large(session: Any) -> Any:
    return session.table("R").where("r_val >= 3")


class ServerMixed(Workload):
    name = "server_mixed"
    classes = {"a": "agg_small", "b": "scan_large", "c": "small"}

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.config = generator_config(96 if toy else 4000, seed)
        self.server: Optional[ServerProcess] = None
        self.sessions: List[Any] = []
        #: Whether client 0's last write took the batch out of ``R``.
        self.batch_deleted = False

    def scales(self) -> Dict[str, Any]:
        return {
            "rows_per_table": self.config.rows,
            "clients": CLIENTS,
            "write_batch_rows": len(self.batch),
        }

    def setup(self) -> None:
        # The local copy is the reference for digests and the probes' input;
        # the server gets the same rows over the wire.
        self.generate(lambda: generate_catalog(self.config))
        self.local = connect("memory://", domain=self.config.domain, database=self.database)
        self.server = ServerProcess(self.config.domain)
        self.sessions = [self.server.connect() for _ in range(CLIENTS)]
        self.session = self.sessions[0]
        for name in ("R", "S"):
            table = self.database.table(name)
            self.session.load(name, table.schema[:-2], table.rows)
        self.session.materialize(view_chain(self.session), name=VIEW)
        rows = self.database.table("R").rows
        positions = random.Random(f"{self.name}/batch/{self.seed}").sample(
            range(len(rows)), min(WRITE_BATCH_ROWS, len(rows) // 2)
        )
        self.batch: List[Row] = [rows[position] for position in positions]
        for session in self.sessions:
            for name, build in self.chains(session):
                self.warm_rows[name] = build().rows()
        self.warm_rows[VIEW] = self.session.view(VIEW).rows()
        self.session.delete("R", self.batch)
        self.session.insert("R", self.batch)

    def teardown(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []
        self.session = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def chains(self, session: Any) -> List[ReadChain]:
        return [
            ("agg_small", lambda: agg_small(session)),
            ("scan_large", lambda: scan_large(session)),
        ]

    def client_schedule(self, client: int) -> Iterator[Optional[Op]]:
        rng = random.Random(f"{self.name}/schedule/{self.seed}/{client}")
        session = self.sessions[client]
        # Result sizes move while the other client's delete is in flight, so
        # the timed loop counts errors only; digests are compared before and
        # after it.
        reads = {name: Op("read", name, name, build=build) for name, build in self.chains(session)}
        view_read = Op("view_rows", "small", "view_rows", view=VIEW)
        # One block: the mix below in seeded order.  Client 0 writes in a
        # fifth of its slots and client 1 never, which makes 10 % of all ops.
        kinds = ["agg_small"] * (14 if client == 0 else 22) + ["scan_large"] * 14 + ["view_rows"] * 4
        kinds += ["write"] * (BLOCK_OPS - len(kinds))
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "view_rows":
                    yield view_read
                elif kind == "write":
                    verb = "insert" if self.batch_deleted else "delete"
                    yield Op(verb, "small", verb, table="R", rows=self.batch)
                    self.batch_deleted = not self.batch_deleted
                else:
                    yield reads[kind]
            yield BOUNDARY

    def traced_executor(self, recorder: SpanRecorder) -> TracedRemoteExecutor:
        return TracedRemoteExecutor("127.0.0.1", self.server.port, recorder)

    def run(self, seconds: float, traced: bool) -> Tuple[Samples, List[SpanRecorder]]:
        if not traced:
            return self.run_clients([DirectExecutor(s) for s in self.sessions], seconds), []
        recorders = [SpanRecorder() for _ in range(CLIENTS)]
        executors = [self.traced_executor(recorder) for recorder in recorders]
        try:
            return self.run_clients(executors, seconds), recorders
        finally:
            for executor in executors:
                executor.close()

    def run_clients(self, executors: List[Callable[[Op], Any]], seconds: float) -> Samples:
        """All clients start together; throughput is counted over the common wall clock."""
        results: List[Optional[Samples]] = [None] * len(executors)
        barrier = threading.Barrier(len(executors))

        def client_loop(client: int) -> None:
            barrier.wait(timeout=60)
            results[client] = closed_loop(
                self.client_schedule(client), executors[client], seconds
            )

        threads = [
            threading.Thread(target=client_loop, args=(client,), name=f"client-{client}")
            for client in range(len(executors))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        if self.batch_deleted:
            self.sessions[0].insert("R", self.batch)
            self.batch_deleted = False
        merged = Samples()
        for client, samples in enumerate(results):
            if samples is None:
                merged.fail(f"client {client} did not finish")
                continue
            merged.merge(samples)
        # Once the first client has stopped, the others run uncontended: their
        # remaining blocks are faster than anything under the stated load.
        all_running_until = min(ends[-1] for ends in merged.block_ends if ends)
        merged.block_rates = [
            [rate for rate, end in zip(rates, ends) if end <= all_running_until]
            for rates, ends in zip(merged.block_rates, merged.block_ends)
        ]
        return merged

    def conformance(self, checks: Checks) -> None:
        database, domain = self._small()
        with connect("memory://", domain=domain, database=database) as small:
            check_conformance(checks, self.chains(small), self.name)

    def verify(self, checks: Checks) -> None:
        first = not self.reference
        view_rows = self.warm_rows.pop(VIEW, None)
        # Base class: remote warm-up results vs. the row/batch/SQLite engines
        # on the local copy, then remote again after the timed loop.
        super().verify(checks)
        view = self.session.view(VIEW)
        if first:
            checks.same_digest(
                f"{self.name}/remote view vs. its query in process",
                lambda: view_chain(self.local).rows(),
                digest(view_rows),
            )
            return
        checks.same_digest(
            f"{self.name}/remote view after the timed loop",
            view.rows,
            digest(view_chain(self.local).rows()),
        )
        checks.guarded(f"{self.name}/remote view.verify()", view.verify)

    def material(self) -> Material:
        return Material(
            session=self.local,
            chains=self.chains,
            predicates=["r_val > 3", "r_val >= 3"],
            write_table="R",
            write_batch=self.batch,
            view=view_chain,
            small=self._small,
        )

    def _small(self):
        config = generator_config(max(64, self.config.rows // 50), self.seed)
        return generate_catalog(config), config.domain
