"""``view_churn``: writes beside reads on one table, in process.

A grouped temporal aggregate over ``R`` (16k rows, many small groups) is
kept as a materialized view.  Each iteration deletes a 1 % batch, inserts it
back, reads the view, and every fourth iteration runs an ad hoc aggregate
over ``R`` through the normal pipeline.  The delta rules and catalog DML
dominate the writes, the engine dominates the ad hoc read: a faster apply
that slows reads, or DML bookkeeping that slows writes, shows here and
nowhere else.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import connect
from repro.datasets.generator import GeneratorConfig, generate_catalog

from harness import BOUNDARY, Checks, Op, Row, TracedLocalExecutor, digest
from spans import SpanRecorder
from workloads import Material, ReadChain, Workload, check_conformance, copy_database

VIEW = "key_totals"
CHURN = 0.01
BATCHES = 8
ADHOC_EVERY = 4


def generator_config(rows: int, seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        rows=rows,
        domain_size=256,
        seed=seed,
        interval_profile="mixed",
        duplicate_rate=0.1,
        groups=16,
        values=32,
        keys=max(8, rows // 8),
    )


def view_chain(session: Any) -> Any:
    return session.table("R").group_by("r_key").agg(cnt="count(*)", total="sum(r_val)")


def adhoc_chain(session: Any) -> Any:
    return session.table("R").group_by("r_cat").agg(cnt="count(*)", total="sum(r_val)")


class ViewChurn(Workload):
    name = "view_churn"
    classes = {"a": "write", "b": "view_read", "c": "adhoc_read"}

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.config = generator_config(128 if toy else 16_000, seed)
        self.batches: List[List[Row]] = []

    def scales(self) -> Dict[str, Any]:
        return {"rows": self.config.rows, "keys": self.config.keys, "batch_rows": len(self.batches[0])}

    def setup(self) -> None:
        self.generate(lambda: generate_catalog(self.config))
        self.session = self.local = connect(
            "memory://", domain=self.config.domain, database=self.database
        )
        self.view = self.session.materialize(view_chain(self.session), name=VIEW)
        rows = self.database.table("R").rows
        rng = random.Random(f"{self.name}/batches/{self.seed}")
        size = max(1, int(len(rows) * CHURN))
        self.batches = [
            [rows[position] for position in rng.sample(range(len(rows)), size)]
            for _ in range(BATCHES)
        ]
        self.warm_up()
        self.warm_rows[VIEW] = self.view.rows()
        self.session.delete("R", self.batches[0])
        self.session.insert("R", self.batches[0])

    def chains(self, session: Any) -> List[ReadChain]:
        return [("adhoc", lambda: adhoc_chain(session))]

    def schedule(self) -> Iterator[Optional[Op]]:
        view_size = len(self.view)
        adhoc = Op(
            "read", "adhoc_read", "adhoc", build=self.reads()[0][1],
            expect_rows=self.expected_rows("adhoc"),
        )
        view_read = Op("view_rows", "view_read", "view_rows", view=VIEW, expect_rows=view_size)
        iteration = 0
        while True:
            batch = self.batches[iteration % BATCHES]
            yield Op("delete", "write", "delete", table="R", rows=batch)
            yield Op("insert", "write", "insert", table="R", rows=batch)
            yield view_read
            iteration += 1
            if iteration % ADHOC_EVERY == 0:
                yield adhoc
                yield BOUNDARY

    def traced_executor(self, recorder: SpanRecorder) -> Callable[[Op], Any]:
        shadow = copy_database(self.database)
        shadow.drop_table(VIEW)
        return TracedLocalExecutor(self.session, recorder, shadow=shadow)

    def conformance(self, checks: Checks) -> None:
        database, domain = self._small()
        with connect("memory://", domain=domain, database=database) as small:
            reads = [("view", lambda: view_chain(small)), ("adhoc", lambda: adhoc_chain(small))]
            check_conformance(checks, reads, self.name)

    def verify(self, checks: Checks) -> None:
        first = not self.reference
        view_rows = self.warm_rows.pop(VIEW, None)
        super().verify(checks)
        if first:
            # The view's contents are checked like a read chain: against the
            # view's query executed from scratch.
            self.view_reference = digest(view_rows)
            checks.same_digest(
                f"{self.name}/view contents vs. its query",
                lambda: view_chain(self.session).rows(),
                self.view_reference,
            )
            return
        checks.same_digest(
            f"{self.name}/view contents after the timed loop", self.view.rows, self.view_reference
        )
        checks.guarded(f"{self.name}/view.verify()", self.view.verify)

    def material(self) -> Material:
        return Material(
            session=self.local,
            chains=lambda session: [("view_query", lambda: view_chain(session))]
            + self.chains(session),
            predicates=["r_val"],  # the aggregate arguments are the only parsed text
            write_table="R",
            write_batch=self.batches[0],
            view=view_chain,
            small=self._small,
        )

    def _small(self):
        config = generator_config(max(64, self.config.rows // 50), self.seed)
        return generate_catalog(config), config.domain
