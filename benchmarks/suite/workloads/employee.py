"""``employee_memory`` and ``employee_sqlite``: the paper's Table 3, two backends.

The ten Employee snapshot queries plus ``coal-1`` (Figure 5's selection over
``salaries``, whose cost is the final coalesce), round-robin.  The memory
variant is where in-memory physical execution does nearly all the work; the
SQLite variant runs the same queries at a smaller scale through
``sqlcompile`` and SQLite's window/CTE execution, with the catalog loaded
once (the paper's deployment mode).  Same queries, different layer: a gain
for one backend that costs the other shows.
"""

from __future__ import annotations

import random
import sqlite3
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import connect
from repro.backends import SQLiteBackend
from repro.datasets.employees import EmployeesConfig, generate_employees
from repro.datasets.sqlite_loader import connect_memory, load_database
from repro.datasets.workloads import EMPLOYEE_WORKLOAD

from harness import BOUNDARY, Checks, Op, TracedLocalExecutor
from spans import SpanRecorder
from workloads import Material, ReadChain, Workload, check_conformance

CLASS_OF = {
    "join-1": "join", "join-2": "join", "join-3": "join", "join-4": "join",
    "agg-1": "agg", "agg-2": "agg", "agg-3": "agg", "agg-join": "agg",
    "diff-1": "diff", "diff-2": "diff",
    "coal-1": "coal",
}
COAL_PREDICATE = "s_salary > 0"
#: Scale of the conformance-oracle copy, and of the native-baseline copy
#: (the native evaluator is quadratic: ~3 s at 0.25, minutes at 2.0).
CHECK_SCALE = 0.02
BASELINE_SCALE = 0.25


class _Employee(Workload):
    classes = {"a": "join", "b": "agg", "c": "diff"}
    scale = 1.0
    sqlite = False

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        if toy:
            self.scale = 0.02
        self.config = EmployeesConfig(scale=self.scale, seed=seed)
        self._traced_connection: Optional[sqlite3.Connection] = None

    def scales(self) -> Dict[str, Any]:
        return {"employee_scale": self.scale, "rows": sum(self.database.row_counts().values())}

    def setup(self) -> None:
        self.generate(lambda: generate_employees(self.config))
        self.local = connect("memory://", domain=self.config.domain, database=self.database)
        if self.sqlite:
            backend = SQLiteBackend.for_database(self.database, optimize=False)
            self.session = connect(
                "memory://", domain=self.config.domain, database=self.database, backend=backend
            )
        else:
            self.session = self.local
        self.warm_up()

    def teardown(self) -> None:
        super().teardown()
        if self._traced_connection is not None:
            self._traced_connection.close()
            self._traced_connection = None

    def chains(self, session: Any) -> List[ReadChain]:
        reads: List[ReadChain] = [
            (name, lambda factory=factory: session.query(factory()))
            for name, factory in EMPLOYEE_WORKLOAD.items()
        ]
        reads.append(("coal-1", lambda: session.table("salaries").where(COAL_PREDICATE)))
        return reads

    def schedule(self) -> Iterator[Optional[Op]]:
        ops = [
            Op("read", CLASS_OF[name], name, build=build, expect_rows=self.expected_rows(name))
            for name, build in self.reads()
        ]
        while True:
            yield from ops
            yield BOUNDARY

    def traced_executor(self, recorder: SpanRecorder) -> Callable[[Op], Any]:
        if self.sqlite and self._traced_connection is None:
            self._traced_connection = connect_memory()
            load_database(self._traced_connection, self.database)
        return TracedLocalExecutor(self.session, recorder, self._traced_connection)

    def conformance(self, checks: Checks) -> None:
        config = EmployeesConfig(scale=CHECK_SCALE, seed=self.seed)
        with connect(
            "memory://", domain=config.domain, database=generate_employees(config)
        ) as small:
            chains = self.chains(small)
            check_conformance(checks, chains[::4] if self.toy else chains, self.name)

    def material(self) -> Material:
        salaries = self.database.table("salaries").rows
        batch_size = max(1, len(salaries) // 100)
        positions = random.Random(f"{self.name}/batch/{self.seed}").sample(
            range(len(salaries)), batch_size
        )

        def small():
            config = EmployeesConfig(
                scale=CHECK_SCALE if self.toy else BASELINE_SCALE, seed=self.seed
            )
            return generate_employees(config), config.domain

        return Material(
            session=self.local,
            chains=self.chains,
            predicates=[COAL_PREDICATE],
            write_table="salaries",
            write_batch=[salaries[position] for position in positions],
            view=lambda session: session.table("salaries")
            .group_by("s_emp_no")
            .agg(cnt="count(*)", total="sum(s_salary)"),
            small=small,
        )


class EmployeeMemory(_Employee):
    name = "employee_memory"
    scale = 2.0

    def sqlite_check_is_cheap(self) -> bool:
        # One SQLite pass at scale 2.0 takes longer than the whole timed
        # phase; the traced run pays it, the conformance copy covers the rest.
        return self.toy


class EmployeeSqlite(_Employee):
    name = "employee_sqlite"
    scale = 0.5
    sqlite = True
