"""``adhoc_small``: many small ad hoc queries, half of them never seen before.

A deep template (join + nested set operations + grouped temporal
aggregation) over 32-row tables, built through the fluent API with *string*
predicates.  Half the operations use constants no earlier operation used
(one of the eight hot constant combinations with a fresh salt), so the plan
cache misses and parse + REWR + planner run (``cold``); a quarter rebuild one
of the eight hot chains (``warm``: chain construction, parsing and a cache
hit); a quarter re-run a relation object the client kept (``held``: a cache
hit and the engine, nothing else).  The
engine sees tiny inputs, so per-call overheads and the front end decide;
kernels optimised for big inputs should not move this workload.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import connect
from repro.datasets.generator import GeneratorConfig, generate_catalog

from harness import BOUNDARY, Checks, Op, TracedLocalExecutor
from spans import SpanRecorder
from workloads import Material, ReadChain, Workload, check_conformance

HOT_CHAINS = 8
VALUE_BOUNDS = range(0, 6)
CATEGORIES = range(0, 4)
#: Seed of the catalog itself.  On 32-row tables the cost of the template
#: varies two-fold with the generator seed (measured: held p50 1.9-4.3 ms
#: over ten seeds), which no run length averages out.  This workload is
#: about plan shapes on tiny inputs, so the tiny input is fixed like a
#: schema; ``--seed`` drives the row order and the whole schedule.
CATALOG_SEED = 23
#: The plan cache has no eviction; without a bound its size, and so peak
#: RSS, would grow with the number of operations completed, i.e. with speed.
#: The cache is cleared (and the hot chains re-warmed, untimed) every this
#: many blocks of 32 operations.
CACHE_CLEAR_EVERY_BLOCKS = 64


def template(session: Any, bound: int, category: int, salt: int) -> Any:
    """The deep chain; ``salt`` makes the plan new without changing the result."""
    r = session.table("R").select(cat="r_cat", val="r_val")
    s = session.table("S").select(cat="s_cat", val="s_val")
    joined = (
        session.table("R")
        .join(session.table("S"), on="r_key = s_key")
        .select(cat="r_cat", val="s_val")
    )
    everything = r.union(s).union(joined)
    active = everything.difference(r.where(predicate(bound, salt))).distinct()
    return (
        active.union(everything.where(f"cat = 'g{category}'"))
        .group_by("cat")
        .agg(cnt="count(*)", total="sum(val)")
    )


def predicate(bound: int, salt: int) -> str:
    return f"val + {salt} > {bound + salt}"


class AdhocSmall(Workload):
    name = "adhoc_small"
    classes = {"a": "cold", "b": "warm", "c": "held"}

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.config = GeneratorConfig(
            rows=32,
            domain_size=64,
            seed=CATALOG_SEED,
            interval_profile="mixed",
            duplicate_rate=0.1,
            groups=len(CATEGORIES),
            values=8,
            keys=16,
        )
        # Like the catalog, the hot constant combinations are fixed: they
        # cover every bound and category, and the seed orders the work.
        self.hot = [
            (VALUE_BOUNDS[index % len(VALUE_BOUNDS)], CATEGORIES[index % len(CATEGORIES)])
            for index in range(2 if toy else HOT_CHAINS)
        ]
        self.held: List[Any] = []
        #: Last salt handed out; survives a restart of the schedule, so a
        #: second timed phase does not find the first one's plans cached.
        self.salt = 0

    def scales(self) -> Dict[str, Any]:
        return {"rows_per_table": self.config.rows, "hot_chains": len(self.hot)}

    def setup(self) -> None:
        self.generate(self._catalog)
        self.session = self.local = connect(
            "memory://", domain=self.config.domain, database=self.database
        )
        self.warm_up()
        self.held = [build() for _name, build in self.reads()]

    def _catalog(self) -> Any:
        database = generate_catalog(self.config)
        rng = random.Random(f"{self.name}/rows/{self.seed}")
        for name in ("R", "S"):
            rng.shuffle(database.table(name).rows)
        return database

    def chains(self, session: Any) -> List[ReadChain]:
        return [
            (
                f"hot-{index}",
                lambda bound=bound, category=category: template(session, bound, category, 0),
            )
            for index, (bound, category) in enumerate(self.hot)
        ]

    def schedule(self) -> Iterator[Optional[Op]]:
        rng = random.Random(f"{self.name}/schedule/{self.seed}")
        session = self.session
        hot = self.reads()
        # One block: per hot combination two cold ops (fresh salt), one warm
        # and one held, in seeded order -- the same work in every block.
        slots = [
            (kind, index)
            for index in range(len(hot))
            for kind in ("cold", "cold", "warm", "held")
        ]
        blocks = 0
        while True:
            rng.shuffle(slots)
            for kind, index in slots:
                name, build = hot[index]
                expected = self.expected_rows(name)
                if kind == "cold":
                    self.salt += 1
                    bound, category = self.hot[index]
                    yield Op(
                        "read",
                        "cold",
                        f"cold-{index}",
                        build=lambda b=bound, c=category, k=self.salt: template(session, b, c, k),
                        cold=True,
                        expect_rows=expected,
                    )
                elif kind == "warm":
                    yield Op("read", "warm", f"warm-{index}", build=build, expect_rows=expected)
                else:
                    yield Op(
                        "read",
                        "held",
                        f"held-{index}",
                        build=lambda index=index: self.held[index],
                        expect_rows=expected,
                    )
            blocks += 1
            if blocks % CACHE_CLEAR_EVERY_BLOCKS == 0:
                session.clear_plan_cache()
                for relation in self.held:
                    relation.rows()
            yield BOUNDARY

    def traced_executor(self, recorder: SpanRecorder) -> Callable[[Op], Any]:
        return TracedLocalExecutor(self.session, recorder)

    def conformance(self, checks: Checks) -> None:
        # The catalog is already oracle-sized.
        check_conformance(checks, self.reads()[:1], self.name)

    def verify(self, checks: Checks) -> None:
        super().verify(checks)
        # A salted predicate must select what the unsalted one selects.
        rng = random.Random(f"{self.name}/verify/{self.seed}")
        for index in rng.sample(range(len(self.hot)), 2):
            bound, category = self.hot[index]
            checks.same_digest(
                f"{self.name}/salted hot-{index}",
                lambda b=bound, c=category: template(self.session, b, c, 7919).rows(),
                self.reference[f"hot-{index}"],
            )

    def material(self) -> Material:
        rows = self.database.table("R").rows
        return Material(
            session=self.local,
            chains=self.chains,
            predicates=[predicate(2, 0), "cat = 'g0'", "r_key = s_key"],
            write_table="R",
            write_batch=list(rows[: max(1, len(rows) // 8)]),
            view=lambda session: session.table("R")
            .group_by("r_key")
            .agg(cnt="count(*)", total="sum(r_val)"),
            small=lambda: (self.database, self.config.domain),
        )
