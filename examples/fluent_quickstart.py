"""The fluent session API end to end: Figure 1 on both backends.

One ``connect()`` call is all the plumbing there is: lazy relations
compile fluent chains to the logical algebra and execute -- REWR, planner,
backend, plan cache -- on the first terminal call.  The script reproduces the paper's running-example results (Figures 1b and 1c)
through ``connect()`` on the in-memory engine *and* on SQLite, asserts both
match the expected coalesced answers, and shows the plan cache skipping
REWR on a repeated query.

Run from the repository root::

    PYTHONPATH=src python examples/fluent_quickstart.py
"""

from collections import Counter

from repro import connect
from repro.datasets.running_example import (
    ASSIGN_ROWS,
    EXPECTED_ONDUTY,
    EXPECTED_SKILLREQ,
    TIME_DOMAIN,
    WORKS_ROWS,
)

EXPECTED_ONDUTY_ROWS = Counter(
    (cnt, begin, end)
    for cnt, intervals in EXPECTED_ONDUTY.items()
    for begin, end in intervals
)
EXPECTED_SKILLREQ_ROWS = Counter(
    (skill, begin, end)
    for skill, intervals in EXPECTED_SKILLREQ.items()
    for begin, end in intervals
)


def main() -> None:
    for backend in ("memory", "sqlite"):
        print(f"=== backend: {backend} " + "=" * 40)
        session = connect(domain=TIME_DOMAIN, backend=backend)
        works = session.load("works", ["name", "skill"], WORKS_ROWS)
        assign = session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)

        # Qonduty (Figure 1b): how many SP workers are on duty at any time?
        onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
        print("Qonduty -- SP workers on duty over time:")
        print(onduty.pretty())
        assert Counter(onduty.rows()) == EXPECTED_ONDUTY_ROWS

        # Qskillreq (Figure 1c): which skills are missing at any time?
        skillreq = (
            assign.select("req_skill")
            .rename(req_skill="skill")
            .difference(works.select("skill"))
        )
        print("\nQskillreq -- missing skills over time:")
        print(skillreq.pretty())
        assert Counter(skillreq.rows()) == EXPECTED_SKILLREQ_ROWS

        # Snapshot-reducibility: the 08:00 timeslice equals the non-temporal
        # query over the 08:00 snapshot of the inputs.
        print("\nQonduty at 08:00 ->", dict(onduty.snapshot(8)))

        # A temporal join, in one chain: who works on a machine that needs
        # their skill, and when?
        staffed = (
            works.join(assign, on="skill = req_skill")
            .where("skill = 'SP'")
            .select("name", "mach")
        )
        print("\nSP workers matched to machines (first rows):")
        print(staffed.pretty(limit=6))

        # The warm plan cache: the same chain again skips REWR + planner.
        statistics: dict = {}
        onduty.rows(statistics)
        assert statistics.get("plan_cache.hits") == 1
        assert "rewrite.invocations" not in statistics
        print(
            "\nplan cache after re-running Qonduty:",
            session.cache_info(),
            "(REWR + planner skipped)",
        )

        # The whole pipeline, rendered.
        print("\nQonduty, explained:")
        print(onduty.explain())
        print()

    # One query checked against the abstract-model conformance oracle.
    session = connect(domain=TIME_DOMAIN)
    works = session.load("works", ["name", "skill"], WORKS_ROWS)
    report = works.where("skill = 'SP'").agg(cnt="count(*)").check()
    print(
        f"conformance: {report.checks} checks across "
        f"{len(report.configurations)} configurations x "
        f"{len(report.points)} changepoints -- "
        + ("all conform" if report.ok else "VIOLATION")
    )
    report.raise_if_failed()


if __name__ == "__main__":
    main()
