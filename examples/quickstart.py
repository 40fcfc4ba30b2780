"""Quickstart: the paper's running example (Figure 1) end to end.

Opens a session with :func:`repro.connect`, loads the ``works`` and
``assign`` period relations, evaluates the two snapshot queries from the
introduction of the paper as fluent chains, and cross-checks the results
against the per-snapshot oracle:

* ``Qonduty``  -- how many specialised (SP) workers are on duty at any time?
  (snapshot aggregation; note the ``cnt = 0`` rows over the gaps)
* ``Qskillreq`` -- which skills are missing at any time?
  (snapshot bag difference; note the SP rows kept despite SP workers existing)

The tail of the script shows that hand-built operator trees remain
first-class citizens: ``session.query`` wraps one as a lazy relation and
``session.execute`` runs one directly, both through the session's pipeline.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro import connect
from repro.algebra import AggregateSpec, Aggregation, Comparison, RelationAccess, Selection, attr, lit


def main() -> None:
    # 1. Open a session over the paper's time domain (hours 0..23).
    session = connect(domain=(0, 24))

    # 2. Load the period relations of Figure 1a.  Each row ends with its
    #    validity period [begin, end).
    works = session.load(
        "works",
        ["name", "skill"],
        [
            ("Ann", "SP", 3, 10),
            ("Joe", "NS", 8, 16),
            ("Sam", "SP", 8, 16),
            ("Ann", "SP", 18, 20),
        ],
    )
    assign = session.load(
        "assign",
        ["mach", "req_skill"],
        [("M1", "SP", 3, 12), ("M2", "SP", 6, 14), ("M3", "NS", 3, 16)],
    )

    # 3. Qonduty: SELECT count(*) AS cnt FROM works WHERE skill = 'SP'
    #    evaluated under snapshot semantics.
    onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
    print("Qonduty -- number of SP workers on duty over time (Figure 1b):")
    print(onduty.pretty())
    print()

    # 4. Qskillreq: SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works.
    skillreq = (
        assign.select("req_skill")
        .rename(req_skill="skill")
        .difference(works.select("skill"))
    )
    print("Qskillreq -- missing skills over time (Figure 1c):")
    print(skillreq.pretty())
    print()

    # 5. Snapshot-reducibility in action: slicing the temporal result at 08:00
    #    equals running the non-temporal query over the 08:00 snapshot.
    print("Timeslice of Qonduty at 08:00 ->", dict(onduty.snapshot(8)))

    # 6. The pipeline the session actually executes: logical plan, REWR
    #    output, planner effect, executor strategy, plan-cache outcome.
    print("\nQonduty, explained:")
    print(onduty.explain())

    # 7. The same query on a real DBMS: the session compiles the rewritten
    #    plan to SQL (window functions included) and runs it on sqlite3.
    print("\nQonduty executed on the SQLite backend (identical result):")
    print(session.execute(onduty.plan, backend="sqlite").pretty())

    # 8. Hand-built operator trees stay first-class: session.query wraps one
    #    into the same lazy-relation interface (and the same plan cache).
    tree = Aggregation(
        Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
        (),
        (AggregateSpec("count", None, "cnt"),),
    )
    assert sorted(session.query(tree).rows()) == sorted(onduty.rows())
    print("\nsession.query(hand_built_tree) returns the same rows -- and")
    print("session.execute(hand_built_tree) hands back the period table:")
    print(session.execute(tree).pretty(limit=3))


if __name__ == "__main__":
    main()
