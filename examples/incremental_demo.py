"""Incremental materialized temporal views: dirty partitions instead of re-execution.

The paper's rewriting re-executes the whole plan on every query; this demo
shows the `repro.incremental` subsystem maintaining a registered view under
a stream of catalog changes instead:

1. materialize a coalesced grouped temporal aggregate as a view;
2. feed it catalog DML (``session.insert`` / ``session.delete``) -- each
   mutation becomes a signed-row Z-set delta, and the view re-runs its
   pinned plan on the partitions (here: the skills) the delta touches;
3. read how it is maintained off ``view.explain()``: the partition key,
   deltas processed, partitions recomputed, and -- the headline -- zero
   full refreshes after the initial build;
4. verify: the view must bag-equal a from-scratch re-execution of its plan
   (the same oracle discipline as `.check()`), and DDL on a base table
   invalidates the view exactly like a plan-cache entry;
5. detached deltas: ``view.apply(Delta...)`` maintains a view against a
   stream that bypasses the catalog.

Run with:  PYTHONPATH=src python examples/incremental_demo.py
"""

from collections import Counter

from repro import Delta, IncrementalError, connect


def main() -> None:
    session = connect("memory://?domain=0:48")

    # A day of shift data: (name, skill) valid over [begin, end).
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

    # -- 1. register the view --------------------------------------------------------
    onduty = works.group_by("skill").agg(cnt="count(*)")
    view = session.materialize(onduty, name="onduty_by_skill")
    print("== materialized", view)
    print(view.table().pretty())

    # -- 2. DML becomes deltas -------------------------------------------------------
    # Catalog mutations arrive as signed-row Z-set deltas; only the
    # partitions they touch are recomputed.
    session.insert("works", [("Zoe", "SP", 0, 6), ("Max", "NS", 2, 9)])
    session.delete("works", [("Joe", "NS", 8, 16)])
    print("== after insert x2 + delete x1")
    print(view.table().pretty())

    # -- 3. the counters tell the story ----------------------------------------------
    print(view.explain())
    assert "partitioned by (skill): works.skill" in view.explain()
    assert view.counters["incremental.full_refresh"] == 1  # only the build
    assert view.counters["incremental.delta_rows"] >= 3

    # -- 4. conformance: the view equals full re-execution ---------------------------
    assert view.verify(), "view diverged from re-execution"
    # ... and the *query* behind it still satisfies snapshot conformance.
    onduty.check().raise_if_failed()
    # The view is an ordinary catalog table too: query it fluently.
    sp_only = session.table("onduty_by_skill").where("skill = 'SP'").rows()
    assert Counter(sp_only) == Counter(
        row for row in view.rows() if row[0] == "SP"
    )

    # DDL (reloading a base table) invalidates the view like a cached plan;
    # the next delta triggers one full refresh.
    session.load("works", ["name", "skill"], [("Ann", "SP", 0, 8)])
    assert view.stale
    session.insert("works", [("Bo", "NS", 1, 5)])
    assert not view.stale and view.verify()
    assert view.counters["incremental.full_refresh"] == 2

    # -- 5. detached delta streams ---------------------------------------------------
    # apply() maintains the view against deltas that never touch the
    # catalog (e.g. a replicated upstream feed).
    view.apply([Delta.inserts("works", [("Kim", "SP", 4, 12)])])
    assert any(row[0] == "SP" and row[1] >= 1 for row in view.rows())
    try:
        view.apply([Delta.deletes("works", [("Kim", "SP", 4, 12)])] * 2)
    except IncrementalError as error:
        print("== negative multiplicity rejected:", error)

    session.drop_view("onduty_by_skill")
    assert session.views() == ()
    session.close()
    print("OK")


if __name__ == "__main__":
    main()
