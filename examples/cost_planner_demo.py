"""Statistics and cost-based planning, observable end to end.

Builds the worst case for a purely syntactic planner -- a three-way join
written in the most expensive order, with heavy key skew -- and shows what
``planner="cost"`` (PR 10) does about it:

* ``session.analyze()`` collecting ``repro.stats`` table statistics: row
  counts, per-column distinct counts, period-endpoint histograms, and the
  interval overlap-density sweep;
* the cost model's cardinality estimates (``estimate_rows``) steering a
  smallest-intermediate-first join reordering *before* REWR, so the
  selective dimension slice prunes the fact table before the skewed
  fact-big join ever runs;
* join strategy hints stamped on the rewritten plan and obeyed by the
  executor (``join_strategy.*`` counters);
* ``explain()``'s ``executed plan:`` section putting ``estimated_rows``
  next to ``actual_rows`` on every node -- the estimate quality report;
* the syntactic and cost sessions returning the identical bag of rows,
  with the wall-clock gap printed last.

Run from the repository root::

    PYTHONPATH=src python examples/cost_planner_demo.py
"""

import time
from collections import Counter

from repro import connect
from repro.planner import estimate_rows

ROWS = 1_200
KEYS = 8


def build_session(planner):
    """Fact (skewed FK), big (same skew), and a tiny selective dimension."""
    session = connect(domain=(0, 128), planner=planner)
    session.load(
        "fact",
        ["fk", "fval"],
        [("k%d" % (i % KEYS), i, 0, 100) for i in range(ROWS)],
    )
    session.load(
        "big",
        ["bk", "bval"],
        [("k%d" % (i % KEYS), i, 0, 100) for i in range(ROWS // 2)],
    )
    session.load(
        "dim", ["dk", "dval"], [("k%d" % k, k, 0, 100) for k in range(KEYS)]
    )
    return session


def worst_order_query(session):
    # Written worst-first: (fact JOIN big) explodes to rows^2/keys before
    # the one-row dim slice prunes anything.
    return (
        session.table("fact")
        .join(session.table("big"), on="fk = bk")
        .join(session.table("dim"), on="fk = dk and dval = 0")
    )


def main() -> None:
    # -- 1. ANALYZE: what the optimizer gets to know -----------------------
    cost_session = build_session("cost")
    statistics = cost_session.analyze()
    fact_stats = statistics["fact"]
    print("ANALYZE fact:")
    print(f"  row_count        = {fact_stats.row_count}")
    print(f"  distinct(fk)     = {fact_stats.distinct('fk')}")
    print(f"  overlap_density  = {fact_stats.overlap_density:.2f}")
    print(f"  mean interval    = {fact_stats.mean_interval_length:.1f}")

    # -- 2. The estimates that drive the reordering ------------------------
    from repro.algebra import Comparison, Join, RelationAccess, attr

    fact_big = Join(
        RelationAccess("fact"),
        RelationAccess("big"),
        Comparison("=", attr("fk"), attr("bk")),
    )
    print("\ncost model (with statistics):")
    print(f"  |fact|           ~ {estimate_rows(RelationAccess('fact'), cost_session.database):.0f}")
    print(f"  |fact JOIN big|  ~ {estimate_rows(fact_big, cost_session.database):.0f}")

    # -- 3. Same query, both planners, same answer -------------------------
    syntactic_session = build_session("syntactic")
    baseline = worst_order_query(syntactic_session)
    reordered = worst_order_query(cost_session)

    baseline_rows = baseline.rows()
    planner_counters: dict = {}
    cost_rows = cost_session.execute(reordered.plan, planner_counters).rows
    assert Counter(cost_rows) == Counter(baseline_rows)
    print(f"\nboth planners agree on the bag: {len(cost_rows)} rows")
    print(
        "cost planner reorders applied:",
        planner_counters.get("planner.cost_join_reorders", 0),
    )
    for key in sorted(planner_counters):
        if key.startswith("planner.cost_strategy_"):
            print(f"  {key} = {planner_counters[key]}")

    # -- 4. Estimated vs. actual, per node ---------------------------------
    text = reordered.explain()
    executed = text.split("executed plan:", 1)[1]
    print("\nexecuted plan (estimated_rows vs actual_rows):")
    print(executed.rstrip())

    # -- 5. The wall-clock gap ---------------------------------------------
    def best_of(action, repetitions=3):
        best = None
        for _ in range(repetitions):
            started = time.perf_counter()
            action()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    syntactic_seconds = best_of(lambda: baseline.rows())
    cost_seconds = best_of(lambda: cost_session.execute(reordered.plan))
    print(
        f"\nsyntactic {syntactic_seconds * 1000:.1f} ms, "
        f"cost {cost_seconds * 1000:.1f} ms "
        f"({syntactic_seconds / cost_seconds:.1f}x)"
    )
    assert syntactic_seconds > cost_seconds


if __name__ == "__main__":
    main()
