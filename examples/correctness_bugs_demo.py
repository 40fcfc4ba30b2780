"""Demonstration of the AG and BD bugs in pre-existing approaches.

Evaluates the paper's two introduction queries with (a) a snapshot
session of this library (:func:`repro.connect`), (b) an
interval-preservation (ATSQL-style) baseline and (c) a temporal-alignment
(PG-Nat-style) baseline, and prints a side-by-side comparison that makes
the two correctness bugs visible:

* the **aggregation gap (AG) bug** -- native approaches return no row for
  the time periods in which no SP worker is on duty, silently hiding the
  safety violations the query was written to find;
* the **bag difference (BD) bug** -- native approaches treat ``EXCEPT ALL``
  like ``NOT EXISTS`` and drop the periods in which one more SP worker is
  required than available.

Run with::

    python examples/correctness_bugs_demo.py
"""

from repro import connect
from repro.baselines import IntervalPreservationRewriter, TemporalAlignmentRewriter
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_onduty,
    query_skillreq,
)
from repro.engine import Database
from repro.rewriter import QueryPipeline


def evaluators():
    return {
        "our approach (snapshot session)": lambda: connect(
            domain=TIME_DOMAIN, database=populate_database(Database())
        ),
        "interval preservation (ATSQL-style)": lambda: QueryPipeline(
            TIME_DOMAIN,
            populate_database(Database()),
            rewriter_cls=IntervalPreservationRewriter,
        ),
        "temporal alignment (PG-Nat-style)": lambda: QueryPipeline(
            TIME_DOMAIN,
            populate_database(Database()),
            rewriter_cls=TemporalAlignmentRewriter,
        ),
    }


def main() -> None:
    print("=" * 72)
    print("Qonduty: number of SP workers on duty (snapshot count(*))")
    print("=" * 72)
    for name, factory in evaluators().items():
        table = factory().execute(query_onduty())
        print(f"\n{name}: {len(table)} result rows")
        print(table.pretty())
        has_gap_rows = any(row[table.column_index("cnt")] == 0 for row in table.rows)
        verdict = "reports the 0-count safety gaps" if has_gap_rows else "AG BUG: gaps missing"
        print(f"  -> {verdict}")

    print()
    print("=" * 72)
    print("Qskillreq: missing skills (snapshot EXCEPT ALL)")
    print("=" * 72)
    for name, factory in evaluators().items():
        table = factory().execute(query_skillreq())
        print(f"\n{name}: {len(table)} result rows")
        print(table.pretty())
        has_sp_rows = any(
            row[table.column_index("skill")] == "SP" for row in table.rows
        )
        verdict = (
            "reports the extra SP worker needed during [6,8) and [10,12)"
            if has_sp_rows
            else "BD BUG: SP requirement rows missing"
        )
        print(f"  -> {verdict}")


if __name__ == "__main__":
    main()
