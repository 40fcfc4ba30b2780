"""Table 1: interval-based approaches for snapshot semantics (correctness matrix).

The paper's Table 1 classifies approaches along four dimensions: multiset
support, freedom from the aggregation-gap bug, freedom from the
bag-difference bug, and uniqueness of the interval encoding.  Rather than
quoting the literature, this driver *probes* the behaviours experimentally
on the running example:

* **AG bug** -- does ``Qonduty`` (snapshot ``count(*)``) return rows for the
  time periods where no SP worker is on duty (count 0 over the gaps)?
* **BD bug** -- does ``Qskillreq`` (snapshot ``EXCEPT ALL``) return the SP
  requirement rows whose multiplicity exceeds the available workers?
* **unique encoding** -- do two snapshot-equivalent input encodings of the
  works relation produce syntactically identical results?

The middleware is expected to pass all three probes; the interval
preservation and temporal alignment baselines reproduce the failures the
paper attributes to ATSQL-style systems and to PG-Nat respectively.
:data:`EXPECTED` is that matrix, and ``python -m repro.experiments table1``
exits 1 when the probed one differs from it.
"""

from __future__ import annotations

from typing import Dict, List

from ..baselines import (
    IntervalPreservationRewriter,
    NaiveSnapshotEvaluator,
    TemporalAlignmentRewriter,
)
from ..datasets.running_example import (
    TIME_DOMAIN,
    WORKS_ROWS,
    ASSIGN_ROWS,
    populate_database,
    query_onduty,
    query_skillreq,
)
from ..engine.catalog import Database
from ..rewriter.pipeline import QueryPipeline
from ..rewriter.periodenc import T_BEGIN, T_END
from .report import format_table

__all__ = ["run_table1", "format_table1", "table1_differences", "SYSTEMS", "EXPECTED"]

#: System name -> factory building an evaluator over a populated catalog.
SYSTEMS = {
    "our-approach": lambda db: QueryPipeline(TIME_DOMAIN, database=db),
    "interval-preservation": lambda db: QueryPipeline(
        TIME_DOMAIN, database=db, rewriter_cls=IntervalPreservationRewriter
    ),
    "temporal-alignment": lambda db: QueryPipeline(
        TIME_DOMAIN, database=db, rewriter_cls=TemporalAlignmentRewriter
    ),
    "naive-per-snapshot": lambda db: NaiveSnapshotEvaluator(db, TIME_DOMAIN),
}

_CORRECT = {"multisets": True, "ag_bug_free": True, "bd_bug_free": True, "unique_encoding": True}
_NATIVE = {**_CORRECT, "ag_bug_free": False, "bd_bug_free": False, "unique_encoding": False}

#: The paper's Table 1 for the probed systems: system name -> column -> value.
EXPECTED: Dict[str, Dict[str, bool]] = {
    "our-approach": _CORRECT,
    "interval-preservation": _NATIVE,
    "temporal-alignment": _NATIVE,
    "naive-per-snapshot": _CORRECT,
}


def _fresh_database(split_ann: bool = False) -> Database:
    """The running example; optionally with Ann's first period split in two.

    The split variant is snapshot-equivalent to the original and is used to
    probe whether a system's output encoding is unique (independent of the
    input representation).
    """
    database = Database()
    works_rows = list(WORKS_ROWS)
    if split_ann:
        works_rows = [
            ("Ann", "SP", 3, 8),
            ("Ann", "SP", 8, 10),
            ("Joe", "NS", 8, 16),
            ("Sam", "SP", 8, 16),
            ("Ann", "SP", 18, 20),
        ]
    database.create_table(
        "works", ["name", "skill", "t_begin", "t_end"], works_rows,
        period=("t_begin", "t_end"),
    )
    database.create_table(
        "assign", ["mach", "req_skill", "t_begin", "t_end"], ASSIGN_ROWS,
        period=("t_begin", "t_end"),
    )
    return database


def _result_signature(table) -> frozenset:
    """Multiset signature of a period table (for syntactic comparison)."""
    counts: Dict[tuple, int] = {}
    for row in table.rows:
        counts[row] = counts.get(row, 0) + 1
    return frozenset(counts.items())


def _has_gap_rows(table) -> bool:
    """True iff the Qonduty result contains count-0 rows over the gaps."""
    cnt_index = table.column_index("cnt")
    begin_index = table.column_index(T_BEGIN)
    covered = [
        (row[begin_index], row[table.column_index(T_END)])
        for row in table.rows
        if row[cnt_index] == 0
    ]
    required_gap_points = {0, 16, 20}  # one probe point inside each gap
    return all(any(b <= p < e for b, e in covered) for p in required_gap_points)


def _has_bag_difference_rows(table) -> bool:
    """True iff the Qskillreq result contains the SP rows of Figure 1c."""
    skill_index = table.column_index("skill")
    begin_index = table.column_index(T_BEGIN)
    end_index = table.column_index(T_END)
    sp_points = set()
    for row in table.rows:
        if row[skill_index] == "SP":
            sp_points.update(range(row[begin_index], row[end_index]))
    return {6, 7, 10, 11} <= sp_points


def run_table1() -> List[Dict[str, object]]:
    """Probe every system; returns one row per system, mirroring Table 1."""
    from ..algebra.expressions import Comparison, attr, lit
    from ..algebra.operators import Projection, RelationAccess, Selection

    # The uniqueness probe uses a selection/projection query: approaches that
    # preserve input intervals return different encodings for the split and
    # unsplit (but snapshot-equivalent) representations of the works table.
    uniqueness_query = Projection.of_attributes(
        Selection(
            RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))
        ),
        "name",
        "skill",
    )

    rows: List[Dict[str, object]] = []
    for name, factory in SYSTEMS.items():
        onduty = factory(_fresh_database()).execute(query_onduty())
        skillreq = factory(_fresh_database()).execute(query_skillreq())
        original = factory(_fresh_database()).execute(uniqueness_query)
        split = factory(_fresh_database(split_ann=True)).execute(uniqueness_query)
        rows.append(
            {
                "approach": name,
                "multisets": True,
                "ag_bug_free": _has_gap_rows(onduty),
                "bd_bug_free": _has_bag_difference_rows(skillreq),
                "unique_encoding": _result_signature(original)
                == _result_signature(split),
            }
        )
    return rows


def table1_differences(rows: List[Dict[str, object]]) -> List[str]:
    """``"system column"`` for every cell of ``rows`` that differs from :data:`EXPECTED`."""
    probed = {row["approach"]: row for row in rows}
    return [
        f"{system} {column}"
        for system, expected in EXPECTED.items()
        for column, value in expected.items()
        if system not in probed or probed[system][column] != value
    ]


def format_table1(rows: List[Dict[str, object]]) -> str:
    return format_table(
        ["approach", "multisets", "ag_bug_free", "bd_bug_free", "unique_encoding"],
        rows,
        title="Table 1: correctness matrix (probed on the running example)",
    )
