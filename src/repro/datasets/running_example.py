"""The paper's running example (Figure 1): the works / assign relations.

The factory records which workers (with which skill) are on duty during
which hours of 2018-01-01 (time points 0..23) and which machines need a
worker with a given skill during which hours.  Two snapshot queries are
defined over this data:

* ``Qonduty`` -- the number of specialised (SP) workers on duty at any point
  in time (Figure 1b); its result exposes the aggregation-gap rows.
* ``Qskillreq`` -- the skills missing at any point in time, as a bag
  difference between requirements and available workers (Figure 1c); its
  result exposes the bag-difference multiplicities.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebra.expressions import Comparison, attr, lit
from ..algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
)
from ..engine.catalog import Database
from ..rewriter.pipeline import QueryPipeline
from ..temporal.timedomain import TimeDomain

__all__ = [
    "TIME_DOMAIN",
    "WORKS_ROWS",
    "ASSIGN_ROWS",
    "EXPECTED_ONDUTY",
    "EXPECTED_SKILLREQ",
    "load_running_example",
    "query_onduty",
    "query_skillreq",
]

#: Hours of 2018-01-01.
TIME_DOMAIN = TimeDomain(0, 24)

#: (name, skill, begin, end) -- Figure 1a, left.
WORKS_ROWS: List[Tuple[str, str, int, int]] = [
    ("Ann", "SP", 3, 10),
    ("Joe", "NS", 8, 16),
    ("Sam", "SP", 8, 16),
    ("Ann", "SP", 18, 20),
]

#: (mach, skill, begin, end) -- Figure 1a, right.
ASSIGN_ROWS: List[Tuple[str, str, int, int]] = [
    ("M1", "SP", 3, 12),
    ("M2", "SP", 6, 14),
    ("M3", "NS", 3, 16),
]

#: Figure 1b: the coalesced result of Qonduty (cnt -> list of intervals).
EXPECTED_ONDUTY: Dict[int, List[Tuple[int, int]]] = {
    0: [(0, 3), (16, 18), (20, 24)],
    1: [(3, 8), (10, 16), (18, 20)],
    2: [(8, 10)],
}

#: Figure 1c: the coalesced result of Qskillreq (skill -> list of intervals).
EXPECTED_SKILLREQ: Dict[str, List[Tuple[int, int]]] = {
    "SP": [(6, 8), (10, 12)],
    "NS": [(3, 8)],
}


def load_running_example(pipeline: QueryPipeline | None = None) -> QueryPipeline:
    """Create (or populate) a query pipeline holding works and assign."""
    if pipeline is None:
        pipeline = QueryPipeline(TIME_DOMAIN)
    pipeline.load_table("works", ["name", "skill"], WORKS_ROWS)
    pipeline.load_table("assign", ["mach", "req_skill"], ASSIGN_ROWS)
    return pipeline


def populate_database(database: Database) -> Database:
    """Load the running-example tables into a bare engine catalog."""
    database.create_table(
        "works",
        ["name", "skill", "t_begin", "t_end"],
        WORKS_ROWS,
        period=("t_begin", "t_end"),
    )
    database.create_table(
        "assign",
        ["mach", "req_skill", "t_begin", "t_end"],
        ASSIGN_ROWS,
        period=("t_begin", "t_end"),
    )
    return database


def query_onduty() -> Operator:
    """``SELECT count(*) AS cnt FROM works WHERE skill = 'SP'`` (snapshot)."""
    return Aggregation(
        Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
        (),
        (AggregateSpec("count", None, "cnt"),),
    )


def query_skillreq() -> Operator:
    """``SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works`` (snapshot)."""
    required = Rename(
        Projection.of_attributes(RelationAccess("assign"), "req_skill"),
        (("req_skill", "skill"),),
    )
    available = Projection.of_attributes(RelationAccess("works"), "skill")
    return Difference(required, available)
