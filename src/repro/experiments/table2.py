"""Table 2: number of query result rows for both workloads.

The paper reports, for the ten Employee queries and the TPC-H queries at
SF1/SF10, the number of rows each snapshot query returns.  This driver runs
the same queries through the middleware over the synthetic datasets and
reports the cardinalities.  Absolute numbers differ from the paper (the
synthetic data is smaller), but the relative pattern -- the join queries
dominating, the grouped aggregations producing mid-sized results and the
selective queries returning a handful of rows -- is preserved, and
:func:`table2_differences` checks it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..datasets.employees import EmployeesConfig, generate_employees
from ..datasets.tpcbih import TPCBiHConfig, generate_tpcbih
from ..datasets.workloads import employee_queries, tpch_queries
from ..rewriter.pipeline import QueryPipeline
from .report import format_table

__all__ = ["run_table2_employee", "run_table2_tpch", "table2_differences", "format_table2"]

#: The paper's ordering of Employee result sizes: (larger, smaller) pairs.
LARGER = (("join-1", "join-4"), ("join-2", "join-3"), ("agg-1", "agg-3"), ("diff-2", "diff-1"))


def run_table2_employee(
    config: EmployeesConfig | None = None,
    seed: int | None = None,
) -> List[Dict[str, object]]:
    """Result cardinalities of the Employee workload.

    ``seed`` overrides the generator seed of the (given or default) config,
    keeping CLI/ledger runs reproducible end to end.
    """
    config = config or EmployeesConfig(scale=0.2)
    if seed is not None:
        config = replace(config, seed=seed)
    database = generate_employees(config)
    pipeline = QueryPipeline(config.domain, database=database)
    rows: List[Dict[str, object]] = []
    for name, query in employee_queries().items():
        result = pipeline.execute(query)
        rows.append({"query": name, "result_rows": len(result)})
    return rows


def run_table2_tpch(
    config: TPCBiHConfig | None = None,
    seed: int | None = None,
) -> List[Dict[str, object]]:
    """Result cardinalities of the TPC-BiH workload."""
    config = config or TPCBiHConfig(scale_factor=0.2)
    if seed is not None:
        config = replace(config, seed=seed)
    database = generate_tpcbih(config)
    pipeline = QueryPipeline(config.domain, database=database)
    rows: List[Dict[str, object]] = []
    for name, query in tpch_queries().items():
        result = pipeline.execute(query)
        rows.append({"query": name, "result_rows": len(result)})
    return rows


def table2_differences(employee_rows: List[Dict[str, object]]) -> List[str]:
    """Each pair of :data:`LARGER` (and ``diff-1 > 0``) the Employee rows invert."""
    counts = {row["query"]: row["result_rows"] for row in employee_rows}
    shapes = {f"{big} > {small}": counts[big] > counts[small] for big, small in LARGER}
    shapes["diff-1 > 0"] = counts["diff-1"] > 0
    return [shape for shape, holds in shapes.items() if not holds]


def format_table2(
    employee_rows: List[Dict[str, object]], tpch_rows: List[Dict[str, object]]
) -> str:
    parts = [
        format_table(
            ["query", "result_rows"],
            employee_rows,
            title="Table 2 (top): Employee workload result cardinalities",
        ),
        "",
        format_table(
            ["query", "result_rows"],
            tpch_rows,
            title="Table 2 (bottom): TPC-BiH workload result cardinalities",
        ),
    ]
    return "\n".join(parts)
