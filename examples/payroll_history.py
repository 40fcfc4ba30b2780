"""Payroll analytics over the synthetic Employees database.

Demonstrates the workloads the paper's evaluation is built on: temporal
joins between salary, title and department histories, snapshot aggregation
with and without grouping (including the gap semantics that native systems
get wrong), and snapshot bag difference -- written as fluent chains through
:func:`repro.connect`.  The tail runs the full hand-built benchmark
workload through ``session.query``, showing that fluent and operator-tree
queries share one pipeline (and one plan cache).

Run with::

    python examples/payroll_history.py [scale]

``scale`` (default 0.05) controls the size of the generated database.
"""

import sys

from repro import connect
from repro.datasets import EmployeesConfig, generate_employees
from repro.datasets.workloads import employee_queries


def main(scale: float = 0.05) -> None:
    config = EmployeesConfig(scale=scale)
    session = connect(domain=config.domain, database=generate_employees(config))
    print(f"Generated Employees database (scale={scale}):")
    for name, count in sorted(session.database.row_counts().items()):
        print(f"  {name:14s} {count:6d} period rows")
    print()

    # --- How did the headcount of department d000 evolve? --------------------
    headcount = (
        session.table("dept_emp")
        .where("de_dept_no = 'd000'")
        .agg(headcount="count(*)")
    )
    print("Headcount history of department d000 (first 12 periods):")
    print(headcount.pretty(limit=12))
    print()

    # --- Average salary per department over time (the paper's agg-1). ---------
    salaries_by_department = (
        session.table("dept_emp")
        .join(session.table("salaries"), on="de_emp_no = s_emp_no")
        .select("de_dept_no", "s_salary")
        .group_by("de_dept_no")
        .agg(avg_salary="avg(s_salary)")
    )
    result = salaries_by_department.table()
    print(f"Average salary per department over time: {len(result)} result rows")
    print(result.pretty(limit=8))
    print()

    # --- Who earned top-of-department pay, and when? (the paper's agg-join) ----
    top_earners = session.query(employee_queries()["agg-join"])
    result = top_earners.table()
    print(f"Department top earners over time: {len(result)} result rows")
    print(result.pretty(limit=8))
    print()

    # --- The full benchmark workload in one go. --------------------------------
    print("Result cardinalities of the full Employee workload (paper Table 2):")
    for name, query in employee_queries().items():
        print(f"  {name:10s} {len(session.query(query).rows()):8d} rows")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
