"""Experiment drivers reproducing every table and figure of the paper's evaluation.

The one harness of the evaluation: each driver times by :func:`.report.fastest`
and checks the paper's shape on its rows (``*_differences``).
"""

from .ablation import format_ablation, run_ablation
from .figure5 import DEFAULT_SIZES, build_salary_table, format_figure5, run_figure5
from .report import format_seconds, format_table
from .table1 import SYSTEMS, format_table1, run_table1
from .table2 import format_table2, run_table2_employee, run_table2_tpch
from .table3 import (
    EMPLOYEE_BUG_FLAGS,
    TPCH_BUG_FLAGS,
    format_table3,
    run_table3_employee,
    run_table3_tpch,
)

__all__ = [
    "run_figure5",
    "format_figure5",
    "build_salary_table",
    "DEFAULT_SIZES",
    "run_table1",
    "format_table1",
    "SYSTEMS",
    "run_table2_employee",
    "run_table2_tpch",
    "format_table2",
    "run_table3_employee",
    "run_table3_tpch",
    "format_table3",
    "EMPLOYEE_BUG_FLAGS",
    "TPCH_BUG_FLAGS",
    "run_ablation",
    "format_ablation",
    "format_table",
    "format_seconds",
]
