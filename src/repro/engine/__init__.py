"""Multiset engine substrate: tables, catalog, the engine, its row reference, window functions."""

from .catalog import DEFAULT_PERIOD, Database
from .executor import (
    ENGINE_NAME,
    ExecutionContext,
    ExecutorError,
    PhysicalOperator,
    execute,
)
from .table import Table, TableError
from .window import (
    WindowSpec,
    apply_window,
    lag,
    lead,
    partition_rows,
    row_number,
    running_sum,
    sum_over_partition,
)

__all__ = [
    "Table",
    "TableError",
    "Database",
    "DEFAULT_PERIOD",
    "execute",
    "ENGINE_NAME",
    "ExecutionContext",
    "ExecutorError",
    "PhysicalOperator",
    "WindowSpec",
    "apply_window",
    "row_number",
    "lag",
    "lead",
    "running_sum",
    "sum_over_partition",
    "partition_rows",
]
