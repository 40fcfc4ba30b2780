"""Multiset engine substrate: tables, catalog, the engine and its row reference."""

from .catalog import DEFAULT_PERIOD, Database
from .executor import (
    ENGINE_NAME,
    ExecutionContext,
    ExecutorError,
    PhysicalOperator,
    execute,
)
from .table import Table, TableError

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
]
