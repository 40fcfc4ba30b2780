"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (see EXPERIMENTS.md for the index).  Dataset scale is
kept laptop-friendly; the goal is to reproduce the *shape* of the paper's
results (who wins, by roughly what factor), not absolute numbers measured on
the authors' server.  Scale can be raised through the environment variables
``REPRO_EMPLOYEE_SCALE`` and ``REPRO_TPCH_SCALE``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List

import pytest

from repro.datasets import (
    EmployeesConfig,
    TPCBiHConfig,
    generate_employees,
    generate_tpcbih,
)
from repro.rewriter import QueryPipeline
from repro.baselines import TemporalAlignmentRewriter

EMPLOYEE_SCALE = float(os.environ.get("REPRO_EMPLOYEE_SCALE", "0.1"))
TPCH_SCALE = float(os.environ.get("REPRO_TPCH_SCALE", "0.1"))


@pytest.fixture(scope="session")
def employee_config() -> EmployeesConfig:
    return EmployeesConfig(scale=EMPLOYEE_SCALE)


@pytest.fixture(scope="session")
def employee_database(employee_config):
    return generate_employees(employee_config)


@pytest.fixture(scope="session")
def employee_pipeline(employee_config, employee_database):
    return QueryPipeline(employee_config.domain, database=employee_database)


@pytest.fixture(scope="session")
def employee_native(employee_config, employee_database):
    return QueryPipeline(
        employee_config.domain, employee_database, rewriter_cls=TemporalAlignmentRewriter
    )


@pytest.fixture(scope="session")
def tpch_config() -> TPCBiHConfig:
    return TPCBiHConfig(scale_factor=TPCH_SCALE)


@pytest.fixture(scope="session")
def tpch_database(tpch_config):
    return generate_tpcbih(tpch_config)


@pytest.fixture(scope="session")
def tpch_pipeline(tpch_config, tpch_database):
    return QueryPipeline(tpch_config.domain, database=tpch_database)


@pytest.fixture(scope="session")
def tpch_native(tpch_config, tpch_database):
    return QueryPipeline(tpch_config.domain, tpch_database, rewriter_cls=TemporalAlignmentRewriter)


def _fastest(*runs: Callable[[], object], rounds: int = 3) -> List[float]:
    """Fastest wall time of each callable, in seconds, for the shape assertions.

    Every callable runs once untimed first: the first pipeline to scan a
    table pays its column transpose (kept on the ``TableVersion``) for all the
    others, so a single cold execution times the order of the calls, not the
    plans.  Then come ``rounds`` timed passes, the order alternating so that
    no side always runs on caches the other just warmed.
    """
    for run in runs:
        run()
    best = [float("inf")] * len(runs)
    order = list(range(len(runs)))
    for _ in range(rounds):
        for position in order:
            started = time.perf_counter()
            runs[position]()
            best[position] = min(best[position], time.perf_counter() - started)
        order.reverse()
    return best


@pytest.fixture(scope="session")
def fastest() -> Callable[..., List[float]]:
    return _fastest
