"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
)
from repro.engine.catalog import Database
from repro.logical_model.database import PeriodDatabase
from repro.semirings.standard import NATURAL
from repro.temporal.timedomain import TimeDomain

# Property tests create whole databases per example; relax the deadline and
# the too-slow health check so CI machines with slow I/O do not flake.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("repro")


@pytest.fixture
def domain() -> TimeDomain:
    """A small time domain used by most unit tests (the paper's 24 hours)."""
    return TimeDomain(0, 24)


@pytest.fixture
def running_example_database() -> Database:
    """A bare engine catalog loaded with the works/assign period tables."""
    return populate_database(Database())


@pytest.fixture
def running_example_period_db() -> PeriodDatabase:
    """The running example as a period K-database (logical model)."""
    database = PeriodDatabase(NATURAL, TIME_DOMAIN)
    database.create_relation(
        "works",
        ["name", "skill"],
        [
            (("Ann", "SP"), 3, 10, 1),
            (("Joe", "NS"), 8, 16, 1),
            (("Sam", "SP"), 8, 16, 1),
            (("Ann", "SP"), 18, 20, 1),
        ],
    )
    database.create_relation(
        "assign",
        ["mach", "req_skill"],
        [
            (("M1", "SP"), 3, 12, 1),
            (("M2", "SP"), 6, 14, 1),
            (("M3", "NS"), 3, 16, 1),
        ],
    )
    return database
