"""Snapshot-conformance checking: the repo's standing correctness safety net.

The paper's central claim is snapshot-reducibility: executing a rewritten
period-encoded query and slicing the result at any time point must equal
executing the original non-temporal query over the snapshot of the inputs.
This package enforces that claim systematically:

* :mod:`repro.conformance.oracle` -- the per-point snapshot oracle over
  physical period tables, the normal-form check of a result, and the
  enumeration (or seeded sampling) of the distinct time points at which
  inputs can change;
* :mod:`repro.conformance.harness` -- :func:`check_conformance` /
  :func:`assert_conformant`, which slice the result rows of every execution
  configuration (memory and SQLite backends, planner on and off) at every
  changepoint, compare with the oracle, check the rows' normal form, and
  shrink any violation to a minimized :class:`Counterexample`;
* :mod:`repro.conformance.mutations` -- deliberately broken rewrite rules
  proving that the harness actually catches the bug classes it exists for.

Randomized sweeps over generated datasets
(:mod:`repro.datasets.generator`) and extended plan strategies live in
``tests/conformance/``; CI runs them as a dedicated step.
"""

from .harness import (
    ConformanceError,
    ConformanceReport,
    Counterexample,
    assert_conformant,
    check_conformance,
)
from .oracle import distinct_time_points, oracle_at, referenced_tables
from .mutations import MUTATIONS

__all__ = [
    "ConformanceError",
    "ConformanceReport",
    "Counterexample",
    "assert_conformant",
    "check_conformance",
    "distinct_time_points",
    "oracle_at",
    "referenced_tables",
    "MUTATIONS",
]
