"""Seeded fault injection for the execution layer.

The middleware deployment model of the paper -- rewritten queries running
on a stock host DBMS -- has to live with that host failing: transient lock
contention, slow statements, outright outages.  This module provides the
testing side of the fault-tolerance layer: a deterministic
:class:`FaultSchedule` of failure actions and a wrapping
:class:`FaultInjectingBackend` that replays the schedule against any real
:class:`~repro.execution.ExecutionBackend`.

The conformance suite drives it end to end: with an
:class:`~repro.execution.ExecutionPolicy` whose retry budget covers the
injected transients, results after recovery must be bag-equal to the
fault-free execution -- and the schedule's :attr:`~FaultSchedule.injected`
counters must match what the policy's statistics report.

Everything is seeded and replayable: a schedule built with
:meth:`FaultSchedule.from_seed` injects the same faults in the same order
on every run.
"""

from __future__ import annotations

import copy
import random
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra.operators import Operator
from .engine.catalog import Database
from .engine.table import Table
from .errors import BackendError, BackendUnavailableError
from .execution import (
    ExecutionBackend,
    QueryLimits,
    resolve_backend,
)

__all__ = ["FaultSchedule", "FaultInjectingBackend", "FAULT_KINDS"]

#: The action kinds a schedule may contain.
#:
#: * ``"ok"`` -- pass the call through untouched;
#: * ``"transient"`` -- raise a retryable :class:`~repro.errors.BackendError`
#:   *before* touching the inner backend (a lock conflict, say);
#: * ``"outage"`` -- raise :class:`~repro.errors.BackendUnavailableError`
#:   (the host is down; retryable, and the canonical failover trigger);
#: * ``"hard"`` -- raise a *permanent* :class:`~repro.errors.BackendError`
#:   (retries cannot help; only a fallback backend can);
#: * ``("delay", seconds)`` -- sleep, then pass the call through (slow host;
#:   trips a configured deadline without ever blowing past it by more than
#:   one small sleep chunk).
FAULT_KINDS = ("ok", "transient", "outage", "hard", "delay")

Action = Union[str, Tuple[str, float]]


class FaultSchedule:
    """A deterministic sequence of fault actions, one per ``execute`` call.

    Once the scripted actions are exhausted the backend behaves healthy
    (``"ok"`` forever), so a retry budget covering the scripted transients
    always recovers.  :attr:`injected` counts what actually fired, keyed by
    kind -- the assertion anchor for fault-injection tests.
    """

    def __init__(self, actions: Sequence[Action]) -> None:
        self.actions: List[Action] = [self._validate(a) for a in actions]
        self.position = 0
        self.injected: Counter = Counter()

    @staticmethod
    def _validate(action: Action) -> Action:
        if isinstance(action, str):
            if action not in ("ok", "transient", "outage", "hard"):
                raise ValueError(f"unknown fault action {action!r}")
            return action
        if (
            isinstance(action, tuple)
            and len(action) == 2
            and action[0] == "delay"
            and isinstance(action[1], (int, float))
            and action[1] >= 0
        ):
            return ("delay", float(action[1]))
        raise ValueError(f"unknown fault action {action!r}")

    @classmethod
    def from_seed(
        cls,
        seed: int,
        length: int = 20,
        transient_rate: float = 0.3,
        outage_rate: float = 0.0,
        hard_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.01,
    ) -> "FaultSchedule":
        """A replayable random schedule: same seed, same faults, same order."""
        rng = random.Random(seed)
        actions: List[Action] = []
        for _ in range(length):
            draw = rng.random()
            if draw < transient_rate:
                actions.append("transient")
            elif draw < transient_rate + outage_rate:
                actions.append("outage")
            elif draw < transient_rate + outage_rate + hard_rate:
                actions.append("hard")
            elif draw < transient_rate + outage_rate + hard_rate + delay_rate:
                actions.append(("delay", delay_seconds))
            else:
                actions.append("ok")
        return cls(actions)

    def next_action(self) -> Action:
        """The action for the next ``execute`` call (``"ok"`` once exhausted)."""
        if self.position < len(self.actions):
            action = self.actions[self.position]
            self.position += 1
        else:
            action = "ok"
        kind = action if isinstance(action, str) else action[0]
        self.injected[kind] += 1
        return action

    def scripted_counts(self) -> Counter:
        """What the script *would* inject if every action were consumed."""
        counts: Counter = Counter()
        for action in self.actions:
            counts[action if isinstance(action, str) else action[0]] += 1
        return counts

    def reset(self) -> None:
        """Rewind to the first action and clear the injected counters."""
        self.position = 0
        self.injected.clear()

    def __repr__(self) -> str:
        return (
            f"FaultSchedule({len(self.actions)} actions, "
            f"position={self.position}, injected={dict(self.injected)})"
        )


class FaultInjectingBackend:
    """An :class:`~repro.execution.ExecutionBackend` wrapping a real one.

    Each ``execute`` call consumes one action from the schedule *before*
    delegating to the inner backend, so injected failures never corrupt
    state: a retried call sees the unchanged catalog.  Works anywhere a
    backend does -- ``connect(backend=FaultInjectingBackend(...))``, the
    conformance harness's ``backends=`` list, or a policy's
    ``fallback_backend``.
    """

    def __init__(
        self,
        inner: "str | ExecutionBackend",
        schedule: FaultSchedule,
    ) -> None:
        resolved = resolve_backend(inner)
        if getattr(resolved, "optimize", False):
            # The pipeline hands over plans it already planned (or chose not
            # to); the inner backend must not re-run the planner behind the
            # wrapper's back.  Flip the flag on a copy -- the caller's
            # instance keeps its own setting.
            resolved = copy.copy(resolved)
            resolved.optimize = False
        self.inner = resolved
        self.schedule = schedule
        self.name = f"fault({resolved.name})"
        # The pipeline treats the wrapper as the backend; it owns planning.
        self.optimize = False

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        action = self.schedule.next_action()
        if action == "transient":
            raise BackendError(
                "injected transient fault (e.g. database is locked)",
                transient=True,
            )
        if action == "outage":
            raise BackendUnavailableError("injected backend outage")
        if action == "hard":
            raise BackendError("injected permanent backend failure")
        if isinstance(action, tuple):
            self._sleep(action[1], limits)
        return self.inner.execute(plan, database, statistics, limits=limits)

    @staticmethod
    def _sleep(seconds: float, limits: Optional[QueryLimits]) -> None:
        """Sleep in small chunks so a deadline trips promptly, not after."""
        deadline = limits.deadline if limits is not None else None
        if deadline is None:
            time.sleep(seconds)
            return
        until = time.monotonic() + seconds
        while True:
            deadline.check()
            remaining = until - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, max(deadline.remaining, 0.0), 0.01))

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()

    def __repr__(self) -> str:
        return f"FaultInjectingBackend({self.inner!r}, {self.schedule!r})"
