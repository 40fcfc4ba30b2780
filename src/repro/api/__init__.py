"""repro.api: the fluent session front door.

``connect()`` opens a :class:`Session` over a time domain; sessions hand
out lazy :class:`TemporalRelation` objects whose fluent methods (``where``,
``select``, ``join``, ``group_by(...).agg(...)``, ...) compile 1:1 to the
logical algebra of :mod:`repro.algebra` and execute -- on the first
terminal call -- through the shared snapshot pipeline: REWR, the
schema-aware planner, the chosen backend, and a rewritten-plan cache keyed
by structural query hashes.

>>> from repro.api import connect
>>> session = connect("memory://?domain=0:24")
>>> works = session.load("works", ["name", "skill"], [
...     ("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16),
...     ("Sam", "SP", 8, 16), ("Ann", "SP", 18, 20),
... ])
>>> sorted(works.where("skill = 'SP'").agg(cnt="count(*)").rows())[:2]
[(0, 0, 3), (0, 16, 18)]

Everything here is a thin layer: the plans it builds are exactly the
operator trees the rest of the library consumes, so relations interoperate
freely with hand-built queries (:meth:`Session.query`) and the conformance
harness (:meth:`TemporalRelation.check`).

There is one :class:`Session` class for every DSN.  What it can do is the
verb table of :mod:`repro.server.verbs`; an in-process session runs a verb
as a direct call on its pipeline, a ``repro://`` one as a frame exchange.
"""

from .parser import ExpressionSyntaxError, as_expression, parse_expression
from .relation import FluentError, GroupedRelation, TemporalRelation
from .session import Session, connect

__all__ = [
    "connect",
    "Session",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "ExpressionSyntaxError",
    "parse_expression",
    "as_expression",
]
