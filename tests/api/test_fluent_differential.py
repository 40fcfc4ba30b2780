"""Differential property: fluent chains == hand-built operator trees.

For randomized query shapes over the running-example catalog the suite
pins, per drawn case:

* **plan equality** -- the fluent chain compiles to *exactly* the operator
  tree a hand-written construction builds (structural ``==``), and
* **bag equality of results** -- executing the fluent relation on every
  configuration (memory and SQLite backends x planner on and off) returns
  the same bag of period rows as the hand-built tree through a bare,
  uncached :class:`QueryPipeline` (the reference path).

Together with the plan cache enabled in every fluent session here, this is
the acceptance property of the fluent-API PR: the new front door changes
how plans are *written*, never what they *are* or what they *return*.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algebra.expressions import Comparison, and_, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.api import Session, TemporalRelation
from repro.datasets.running_example import (
    ASSIGN_ROWS,
    TIME_DOMAIN,
    WORKS_ROWS,
    load_running_example,
)

#: Backend x planner configurations every case must agree on.
CONFIGURATIONS = tuple(
    (backend, planner) for backend in ("memory", "sqlite") for planner in (True, False)
)


@dataclass(frozen=True)
class Case:
    """One paired construction: the fluent chain and the manual tree."""

    label: str
    fluent: Callable[[Session], TemporalRelation]
    manual: Operator

    def __repr__(self) -> str:  # hypothesis shows this on failure
        return f"Case({self.label})"


WORKS = RelationAccess("works")
ASSIGN = RelationAccess("assign")


def _leaf_cases():
    return st.sampled_from(
        [
            Case("works", lambda s: s.table("works"), WORKS),
            Case("assign", lambda s: s.table("assign"), ASSIGN),
        ]
    )


_WORKS_PREDICATES = [
    ("skill = 'SP'", Comparison("=", attr("skill"), lit("SP"))),
    ("name != 'Ann'", Comparison("!=", attr("name"), lit("Ann"))),
    (
        "skill = 'SP' and name != 'Sam'",
        and_(
            Comparison("=", attr("skill"), lit("SP")),
            Comparison("!=", attr("name"), lit("Sam")),
        ),
    ),
]


def _where_cases():
    def build(params):
        text, expression = params
        return Case(
            f"works.where({text!r})",
            lambda s: s.table("works").where(text),
            Selection(WORKS, expression),
        )

    return st.sampled_from(_WORKS_PREDICATES).map(build)


def _join_cases():
    def with_filter(filtered):
        if filtered:
            fluent = lambda s: (  # noqa: E731
                s.table("works")
                .where("skill = 'SP'")
                .join(s.table("assign"), on="skill = req_skill")
                .select("name", "mach")
            )
            manual = Projection.of_attributes(
                Join(
                    Selection(WORKS, Comparison("=", attr("skill"), lit("SP"))),
                    ASSIGN,
                    Comparison("=", attr("skill"), attr("req_skill")),
                ),
                "name",
                "mach",
            )
        else:
            fluent = lambda s: (  # noqa: E731
                s.table("works")
                .join(s.table("assign"), on=[("skill", "req_skill")])
                .select("name", "mach")
            )
            manual = Projection.of_attributes(
                Join(WORKS, ASSIGN, Comparison("=", attr("skill"), attr("req_skill"))),
                "name",
                "mach",
            )
        return Case(f"join(filtered={filtered})", fluent, manual)

    return st.booleans().map(with_filter)


_REQUIRED = Rename(
    Projection.of_attributes(ASSIGN, "req_skill"), (("req_skill", "skill"),)
)
_AVAILABLE = Projection.of_attributes(WORKS, "skill")


def _required(s: Session) -> TemporalRelation:
    return s.table("assign").select("req_skill").rename(req_skill="skill")


def _available(s: Session) -> TemporalRelation:
    return s.table("works").select("skill")


def _set_operation_cases():
    return st.sampled_from(
        [
            Case(
                "union",
                lambda s: _required(s).union(_available(s)),
                Union(_REQUIRED, _AVAILABLE),
            ),
            Case(
                "difference",
                lambda s: _required(s).difference(_available(s)),
                Difference(_REQUIRED, _AVAILABLE),
            ),
            Case(
                "difference-flipped",
                lambda s: _available(s).difference(_required(s)),
                Difference(_AVAILABLE, _REQUIRED),
            ),
            Case(
                "distinct",
                lambda s: _available(s).distinct(),
                Distinct(_AVAILABLE),
            ),
            Case(
                "selected-difference",
                lambda s: _required(s)
                .difference(_available(s))
                .where("skill = 'SP'"),
                Selection(
                    Difference(_REQUIRED, _AVAILABLE),
                    Comparison("=", attr("skill"), lit("SP")),
                ),
            ),
        ]
    )


def _aggregation_cases():
    return st.sampled_from(
        [
            Case(
                "ungrouped-count",
                lambda s: s.table("works").where("skill = 'SP'").agg(cnt="count(*)"),
                Aggregation(
                    Selection(WORKS, Comparison("=", attr("skill"), lit("SP"))),
                    (),
                    (AggregateSpec("count", None, "cnt"),),
                ),
            ),
            Case(
                "grouped-count",
                lambda s: s.table("works").group_by("skill").agg(cnt="count(*)"),
                Aggregation(
                    WORKS, ("skill",), (AggregateSpec("count", None, "cnt"),)
                ),
            ),
            Case(
                "grouped-min-name",
                lambda s: s.table("works")
                .group_by("skill")
                .agg(first="min(name)", cnt="count(*)"),
                Aggregation(
                    WORKS,
                    ("skill",),
                    (
                        AggregateSpec("min", attr("name"), "first"),
                        AggregateSpec("count", None, "cnt"),
                    ),
                ),
            ),
            Case(
                "selection-above-aggregate",
                lambda s: s.table("works")
                .group_by("skill")
                .agg(cnt="count(*)")
                .where("cnt > 1"),
                Selection(
                    Aggregation(
                        WORKS, ("skill",), (AggregateSpec("count", None, "cnt"),)
                    ),
                    Comparison(">", attr("cnt"), lit(1)),
                ),
            ),
        ]
    )


def cases():
    return st.one_of(
        _leaf_cases(),
        _where_cases(),
        _join_cases(),
        _set_operation_cases(),
        _aggregation_cases(),
    )


def fresh_session(backend: str, planner: bool) -> Session:
    session = connect(domain=TIME_DOMAIN, backend=backend, planner=planner)
    session.load("works", ["name", "skill"], WORKS_ROWS)
    session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)
    return session


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_fluent_plan_equals_hand_built_tree(case):
    session = fresh_session("memory", planner=True)
    assert case.fluent(session).plan == case.manual


@settings(max_examples=20, deadline=None)
@given(case=cases())
def test_fluent_results_match_reference_on_every_configuration(case):
    # Reference: the hand-built tree through a bare, uncached pipeline.
    reference = Counter(load_running_example().execute(case.manual).rows)
    for backend, planner in CONFIGURATIONS:
        session = fresh_session(backend, planner)
        relation = case.fluent(session)
        # Execute twice: cold (fills the plan cache) and warm (hits it).
        cold = Counter(relation.rows())
        warm_statistics: dict = {}
        warm = Counter(relation.rows(warm_statistics))
        assert cold == reference, (case, backend, planner)
        assert warm == reference, (case, backend, planner)
        assert warm_statistics.get("plan_cache.hits") == 1
        assert "rewrite.invocations" not in warm_statistics
