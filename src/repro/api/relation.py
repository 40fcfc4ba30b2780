"""Lazy temporal relations: the fluent algebra over the session pipeline.

A :class:`TemporalRelation` is an *unevaluated* snapshot query -- a logical
:class:`~repro.algebra.operators.Operator` tree plus the
:class:`~repro.api.session.Session` that can run it.  Every fluent method
returns a new relation wrapping a bigger tree; nothing touches the data
until a terminal method (:meth:`rows`, :meth:`decoded`, :meth:`pretty`,
:meth:`snapshot`, :meth:`check`, :meth:`explain`) executes the query
through the session's shared pipeline (REWR + planner + backend), hitting
the session's rewritten-plan cache on repeats.

The fluent methods compile 1:1 to the existing algebra, so a chain is
always *plan-equal* to the hand-built operator tree (the differential test
suite pins this)::

    session.table("works").where("skill = 'SP'").agg(cnt="count(*)")
    # == Aggregation(Selection(RelationAccess("works"), ...), (),
    #                (AggregateSpec("count", None, "cnt"),))
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..algebra.expressions import Attribute, Comparison, Expression, and_
from ..algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    Rename,
    Selection,
    Union as UnionAll,
)
from ..errors import FluentError
from ..rewriter.periodenc import period_decode, timeslice_table
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from .parser import as_expression, parse_expression

if TYPE_CHECKING:  # session imports relation; annotation only, no runtime cycle
    from ..execution import ExecutionPolicy
    from .session import Session

__all__ = ["FluentError", "TemporalRelation", "GroupedRelation"]

#: ``"func(argument)"`` aggregate shorthand, e.g. ``"count(*)"`` / ``"sum(val)"``.
_AGGREGATE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)\s*$", re.DOTALL)


def _aggregate_spec(alias: str, spec: Union[str, AggregateSpec, Expression]) -> AggregateSpec:
    """Turn ``alias="count(*)"`` / ``alias=AggregateSpec(...)`` into a spec."""
    if isinstance(spec, AggregateSpec):
        if spec.alias != alias:
            return AggregateSpec(spec.func, spec.argument, alias)
        return spec
    if isinstance(spec, str):
        match = _AGGREGATE_RE.match(spec)
        if match is None:
            raise FluentError(
                f"aggregate for {alias!r} must look like 'func(argument)' "
                f"(e.g. \"count(*)\", \"sum(val)\"), got {spec!r}"
            )
        func, argument_text = match.group(1).lower(), match.group(2).strip()
        argument: Optional[Expression]
        if argument_text == "*":
            if func != "count":
                raise FluentError(f"only count(*) takes '*', got {spec!r}")
            argument = None
        else:
            argument = parse_expression(argument_text)
        return AggregateSpec(func, argument, alias)
    raise FluentError(
        f"aggregate for {alias!r} must be a string or AggregateSpec, got {spec!r}"
    )


def _join_predicate(
    on: Union[None, str, Expression, Sequence[Any]],
) -> Optional[Expression]:
    """Normalise the ``join(on=...)`` argument to one predicate expression.

    Accepted shapes: ``None`` (cross join), an :class:`Expression`, a string
    (parsed), or a sequence of ``(left_attr, right_attr)`` pairs joined as
    an equality conjunction.
    """
    if on is None:
        return None
    if isinstance(on, (str, Expression)):
        return as_expression(on)
    pairs: List[Tuple[str, str]] = []
    for item in on:
        if (
            not isinstance(item, (tuple, list))
            or len(item) != 2
            or not all(isinstance(side, str) for side in item)
        ):
            raise FluentError(
                "join on= sequence must contain (left_attr, right_attr) string "
                f"pairs, got {item!r}"
            )
        pairs.append((item[0], item[1]))
    if not pairs:
        raise FluentError("join on= sequence is empty; pass on=None for a cross join")
    return and_(
        *(Comparison("=", Attribute(left), Attribute(right)) for left, right in pairs)
    )


class TemporalRelation:
    """A lazy snapshot query: a logical plan bound to a session.

    Instances are immutable; every method returns a new relation.  Build
    them through :meth:`Session.table` / :meth:`Session.load` /
    :meth:`Session.query`, not directly.
    """

    __slots__ = ("_session", "_plan", "_policy")

    def __init__(
        self,
        session: "Session",
        plan: Operator,
        policy: "Optional[ExecutionPolicy]" = None,
    ) -> None:
        self._session = session
        self._plan = plan
        self._policy = policy

    # -- introspection ----------------------------------------------------------------

    @property
    def plan(self) -> Operator:
        """The logical (pre-REWR) operator tree this relation evaluates."""
        return self._plan

    @property
    def session(self) -> "Session":
        return self._session

    def __repr__(self) -> str:
        return f"TemporalRelation({self._plan!r})"

    def _derive(self, plan: Operator) -> "TemporalRelation":
        return TemporalRelation(self._session, plan, self._policy)

    # -- fluent algebra ---------------------------------------------------------------

    def where(self, predicate: Union[str, Expression]) -> "TemporalRelation":
        """Keep rows satisfying the predicate (``sigma``).

        ``predicate`` is an expression tree or a string such as
        ``"skill = 'SP' and val > 2"``.
        """
        return self._derive(Selection(self._plan, as_expression(predicate)))

    def select(
        self,
        *columns: Union[str, Tuple[Union[str, Expression], str]],
        **named: Union[str, Expression],
    ) -> "TemporalRelation":
        """Project onto columns (duplicate-preserving ``Pi``).

        Positional arguments are attribute names kept under their own name,
        or ``(expression, name)`` pairs; keyword arguments add computed
        columns, e.g. ``select("name", pay="salary * 12")``.
        """
        pairs: List[Tuple[Expression, str]] = []
        for column in columns:
            if isinstance(column, str):
                pairs.append((Attribute(column), column))
            elif isinstance(column, tuple) and len(column) == 2:
                expression, name = column
                pairs.append((as_expression(expression), name))
            else:
                raise FluentError(
                    f"select column must be a name or (expression, name), got {column!r}"
                )
        for name, expression in named.items():
            pairs.append((as_expression(expression), name))
        if not pairs:
            raise FluentError("select needs at least one column")
        return self._derive(Projection(self._plan, tuple(pairs)))

    def rename(
        self, mapping: Optional[Dict[str, str]] = None, **renames: str
    ) -> "TemporalRelation":
        """Rename attributes (``rho``): ``rename(old="new")`` or a dict."""
        combined: Dict[str, str] = dict(mapping or {})
        combined.update(renames)
        if not combined:
            raise FluentError("rename needs at least one old='new' pair")
        return self._derive(Rename(self._plan, tuple(combined.items())))

    def join(
        self,
        other: "TemporalRelation",
        on: Union[None, str, Expression, Sequence[Any]] = None,
        overlaps: bool = True,
    ) -> "TemporalRelation":
        """Theta join under snapshot semantics.

        ``on`` is a predicate (expression or string), a sequence of
        ``(left_attr, right_attr)`` equality pairs, or ``None`` for a cross
        join.  Under snapshot semantics every join matches tuples snapshot
        by snapshot, so the rewrite realises it as an *interval-overlap*
        join whose result periods are the intersections -- that is what
        ``overlaps=True`` (the only supported value) states explicitly.
        Passing ``overlaps=False`` raises: a non-overlapping join of period
        relations has no snapshot meaning, and code ported from raw
        interval-join libraries should fail loudly here rather than get
        silently different semantics.
        """
        if not isinstance(other, TemporalRelation):
            raise FluentError(f"join expects another TemporalRelation, got {other!r}")
        if other._session is not self._session:
            raise FluentError("cannot join relations from different sessions")
        if not overlaps:
            raise FluentError(
                "overlaps=False is not snapshot-reducible: snapshot semantics "
                "always joins tuples whose validity periods overlap (the result "
                "period is the intersection)"
            )
        return self._derive(Join(self._plan, other._plan, _join_predicate(on)))

    def union(self, other: "TemporalRelation") -> "TemporalRelation":
        """Bag union (``UNION ALL``): per-snapshot multiplicities add up."""
        self._check_same_session(other, "union")
        return self._derive(UnionAll(self._plan, other._plan))

    def difference(self, other: "TemporalRelation") -> "TemporalRelation":
        """Bag difference (``EXCEPT ALL``): per-snapshot monus."""
        self._check_same_session(other, "difference")
        return self._derive(Difference(self._plan, other._plan))

    def distinct(self) -> "TemporalRelation":
        """Duplicate elimination (``SELECT DISTINCT``), snapshot by snapshot."""
        return self._derive(Distinct(self._plan))

    def group_by(self, *attributes: str) -> "GroupedRelation":
        """Start a grouped aggregation; finish with :meth:`GroupedRelation.agg`."""
        if not all(isinstance(a, str) for a in attributes):
            raise FluentError("group_by takes attribute names")
        return GroupedRelation(self, attributes)

    def agg(
        self, *specs: AggregateSpec, **aliases: Union[str, AggregateSpec]
    ) -> "TemporalRelation":
        """Aggregate the whole relation (no grouping).

        Under snapshot semantics an ungrouped aggregate produces a row for
        *every* snapshot -- including the gaps where the input is empty (the
        AG bug native systems exhibit).  Pass :class:`AggregateSpec` objects
        positionally or ``alias="func(argument)"`` keywords::

            works.agg(cnt="count(*)", top="max(salary)")
        """
        return GroupedRelation(self, ()).agg(*specs, **aliases)

    def with_policy(self, policy: "Optional[ExecutionPolicy]") -> "TemporalRelation":
        """Attach a per-query :class:`~repro.execution.ExecutionPolicy`.

        The policy overrides the session default for every terminal of the
        returned relation (and everything derived from it)::

            works.with_policy(ExecutionPolicy(timeout_seconds=1.0)).rows()

        Pass ``None`` to drop a previously attached policy and fall back to
        the session default.
        """
        from ..execution import ExecutionPolicy

        if policy is not None and not isinstance(policy, ExecutionPolicy):
            raise FluentError(
                f"with_policy expects an ExecutionPolicy or None, got {policy!r}"
            )
        return TemporalRelation(self._session, self._plan, policy)

    def _check_same_session(self, other: "TemporalRelation", verb: str) -> None:
        if not isinstance(other, TemporalRelation):
            raise FluentError(f"{verb} expects another TemporalRelation, got {other!r}")
        if other._session is not self._session:
            raise FluentError(f"cannot {verb} relations from different sessions")

    # -- terminal methods -------------------------------------------------------------

    def table(self, statistics: Optional[Dict[str, int]] = None):
        """Execute and return the period :class:`~repro.engine.table.Table`."""
        return self._session.execute(
            self._plan,
            statistics=statistics,
            policy=self._policy,
        )

    def rows(self, statistics: Optional[Dict[str, int]] = None) -> List[Tuple[Any, ...]]:
        """Execute and return the raw period rows (data values + begin/end)."""
        return self.table(statistics).rows

    def decoded(self, statistics: Optional[Dict[str, int]] = None):
        """Execute and decode (ENC^-1) into a period K-relation (N^T)."""
        return period_decode(self.table(statistics), PeriodSemiring(NATURAL, self._session.domain))

    def snapshot(self, point: int):
        """The non-temporal K-relation of the result rows valid at ``point``.

        By snapshot-reducibility this equals running the query over the
        timeslice of the inputs at ``point``.
        """
        self._session.domain.validate_point(point)
        return timeslice_table(self.table(), point)

    def pretty(self, limit: int = 20) -> str:
        """Execute and render the result as a small fixed-width table."""
        return self.table().pretty(limit)

    def check(self, **kwargs: Any):
        """Run the snapshot-conformance oracle on this one query.

        Every execution configuration (backends x planner on and off) is compared
        against the abstract-model oracle at every input changepoint; see
        :func:`repro.conformance.check_conformance`, whose keyword arguments
        pass through.  Returns a
        :class:`~repro.conformance.ConformanceReport`.
        """
        return self._session.check(self._plan, **kwargs)

    def explain(self) -> str:
        """The full pipeline, rendered: logical plan -> REWR -> planner -> execution.

        Shows the original operator tree, the rewritten plan before and
        after the planner, the ``planner.*`` rules that fired, the
        ``join_strategy.*`` choices the executor made, and the plan-cache
        outcome.  The query *is executed once* (on the session's backend) to
        observe the executor's counters.
        """
        return self._session.call("explain", plan=self._plan)


class GroupedRelation:
    """The intermediate ``relation.group_by(...)`` stage; finish with :meth:`agg`."""

    __slots__ = ("_relation", "_attributes")

    def __init__(self, relation: TemporalRelation, attributes: Tuple[str, ...]) -> None:
        self._relation = relation
        self._attributes = tuple(attributes)

    def agg(
        self, *specs: AggregateSpec, **aliases: Union[str, AggregateSpec]
    ) -> TemporalRelation:
        """Apply aggregation functions per group (and per snapshot)::

            works.group_by("skill").agg(cnt="count(*)")
        """
        collected: List[AggregateSpec] = []
        for spec in specs:
            if not isinstance(spec, AggregateSpec):
                raise FluentError(
                    f"positional aggregates must be AggregateSpec, got {spec!r}"
                )
            collected.append(spec)
        for alias, spec in aliases.items():
            collected.append(_aggregate_spec(alias, spec))
        if not collected:
            raise FluentError("agg needs at least one aggregate")
        return self._relation._derive(
            Aggregation(self._relation.plan, self._attributes, tuple(collected))
        )

    def __repr__(self) -> str:
        groups = ", ".join(self._attributes) or "()"
        return f"GroupedRelation(group by {groups})"
