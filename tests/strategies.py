"""Hypothesis strategies shared by the property-based tests.

The strategies generate small but structurally rich instances: annotation
values for each semiring, temporal K-elements with overlapping intervals,
period relations, and random RA^agg query plans over a fixed two-relation
schema.  Sizes are kept small because the oracle the properties compare
against (per-snapshot evaluation) is linear in ``|T|`` per example.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.algebra.expressions import BooleanOp, Comparison, and_, attr, lit
from repro.datasets.generator import INTERVAL_PROFILES, GeneratorConfig
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.logical_model.database import PeriodDatabase
from repro.planner import split_conjuncts
from repro.semirings.provenance import POLYNOMIAL, WHY_PROVENANCE, Polynomial
from repro.semirings.standard import BOOLEAN, NATURAL, SECURITY, TROPICAL
from repro.temporal.elements import TemporalElement
from repro.temporal.intervals import Interval
from repro.temporal.timedomain import TimeDomain

#: The time domain used by all property tests (small so oracles stay fast).
PROPERTY_DOMAIN = TimeDomain(0, 16)


# -- semiring values -------------------------------------------------------------------


def natural_values():
    return st.integers(min_value=0, max_value=6)


def boolean_values():
    return st.booleans()


def tropical_values():
    return st.one_of(st.just(float("inf")), st.integers(min_value=0, max_value=20))


def security_values():
    return st.sampled_from(SECURITY.LEVELS)


def why_values():
    witness = st.frozensets(st.sampled_from(["r1", "r2", "s1", "s2"]), max_size=2)
    return st.frozensets(witness, max_size=3)


def polynomial_values():
    variable = st.sampled_from(["x", "y", "z"])
    monomial = st.lists(st.tuples(variable, st.integers(1, 2)), max_size=2).map(tuple)
    return st.dictionaries(monomial, st.integers(1, 3), max_size=3).map(Polynomial)


#: (semiring, value strategy) pairs covering every shipped semiring.
SEMIRING_VALUE_STRATEGIES = [
    (NATURAL, natural_values()),
    (BOOLEAN, boolean_values()),
    (TROPICAL, tropical_values()),
    (SECURITY, security_values()),
    (WHY_PROVENANCE, why_values()),
    (POLYNOMIAL, polynomial_values()),
]

#: Semirings with a well-defined monus (and their value strategies).
MONUS_SEMIRING_VALUE_STRATEGIES = [
    (NATURAL, natural_values()),
    (BOOLEAN, boolean_values()),
    (SECURITY, security_values()),
]


# -- intervals and temporal elements -----------------------------------------------------


def intervals(domain: TimeDomain = PROPERTY_DOMAIN):
    def build(begin_and_length):
        begin, length = begin_and_length
        end = min(domain.max_point, begin + length)
        return Interval(begin, max(end, begin + 1))

    return st.tuples(
        st.integers(domain.min_point, domain.max_point - 1),
        st.integers(1, len(domain)),
    ).map(build)


def temporal_elements(semiring=NATURAL, values=None, domain: TimeDomain = PROPERTY_DOMAIN):
    """Temporal K-elements with up to four (possibly overlapping) intervals."""
    values = values if values is not None else natural_values()
    entries = st.lists(st.tuples(intervals(domain), values), max_size=4)
    return entries.map(lambda items: TemporalElement(semiring, domain, items))


# -- period databases and random queries ------------------------------------------------------


def period_facts(columns, max_rows: int = 6, domain: TimeDomain = PROPERTY_DOMAIN):
    """Facts (row, begin, end, multiplicity) for a relation with the given columns."""
    value = st.sampled_from(["a", "b", "c"])
    number = st.integers(0, 3)
    row = st.tuples(*([value] * (len(columns) - 1) + [number]))

    def build(parts):
        row_values, begin, length, multiplicity = parts
        end = min(domain.max_point, begin + length)
        return (row_values, begin, max(end, begin + 1), multiplicity)

    fact = st.tuples(
        row,
        st.integers(domain.min_point, domain.max_point - 1),
        st.integers(1, len(domain)),
        st.integers(1, 2),
    ).map(build)
    return st.lists(fact, max_size=max_rows)


#: Fixed schemas used by the random-query property tests.
SCHEMA_R = ("r_key", "r_cat", "r_val")
SCHEMA_S = ("s_key", "s_cat", "s_val")


def period_databases(domain: TimeDomain = PROPERTY_DOMAIN):
    """A two-relation period N-database with schemas SCHEMA_R / SCHEMA_S."""

    def build(facts_pair):
        facts_r, facts_s = facts_pair
        database = PeriodDatabase(NATURAL, domain)
        database.create_relation("R", SCHEMA_R, facts_r)
        database.create_relation("S", SCHEMA_S, facts_s)
        return database

    return st.tuples(period_facts(SCHEMA_R), period_facts(SCHEMA_S)).map(build)


def _leaf_queries():
    return st.sampled_from([RelationAccess("R"), RelationAccess("S")])


def _selection(child):
    predicate = st.sampled_from(
        [
            Comparison("=", attr("r_cat"), lit("a")),
            Comparison("!=", attr("r_cat"), lit("b")),
            Comparison(">", attr("r_val"), lit(1)),
            Comparison("<=", attr("r_val"), lit(2)),
        ]
    )
    return st.builds(Selection, st.just(child), predicate)


def queries(max_depth: int = 3):
    """Random RA^agg plans over the R/S schema.

    The grammar keeps schemas consistent: projections normalise both inputs
    to the (category, value) shape before set operations, joins always join
    R with S on the key attributes, and aggregations group by the category.
    """

    def project_r(child):
        return Projection(
            child, ((attr("r_cat"), "cat"), (attr("r_val"), "val"))
        )

    def project_s(child):
        return Projection(
            child, ((attr("s_cat"), "cat"), (attr("s_val"), "val"))
        )

    normalised_r = _selection(RelationAccess("R")).map(project_r) | st.just(
        project_r(RelationAccess("R"))
    )
    normalised_s = st.just(project_s(RelationAccess("S")))

    binary = st.one_of(
        st.builds(Union, normalised_r, normalised_s),
        st.builds(Difference, normalised_r, normalised_s),
        st.builds(Difference, normalised_s, normalised_r),
    )

    join = st.just(
        Projection(
            Join(
                RelationAccess("R"),
                RelationAccess("S"),
                Comparison("=", attr("r_key"), attr("s_key")),
            ),
            ((attr("r_cat"), "cat"), (attr("s_val"), "val")),
        )
    )

    aggregation = st.sampled_from(
        [
            Aggregation(
                project_r(RelationAccess("R")),
                ("cat",),
                (
                    AggregateSpec("count", None, "cnt"),
                    AggregateSpec("sum", attr("val"), "total"),
                ),
            ),
            Aggregation(
                project_r(RelationAccess("R")),
                (),
                (
                    AggregateSpec("count", None, "cnt"),
                    AggregateSpec("max", attr("val"), "highest"),
                ),
            ),
            Aggregation(
                Union(project_r(RelationAccess("R")), project_s(RelationAccess("S"))),
                (),
                (AggregateSpec("avg", attr("val"), "mean"),),
            ),
        ]
    )

    distinct = normalised_r.map(Distinct)

    return st.one_of(normalised_r, normalised_s, binary, join, aggregation, distinct)


# -- random snapshot queries over the running example (works / assign) -----------------------


def running_example_queries():
    """Random RA^agg snapshot plans over the running-example catalog.

    Used by the planner differential tests: rewritten (REWR) versions of
    these plans exercise every push-down rule -- selections above joins,
    renames with and without shadowing, bag difference over splits, grouped
    and ungrouped aggregation -- plus the executor's interval join (every
    rewritten join carries the overlap predicate).
    """
    works = RelationAccess("works")
    assign = RelationAccess("assign")

    works_selected = st.sampled_from(
        [
            works,
            Selection(works, Comparison("=", attr("skill"), lit("SP"))),
            Selection(works, Comparison("!=", attr("name"), lit("Ann"))),
        ]
    )
    assign_selected = st.sampled_from(
        [
            assign,
            Selection(assign, Comparison("=", attr("req_skill"), lit("NS"))),
        ]
    )

    def join_on_skill(pair):
        left, right = pair
        return Projection.of_attributes(
            Join(left, right, Comparison("=", attr("skill"), attr("req_skill"))),
            "name",
            "mach",
        )

    join = st.tuples(works_selected, assign_selected).map(join_on_skill)

    skills_available = Projection.of_attributes(works, "skill")
    skills_required = Rename(
        Projection.of_attributes(assign, "req_skill"), (("req_skill", "skill"),)
    )
    binary = st.sampled_from(
        [
            Union(skills_required, skills_available),
            Difference(skills_required, skills_available),
            Difference(skills_available, skills_required),
            Selection(
                Difference(skills_required, skills_available),
                Comparison("=", attr("skill"), lit("SP")),
            ),
        ]
    )

    aggregation = st.sampled_from(
        [
            Aggregation(
                Selection(works, Comparison("=", attr("skill"), lit("SP"))),
                (),
                (AggregateSpec("count", None, "cnt"),),
            ),
            Aggregation(works, ("skill",), (AggregateSpec("count", None, "cnt"),)),
            Selection(
                Aggregation(
                    works, ("skill",), (AggregateSpec("count", None, "cnt"),)
                ),
                Comparison("=", attr("skill"), lit("SP")),
            ),
        ]
    )

    distinct = st.sampled_from(
        [Distinct(skills_available), Distinct(skills_required)]
    )

    def select_above(query):
        # A selection above an arbitrary sub-plan: pushed through whatever
        # the sub-plan's rewritten form turns out to be.
        return Selection(query, Comparison("=", attr("skill"), lit("SP")))

    selected_binary = binary.map(select_above)

    return st.one_of(join, binary, selected_binary, aggregation, distinct)


# -- conformance sweeps: generator configs and a deeper plan grammar -------------------------


def generator_configs(max_rows: int = 10, domain: TimeDomain = PROPERTY_DOMAIN):
    """Random :class:`GeneratorConfig` instances, adversarial shapes included.

    Row counts and the time domain stay small because every conformance case
    re-executes the plan under four configurations and compares against a
    per-point oracle; the *shapes* (heavy-overlap chains, point intervals,
    NULL data and NULL end points, duplicates) are what the sweep varies.
    """
    assert domain.min_point == 0  # GeneratorConfig domains start at 0
    return st.builds(
        GeneratorConfig,
        rows=st.integers(0, max_rows),
        domain_size=st.just(len(domain)),
        seed=st.integers(0, 2**16),
        interval_profile=st.sampled_from(INTERVAL_PROFILES),
        duplicate_rate=st.sampled_from((0.0, 0.3)),
        null_rate=st.sampled_from((0.0, 0.25)),
        null_endpoint_rate=st.sampled_from((0.0, 0.15)),
        degenerate_rate=st.sampled_from((0.0, 0.2)),
        groups=st.integers(1, 3),
        values=st.integers(1, 4),
        keys=st.integers(1, 4),
    )


def _nested_set_operations(base, predicates):
    """Union / difference / distinct / selection stacked over ``base`` (same-shape plans)."""

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda lr: Union(*lr)),
            pairs.map(lambda lr: Difference(*lr)),
            children.map(Distinct),
            st.tuples(children, predicates).map(lambda cp: Selection(*cp)),
        )

    return st.recursive(base, extend, max_leaves=3)


def conformance_queries():
    """RA^agg plans for the conformance sweeps: deeper than :func:`queries`.

    Adds what the original grammar lacks: *nested* set operations (built
    recursively over the normalised ``(cat, val)`` shape), duplicate
    elimination and bag difference (both exercising the split operator) at
    arbitrary depth, and temporal aggregation **with grouping** over any
    sub-plan -- including aggregation above nested set operations.  The
    value universe of the predicates covers both the hypothesis databases
    (categories ``a``/``b``/``c``) and the generated catalogs (categories
    ``g0``/``g1``/...), so either data source yields selective plans.
    """

    def project_r(child):
        return Projection(child, ((attr("r_cat"), "cat"), (attr("r_val"), "val")))

    def project_s(child):
        return Projection(child, ((attr("s_cat"), "cat"), (attr("s_val"), "val")))

    selected_r = st.sampled_from(
        [
            RelationAccess("R"),
            Selection(RelationAccess("R"), Comparison(">", attr("r_val"), lit(1))),
            Selection(RelationAccess("R"), Comparison("!=", attr("r_cat"), lit("g0"))),
        ]
    ).map(project_r)
    join = st.just(
        Projection(
            Join(
                RelationAccess("R"),
                RelationAccess("S"),
                Comparison("=", attr("r_key"), attr("s_key")),
            ),
            ((attr("r_cat"), "cat"), (attr("s_val"), "val")),
        )
    )
    base = st.one_of(selected_r, st.just(project_s(RelationAccess("S"))), join)

    predicates = st.sampled_from(
        [
            Comparison("=", attr("cat"), lit("a")),
            Comparison("=", attr("cat"), lit("g0")),
            Comparison("!=", attr("cat"), lit("g1")),
            Comparison("<=", attr("val"), lit(2)),
            Comparison(">", attr("val"), lit(0)),
        ]
    )

    nested = _nested_set_operations(base, predicates)

    aggregate_specs = st.sampled_from(
        [
            (AggregateSpec("count", None, "cnt"),),
            (
                AggregateSpec("count", None, "cnt"),
                AggregateSpec("sum", attr("val"), "total"),
            ),
            (AggregateSpec("max", attr("val"), "highest"),),
            (AggregateSpec("min", attr("val"), "lowest"),),
        ]
    )
    grouped = st.tuples(nested, aggregate_specs).map(
        lambda qa: Aggregation(qa[0], ("cat",), qa[1])
    )
    ungrouped = st.tuples(nested, aggregate_specs).map(
        lambda qa: Aggregation(qa[0], (), qa[1])
    )
    selected_aggregate = nested.map(
        lambda q: Selection(
            Aggregation(q, ("cat",), (AggregateSpec("count", None, "cnt"),)),
            Comparison(">", attr("cnt"), lit(1)),
        )
    )

    return st.one_of(nested, grouped, ungrouped, selected_aggregate)


def partitionable_queries():
    """Plans whose views are partitioned: every operator keeps the join key.

    The shapes :func:`conformance_queries` mostly lacks -- its join drops the
    key it joined on, so a view over it is one partition.  Here every base
    is normalised to ``(key, cat, val)`` with the key first: a relation, a
    selection of one, or the equi-join on the key; set operations, duplicate
    elimination and selections are stacked over those (all key-preserving by
    position), and the top is the plan itself, a projection that keeps the
    key, or an aggregate grouped by it.
    """

    def keyed(relation, prefix):
        return Projection(
            relation,
            tuple((attr(f"{prefix}_{name}"), name) for name in ("key", "cat", "val")),
        )

    base = st.sampled_from(
        [
            keyed(RelationAccess("R"), "r"),
            keyed(RelationAccess("S"), "s"),
            keyed(Selection(RelationAccess("R"), Comparison(">", attr("r_val"), lit(1))), "r"),
            keyed(Selection(RelationAccess("S"), Comparison("!=", attr("s_cat"), lit("g0"))), "s"),
            Projection(
                Join(
                    RelationAccess("R"),
                    RelationAccess("S"),
                    Comparison("=", attr("r_key"), attr("s_key")),
                ),
                ((attr("s_key"), "key"), (attr("r_cat"), "cat"), (attr("s_val"), "val")),
            ),
        ]
    )
    predicates = st.sampled_from(
        [
            Comparison("=", attr("key"), lit("k1")),
            Comparison("!=", attr("cat"), lit("g1")),
            Comparison("<=", attr("val"), lit(2)),
        ]
    )

    nested = _nested_set_operations(base, predicates)
    aggregates = st.sampled_from(
        [
            (AggregateSpec("count", None, "cnt"),),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("val"), "total")),
            (AggregateSpec("max", attr("val"), "highest"),),
        ]
    )
    groupings = st.sampled_from([("key",), ("key", "cat"), ("cat", "key")])
    return st.one_of(
        nested,
        nested.map(lambda q: Projection.of_attributes(q, "cat", "key")),
        st.tuples(nested, groupings, aggregates).map(lambda qga: Aggregation(*qga)),
        nested.map(
            lambda q: Selection(
                Aggregation(q, ("key",), (AggregateSpec("count", None, "cnt"),)),
                Comparison(">", attr("cnt"), lit(1)),
            )
        ),
    )


# -- plan helpers ----------------------------------------------------------------------------


def without_interval_join(plan):
    """``plan`` with every join's overlap pattern hidden from the executors.

    Each strict comparison among a join's conjuncts is wrapped in a
    one-operand disjunction: the same filter (NULLs included), but no longer
    the bare ``a < b`` the executors read the interval pattern from.  Both
    then run the hash join on the equality conjuncts, or the nested loop
    when there are none: the strategies the sort-merge interval join is
    checked against.
    """
    children = [without_interval_join(child) for child in plan.children()]
    if children:
        plan = plan.with_children(*children)
    if isinstance(plan, Join) and plan.predicate is not None:
        conjuncts = [
            BooleanOp("or", (conjunct,))
            if isinstance(conjunct, Comparison) and conjunct.op in ("<", ">")
            else conjunct
            for conjunct in split_conjuncts(plan.predicate)
        ]
        plan = Join(plan.left, plan.right, and_(*conjuncts))
    return plan
