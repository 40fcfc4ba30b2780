"""The conformance sweeps: randomized plans x generated datasets x backends.

This is the acceptance gate of the conformance subsystem and the standing
safety net for every future scale/perf PR: hundreds of randomized cases,
each asserting ``snapshot(execute_rewritten(Q), t) == Q(snapshot(inputs, t))``
at **every** distinct time point of the inputs, on the memory and SQLite
backends, with the planner on and off.

Two sweeps cover complementary case sources:

* a hypothesis sweep (200 examples) drawing generator configurations --
  adversarial shapes included -- together with plans from the extended
  grammar of ``tests/strategies.py`` (nested set operations, split-backed
  distinct/difference, grouped temporal aggregation);
* a seeded grid over every interval profile at larger row counts, pinning
  the profiles the benchmarks rely on.

Both are marked ``conformance`` and deselected from tier-1; CI runs them as
a dedicated step (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra.expressions import Comparison, attr
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Union,
)
from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from repro.conformance import assert_conformant
from repro.datasets import INTERVAL_PROFILES, GeneratorConfig, generate_catalog

from tests.strategies import PROPERTY_DOMAIN, conformance_queries, generator_configs

pytestmark = pytest.mark.conformance


@settings(max_examples=200)
@given(config=generator_configs(), query=conformance_queries())
def test_randomized_plans_conform_on_generated_catalogs(config, query):
    """200 randomized plan/dataset cases, all backends, planner on and off.

    Every case certifies both execution paths a session can select -- the
    in-memory engine and SQLite -- at every input changepoint.
    """
    database = generate_catalog(config)
    assert_conformant(query, database, config.domain, backends=("memory", "sqlite"))


@settings(max_examples=60)
@given(config=generator_configs(), query=conformance_queries())
def test_randomized_plans_conform_under_ablation_modes(config, query):
    """The un-optimised rewrite variants of ``repro.baselines`` satisfy the same property."""
    database = generate_catalog(config)
    for rewriter_cls in (PerOperatorCoalesceRewriter, SplitThenAggregateRewriter):
        assert_conformant(
            query, database, config.domain, backends=("memory",), rewriter_cls=rewriter_cls
        )


def _profile_queries():
    normalised_r = Projection(
        RelationAccess("R"), ((attr("r_cat"), "cat"), (attr("r_val"), "val"))
    )
    normalised_s = Projection(
        RelationAccess("S"), ((attr("s_cat"), "cat"), (attr("s_val"), "val"))
    )
    return (
        Distinct(normalised_r),
        Difference(normalised_r, normalised_s),
        Union(Difference(normalised_s, normalised_r), normalised_r),
        Aggregation(
            Union(normalised_r, normalised_s),
            ("cat",),
            (
                AggregateSpec("count", None, "cnt"),
                AggregateSpec("sum", attr("val"), "total"),
            ),
        ),
        Aggregation(
            normalised_r, (), (AggregateSpec("max", attr("val"), "highest"),)
        ),
        Projection.of_attributes(
            Join(
                RelationAccess("R"),
                RelationAccess("S"),
                Comparison("=", attr("r_key"), attr("s_key")),
            ),
            "r_cat",
            "s_val",
        ),
    )


@pytest.mark.parametrize("profile", INTERVAL_PROFILES)
@pytest.mark.parametrize("seed", (1, 2))
def test_every_interval_profile_conforms_at_scale(profile, seed):
    """Larger seeded catalogs per profile, sampled changepoints."""
    config = GeneratorConfig(
        rows=60,
        domain_size=len(PROPERTY_DOMAIN) * 4,
        seed=seed,
        interval_profile=profile,
        duplicate_rate=0.2,
        null_rate=0.1,
        null_endpoint_rate=0.05,
        degenerate_rate=0.1,
    )
    database = generate_catalog(config)
    for query in _profile_queries():
        assert_conformant(
            query,
            database,
            config.domain,
            backends=("memory", "sqlite"),
            max_points=24,
        )
