"""Mutation smoke tests: the harness must catch deliberately broken rewrites.

Each mutant in :mod:`repro.conformance.mutations` reintroduces a documented
temporal-correctness bug (bag difference / duplicate elimination without
interval alignment, join periods combined with union instead of
intersection) or drops REWR's final coalesce, which leaves every snapshot
right but the result rows out of normal form.  For every mutant, the harness
has to produce a minimized
counterexample on a query exercising the broken rule -- on the running
example *and* on generated adversarial data -- while the pristine rewriter
passes the identical check.  If a mutant ever goes undetected, the safety
net itself is broken.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Comparison, attr
from repro.algebra.operators import (
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
)
from repro.conformance import MUTATIONS, check_conformance
from repro.datasets import GeneratorConfig, generate_catalog
from repro.datasets.running_example import (
    TIME_DOMAIN,
    populate_database,
    query_skillreq,
)
from repro.engine.catalog import Database

#: Per-mutant query that exercises exactly the broken rule.
TRIGGER_QUERIES = {
    "difference-without-split": query_skillreq(),
    "distinct-without-split": Distinct(
        Projection.of_attributes(RelationAccess("works"), "skill")
    ),
    "join-period-union": Projection.of_attributes(
        Join(
            RelationAccess("works"),
            RelationAccess("assign"),
            Comparison("=", attr("skill"), attr("req_skill")),
        ),
        "name",
        "mach",
    ),
    "no-final-coalesce": Projection.of_attributes(RelationAccess("works"), "skill"),
}

#: The mutant whose snapshots are all right: its witness is the normal form.
NORMAL_FORM_MUTANT = "no-final-coalesce"


def _assert_witness_kind(mutation, counterexample):
    if mutation == NORMAL_FORM_MUTANT:
        assert counterexample.normal_form, counterexample.describe()
        assert counterexample.expected == counterexample.actual == {}
        assert "result not in normal form" in counterexample.describe()
    else:
        assert not counterexample.normal_form
        assert counterexample.expected != counterexample.actual


def _generated_trigger_queries():
    """The same three shapes over the generated R/S catalog."""
    normalised_r = Projection(
        RelationAccess("R"), ((attr("r_cat"), "cat"), (attr("r_val"), "val"))
    )
    normalised_s = Projection(
        RelationAccess("S"), ((attr("s_cat"), "cat"), (attr("s_val"), "val"))
    )
    return {
        "difference-without-split": Difference(normalised_r, normalised_s),
        "distinct-without-split": Distinct(
            Projection.of_attributes(RelationAccess("R"), "r_cat")
        ),
        "join-period-union": Projection.of_attributes(
            Join(
                RelationAccess("R"),
                Rename(RelationAccess("S"), (("s_key", "r_key_2"),)),
                Comparison("=", attr("r_key"), attr("r_key_2")),
            ),
            "r_cat",
            "s_val",
        ),
        "no-final-coalesce": Projection.of_attributes(RelationAccess("R"), "r_cat"),
    }


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutant_is_caught_on_running_example_with_minimized_witness(mutation):
    database = populate_database(Database())
    query = TRIGGER_QUERIES[mutation]
    report = check_conformance(
        query, database, TIME_DOMAIN, rewriter_cls=MUTATIONS[mutation]
    )
    assert not report.ok, f"harness failed to catch mutation {mutation!r}"
    counterexample = report.counterexample
    # Minimization must get well below the full input (4 + 3 rows).
    total_rows = sum(len(rows) for rows in counterexample.tables.values())
    assert total_rows <= 3
    _assert_witness_kind(mutation, counterexample)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutant_is_caught_on_each_backend(mutation, backend):
    database = populate_database(Database())
    report = check_conformance(
        TRIGGER_QUERIES[mutation],
        database,
        TIME_DOMAIN,
        backends=(backend,),
        rewriter_cls=MUTATIONS[mutation],
    )
    assert not report.ok, f"harness failed to catch mutation {mutation!r} on {backend}"
    assert report.counterexample.backend == backend
    assert sum(len(rows) for rows in report.counterexample.tables.values()) <= 3
    _assert_witness_kind(mutation, report.counterexample)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_pristine_rewriter_passes_the_same_checks(mutation):
    database = populate_database(Database())
    report = check_conformance(TRIGGER_QUERIES[mutation], database, TIME_DOMAIN)
    assert report.ok


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutant_is_caught_on_generated_heavy_overlap_data(mutation):
    config = GeneratorConfig(
        rows=12,
        domain_size=16,
        seed=5,
        interval_profile="chained",
        duplicate_rate=0.3,
        groups=2,
        values=2,
        keys=2,
    )
    database = generate_catalog(config)
    query = _generated_trigger_queries()[mutation]
    report = check_conformance(
        query, database, config.domain, rewriter_cls=MUTATIONS[mutation]
    )
    assert not report.ok, f"harness failed to catch mutation {mutation!r}"
    assert report.counterexample.shrink_checks > 0
    _assert_witness_kind(mutation, report.counterexample)
