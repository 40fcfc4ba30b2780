"""The delta-stream differential sweep: incremental views vs. full re-execution.

This is the acceptance gate of the incremental subsystem (the PR 4
conformance sweep, transposed to view maintenance): hypothesis generates
(catalog, query, delta stream) triples -- catalogs via the deterministic
synthetic generator, plans from the extended conformance grammar, streams
mixing inserts and bag deletes against both base relations -- and after
**every** applied delta asserts that the materialized view's contents
bag-equal a full re-execution of its plan, with the planner on and off.

Three grounding mechanisms compose:

* per-configuration, ``view.verify()`` re-executes the rewritten plan from
  scratch through the same pipeline and bag-compares against the
  incrementally maintained Z-set (catches every delta-rule bug that
  diverges from the engine);
* per-configuration, the view's rows are bag-compared with the *row
  reference* run of the same plan on the current catalog
  (``engine.execute(plan, executor="row")``: catches a bug shared between a
  delta rule and the engine kernel it reuses);
* across configurations, the two views' contents are bag-compared against
  each other (catches bugs confined to one planner mode).

Failures shrink: hypothesis minimizes the catalog config, the plan, and the
delta stream together, so a red run ends with a minimal witness stream in
the same spirit as the conformance harness's shrunk counterexamples.

The general grammar mostly builds views that are *one partition* (its join
drops the key it joined on, nested set operations mix differently keyed
leaves), so a second sweep draws only partitionable shapes and asserts every
view it builds found a key before replaying the stream under the same three
checks; the general sweep's partitioned share is printed, not asserted.

Marked ``incremental`` and deselected from tier-1; CI runs this as the
dedicated "Incremental view sweep" step.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.datasets import generate_catalog
from repro.engine import execute as engine_execute

from tests.strategies import conformance_queries, generator_configs, partitionable_queries

pytestmark = pytest.mark.incremental

#: The execution matrix every case runs under: planner on and off.
PLANNERS = (True, False)


@pytest.fixture(scope="module")
def builds(request):
    """Counts the general sweep's view builds; prints the partitioned share."""
    counts = Counter()
    yield counts
    with request.config.pluginmanager.getplugin("capturemanager").global_and_fixture_disabled():
        print(
            f"\ndelta-stream sweep: {counts['partitioned']} of {counts['views']} "
            "view builds of the general grammar found a partition key"
        )


# -- delta-stream strategies -------------------------------------------------------------


def _delta_rows(domain_size: int):
    """Rows insertable into either base relation (R and S share the shape).

    The value universe matches the generator's (``k*`` keys, ``g*``
    categories, small ints) so inserted rows join/group with generated ones;
    NULL data values, NULL endpoints and degenerate intervals are all
    reachable, mirroring the adversarial shapes of the conformance sweep.
    """
    key = st.sampled_from(["k0", "k1", "k2"])
    cat = st.sampled_from(["g0", "g1", "g2", None])
    val = st.sampled_from([0, 1, 2, 3, None])
    begin = st.integers(0, max(0, domain_size - 1))
    length = st.integers(0, domain_size)  # 0 => degenerate interval
    endpoint_null = st.sampled_from((False, False, False, True))

    def build(parts):
        k, c, v, b, n, null_end = parts
        end = min(domain_size, b + n)
        return (k, c, v, b, None if null_end else end)

    return st.tuples(key, cat, val, begin, length, endpoint_null).map(build)


def delta_streams(domain_size: int = 16, max_steps: int = 5):
    """Abstract delta steps: ``("insert", name, rows)`` / ``("delete", name, picks)``.

    Deletes carry *indices*, concretized against the evolving reference bag
    at replay time (see :func:`_concretize_delete`), so every generated
    stream is valid bag DML regardless of what the catalog held.
    """
    name = st.sampled_from(["R", "S"])
    insert = st.tuples(
        st.just("insert"),
        name,
        st.lists(_delta_rows(domain_size), min_size=1, max_size=3),
    )
    delete = st.tuples(
        st.just("delete"),
        name,
        st.lists(st.integers(0, 255), min_size=1, max_size=3),
    )
    return st.lists(st.one_of(insert, delete), min_size=1, max_size=max_steps)


def _concretize_delete(reference_rows, picks):
    """Turn abstract delete indices into concrete rows present in the bag.

    Distinct *positions* are selected (index modulo the current size), so a
    row value is requested at most as many times as copies exist -- always a
    valid bag delete.  Returns the picked rows and removes them from the
    reference list in place.
    """
    if not reference_rows:
        return []
    positions = sorted({index % len(reference_rows) for index in picks}, reverse=True)
    picked = [reference_rows[position] for position in positions]
    for position in positions:
        del reference_rows[position]
    return picked


# -- the differential sweep --------------------------------------------------------------


def _replay(config, query, stream, built):
    """After every delta, view == full re-execution == the row reference, planner on and off.

    ``built`` is called with each view right after registration.
    """
    sessions, views = [], []
    try:
        for planner in PLANNERS:
            session = connect(
                domain=config.domain,
                database=generate_catalog(config),
                planner=planner,
            )
            sessions.append(session)
            views.append(session.materialize(session.query(query), name="V"))
            built(views[-1])

        # The reference bag replays the stream once; both catalogs start
        # identical (generator determinism), so the concrete DML is shared.
        reference = {
            name: list(sessions[0].database.table(name).rows) for name in ("R", "S")
        }

        for step_index, (kind, name, payload) in enumerate(stream):
            if kind == "insert":
                rows = payload
                reference[name].extend(rows)
                for session in sessions:
                    session.insert(name, rows)
            else:
                rows = _concretize_delete(reference[name], payload)
                if not rows:
                    continue
                for session in sessions:
                    session.delete(name, rows)

            for planner, session, view in zip(PLANNERS, sessions, views):
                step = f"step {step_index} ({kind} {len(rows)} rows into {name})"
                assert view.verify(), (
                    f"{step}: view diverged from full re-execution with "
                    f"planner={planner}\n{view.explain()}"
                )
                reference_run = engine_execute(view.plan, session.database, executor="row")
                assert Counter(view.rows()) == Counter(reference_run.rows), (
                    f"{step}: view diverged from the row reference with "
                    f"planner={planner}\n{view.explain()}"
                )
            assert Counter(views[0].rows()) == Counter(views[1].rows()), (
                f"step {step_index}: view contents differ between planner on and off"
            )
    finally:
        for session in sessions:
            session.close()


@settings(max_examples=40, deadline=None)
@given(
    config=generator_configs(max_rows=6),
    query=conformance_queries(),
    stream=delta_streams(),
)
def test_view_bag_equals_full_reexecution_at_every_step(builds, config, query, stream):
    """The general grammar: whatever maintenance route each view's plan admits."""

    def built(view):
        builds["views"] += 1
        builds["partitioned"] += bool(view.partition_key)

    _replay(config, query, stream, built)


@settings(max_examples=40, deadline=None)
@given(
    config=generator_configs(max_rows=6),
    query=partitionable_queries(),
    stream=delta_streams(),
)
def test_partitioned_views_equal_reexecution_at_every_step(config, query, stream):
    """Key-preserving shapes only: every view must be maintained by partition."""

    def built(view):
        assert view.partition_key != (), f"no partition key found\n{view.explain()}"

    _replay(config, query, stream, built)


@settings(max_examples=15, deadline=None)
@given(
    config=generator_configs(max_rows=5),
    query=conformance_queries(),
    stream=delta_streams(max_steps=3),
)
def test_detached_deltas_match_catalog_dml(config, query, stream):
    """``view.apply(Delta(...))`` lands exactly where catalog DML would.

    One session feeds the view through catalog ``insert``/``delete`` (the
    observer path); a twin session applies the *same* signed batches through
    the detached ``apply`` entry point.  The two views must stay bag-equal
    at every step -- the transport must not change the semantics.  Deltas
    against relations the plan never reads are a catalog no-op but a
    detached-``apply`` error (the caller named a relation the view cannot
    use); both behaviours are pinned here.
    """
    from repro import Delta, IncrementalError

    catalog_fed = connect(domain=config.domain, database=generate_catalog(config))
    detached = connect(domain=config.domain, database=generate_catalog(config))
    try:
        view_dml = catalog_fed.materialize(catalog_fed.query(query), name="V")
        view_apply = detached.materialize(detached.query(query), name="V")
        reference = {
            name: list(catalog_fed.database.table(name).rows) for name in ("R", "S")
        }
        for kind, name, payload in stream:
            if kind == "insert":
                rows = payload
                reference[name].extend(rows)
                catalog_fed.insert(name, rows)
                delta = Delta.inserts(name, rows)
            else:
                rows = _concretize_delete(reference[name], payload)
                if not rows:
                    continue
                catalog_fed.delete(name, rows)
                delta = Delta.deletes(name, rows)
            if name in view_apply.base_relations:
                view_apply.apply([delta])
            else:
                with pytest.raises(IncrementalError):
                    view_apply.apply([delta])
            assert Counter(view_apply.rows()) == Counter(view_dml.rows())
            assert view_dml.verify()
    finally:
        catalog_fed.close()
        detached.close()
