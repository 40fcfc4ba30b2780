"""Differential: remote execution is bag-equal to in-process execution.

For every configuration in {memory, sqlite} x {planner on, planner off},
one server and one local session are built over *identical* generated
catalogs (same :class:`~repro.datasets.generator.GeneratorConfig` seeds),
and a workload of fluent chains runs on both.  The remote rows must be a
bag-equal multiset of the local rows under the same schema -- proving the
wire (plan JSON out, row chunks back) is semantics-free.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import QueryServer, connect
from repro.datasets.generator import GeneratorConfig, generate_catalog

CONFIG = GeneratorConfig(
    rows=40,
    domain_size=24,
    seed=11,
    interval_profile="mixed",
    duplicate_rate=0.2,
    groups=3,
    values=6,
    keys=5,
)


def canonical(table, float_digits: int = 6) -> Counter:
    return Counter(
        tuple(round(v, float_digits) if isinstance(v, float) else v for v in row)
        for row in table.rows
    )


WORKLOAD = {
    "selection": lambda s: s.table("R").where("r_val > 2"),
    "projection": lambda s: s.table("R").select("r_key", "r_cat"),
    "distinct": lambda s: s.table("R").select("r_cat").distinct(),
    "grouped_agg": lambda s: s.table("R").group_by("r_cat").agg(
        cnt="count(*)", total="sum(r_val)"
    ),
    "ungrouped_agg": lambda s: s.table("S").agg(cnt="count(*)"),
    "join": lambda s: s.table("R").join(s.table("S"), on=[("r_key", "s_key")]),
    "union": lambda s: s.table("R")
    .select("r_key")
    .rename(r_key="k")
    .union(s.table("S").select("s_key").rename(s_key="k")),
    "difference": lambda s: s.table("R")
    .select("r_key")
    .rename(r_key="k")
    .difference(s.table("S").select("s_key").rename(s_key="k")),
}


@pytest.fixture(
    scope="module",
    params=[
        ("memory", True),
        ("memory", False),
        ("sqlite", True),
        ("sqlite", False),
    ],
    ids=lambda p: f"{p[0]}-planner_{'on' if p[1] else 'off'}",
)
def sessions(request):
    backend, planner = request.param
    server = QueryServer(
        connect(
            domain=(0, CONFIG.domain_size),
            database=generate_catalog(CONFIG),
            backend=backend,
            planner=planner,
        )
    )
    local = connect(
        domain=(0, CONFIG.domain_size),
        database=generate_catalog(CONFIG),
        backend=backend,
        planner=planner,
    )
    with server:
        remote = connect(server.url)
        yield remote, local
        remote.close()
    local.close()


@pytest.mark.parametrize("name", sorted(WORKLOAD))
def test_remote_bag_equal_to_local(sessions, name):
    remote, local = sessions
    build = WORKLOAD[name]
    remote_table = build(remote).table()
    local_table = build(local).table()
    assert remote_table.schema == local_table.schema
    assert canonical(remote_table) == canonical(local_table)


def test_decoded_relations_equal(sessions):
    remote, local = sessions
    chain = WORKLOAD["grouped_agg"]
    assert chain(remote).decoded() == chain(local).decoded()


def test_snapshot_parity_across_the_domain(sessions):
    remote, local = sessions
    chain = WORKLOAD["selection"]
    for point in (0, CONFIG.domain_size // 2, CONFIG.domain_size - 1):
        assert chain(remote).snapshot(point) == chain(local).snapshot(point)
