"""The snapshot-conformance harness, driven through the fluent API.

Three acts:

1. certify the paper's running-example queries with one chained call --
   ``relation.check()`` compares every execution configuration
   (memory/SQLite backend, planner on/off) against the abstract-model
   snapshot oracle at every changepoint;
2. generate an adversarial synthetic catalog (heavy overlap, duplicates,
   NULL data values, NULL/degenerate periods), attach a session to it and
   certify a grouped temporal aggregation over it;
3. break a rewrite rule on purpose and watch the harness catch it with a
   *minimized* counterexample -- the smallest input that still shows the
   bug, the failing time point, and both result relations.

Run from the repository root::

    PYTHONPATH=src python examples/conformance_demo.py
"""

from repro import connect
from repro.conformance.mutations import BrokenDistinctRewriter
from repro.datasets import GeneratorConfig, generate_catalog
from repro.datasets.running_example import ASSIGN_ROWS, TIME_DOMAIN, WORKS_ROWS

# -- Act 1: the running example conforms everywhere ---------------------------------

session = connect(domain=TIME_DOMAIN)
works = session.load("works", ["name", "skill"], WORKS_ROWS)
assign = session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)

onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
skillreq = (
    assign.select("req_skill")
    .rename(req_skill="skill")
    .difference(works.select("skill"))
)
for name, relation in (("Qonduty", onduty), ("Qskillreq", skillreq)):
    report = relation.check()
    report.raise_if_failed()
    print(
        f"{name}: {report.checks} checks "
        f"({len(report.configurations)} configurations x "
        f"{len(report.points)} changepoints) -- all conform"
    )

# -- Act 2: adversarial generated data ----------------------------------------------

config = GeneratorConfig(
    rows=40,
    domain_size=32,
    seed=2024,
    interval_profile="chained",   # heavy-overlap chains
    duplicate_rate=0.25,          # per-snapshot multiplicities
    null_rate=0.2,                # NULL data values
    null_endpoint_rate=0.1,       # periods that hold at no snapshot
    degenerate_rate=0.1,          # zero-length periods
)
generated = connect(domain=config.domain, database=generate_catalog(config))
aggregation = (
    generated.table("R")
    .select(cat="r_cat", val="r_val")
    .group_by("cat")
    .agg(cnt="count(*)", total="sum(val)")
)
report = aggregation.check()
report.raise_if_failed()
print(
    f"generated catalog (profile={config.interval_profile!r}): "
    f"{report.checks} checks -- all conform"
)

# -- Act 3: a broken rewrite rule is caught and minimized ---------------------------

distinct_skills = works.select("skill").distinct()
broken = distinct_skills.check(rewriter_cls=BrokenDistinctRewriter)
assert not broken.ok
print("\nmutated rewriter (DISTINCT without interval alignment) is caught:\n")
print(broken.counterexample.describe())
