"""Where the whole-column kernels overtake the scalar sweeps (``KERNEL_CUTOVER``).

    PYTHONPATH=src python benchmarks/kernel_cutover.py [--sizes 32,256,4096] [--repeats 3]

times the operators :func:`repro.engine.kernels.worthwhile` routes -- keyed
interval join, split, ``count``/``sum`` and ``min``/``max`` temporal
aggregation, coalescing, REWR's join -> period intersection -> coalesce
chain (the typed columns handed from kernel to kernel), the monus sweep
REWR runs for temporal bag difference and distinct, and the non-temporal
bag difference, distinct and union -- on both routes at a ladder of input
sizes and prints,
per operator and input shape, the ratio scalar / kernel (above 1 the kernel
wins; ``--repeats`` is how often the two routes alternate per cell).  The
temporal operators read constant relations, so every run derives its typed
forms afresh: the worst case, a catalog table derives them once per version.
The aggregation rungs mark with ``d`` the sizes at which the kernel counted
its events on the packed ``(group, time)`` grid rather than sorting them
(``kernels.DENSE_GRID``): ``aggregate`` and ``minmax`` group by the four
``adhoc`` categories (a dense grid) or the nine ``employee`` departments
over twenty years (sparse up to some thousand rows), ``agg-wide`` by
``(key, val)``, many small groups on a wide grid.  ``agg+c`` is
``aggregate`` under REWR's coalesce: the aggregate joins its touching
segments of equal values itself (the coalesced encoding) and the coalesce
passes its rows through, so the rung times the aggregate with its merge.
The set operators consolidate on codes only what arrives as columns (row
tuples keep the ``dict`` at every size, so a constant would time one route
twice): they read catalog tables, once with the result taken as rows and
once (``+c``) under a coalesce, which reads the forms they hand on -- the
ablation's split-based rewriting puts one above a difference or distinct,
REWR one above every union; a union alone does no work until its output is
read.  The monus rungs (``monus-diff``, ``monus-dist``) sweep the same
catalog tables as ``difference`` and ``distinct``, and their output is
already coalesced; they and the ``coalesce`` rung run
:func:`repro.engine.sweeps.monus` on the scalar route and, on the kernel
route, :func:`repro.engine.kernels.monus_vectorized` -- the aggregation
rungs' kernel, ``count(*)`` over signed multiplicities.  Two shapes, the two the
suite's workloads have: ``adhoc`` is ``adhoc_small``'s generator catalog
grown to N rows (string categories, 16 join keys, mixed interval profile, 64-point
domain), ``employee`` is Table 3's (int keys with ~5 rows each, year-long
intervals over two decades).  The route is forced by moving the module
constant, which nothing but this script and the tests may do; the table in
EXPERIMENTS.md ("The engine and its reference") is this script's output.
"""

from __future__ import annotations

import argparse
import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.algebra.expressions import Comparison, FunctionCall, and_, attr
from repro.algebra.operators import (
    AggregateSpec,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Union,
)
from repro.datasets.generator import GeneratorConfig, generate_rows
from repro.engine import kernels
from repro.engine.catalog import Database
from repro.engine.executor import execute
from repro.rewriter.operators import (
    CoalesceOperator,
    MonusOperator,
    SplitOperator,
    TemporalAggregateOperator,
)

SIZES = (32, 64, 96, 128, 192, 256, 384, 512, 1024, 4096)
SCHEMA = ("key", "cat", "val", "t_begin", "t_end")
DATABASE = Database()


def adhoc_rows(n: int, prefix: str) -> List[Tuple]:
    config = GeneratorConfig(
        rows=n, domain_size=64, seed=23, interval_profile="mixed",
        duplicate_rate=0.1, groups=4, values=8, keys=16,
    )
    return list(generate_rows(config, prefix))


def employee_rows(n: int, prefix: str) -> List[Tuple]:
    rng = random.Random(f"{prefix}/{n}")
    rows = []
    for position in range(n):
        begin = rng.randrange(0, 7000)
        rows.append(
            (10001 + position // 5, f"d{position % 9:03d}", rng.randrange(40000, 90000),
             begin, begin + 365)
        )
    return rows


def relation(rows, prefix: str = ""):
    plan = ConstantRelation(SCHEMA, tuple(rows))
    if prefix:
        plan = Rename(plan, tuple((a, prefix + a) for a in SCHEMA))
    return plan


def plans(make: Callable[[int, str], List[Tuple]], n: int) -> Dict[str, object]:
    """One plan per kernel with ``n`` input rows in total."""
    left, right = make(n // 2, "l"), make(n - n // 2, "r")

    def stored(role: str, rows: List[Tuple]) -> RelationAccess:
        name = f"{make.__name__}_{role}{n}"
        DATABASE.create_table(name, SCHEMA, rows)
        return RelationAccess(name)

    # Half of ``mixed`` is the left's own rows: some keys cancel, some do not.
    mixed = left[::2] + right[: len(right) // 2]
    stored_left, stored_right = stored("l", left), stored("r", right)
    difference = Difference(stored_left, stored("m", mixed))
    distinct = Distinct(stored("d", left + mixed))
    overlap = and_(
        Comparison("=", attr("l_key"), attr("r_key")),
        and_(
            Comparison("<", attr("l_t_begin"), attr("r_t_end")),
            Comparison("<", attr("r_t_begin"), attr("l_t_end")),
        ),
    )
    join = Join(relation(left, "l_"), relation(right, "r_"), overlap)
    intersection = (
        (attr("l_key"), "key"),
        (attr("l_cat"), "cat"),
        (attr("r_val"), "val"),
        (FunctionCall("greatest", (attr("l_t_begin"), attr("r_t_begin"))), "t_begin"),
        (FunctionCall("least", (attr("l_t_end"), attr("r_t_end"))), "t_end"),
    )
    aggregate = TemporalAggregateOperator(
        relation(left + right),
        ("cat",),
        (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("val"), "total")),
    )
    return {
        "join": join,
        "chain": CoalesceOperator(Projection(join, intersection)),
        "split": SplitOperator(relation(left), relation(right), ("key",)),
        "aggregate": aggregate,
        # REWR's coalesce over the aggregate: a pass-through.
        "agg+c": CoalesceOperator(aggregate),
        "minmax": TemporalAggregateOperator(
            relation(left + right),
            ("cat",),
            (AggregateSpec("min", attr("val"), "low"), AggregateSpec("max", attr("val"), "high")),
        ),
        # Many small groups: a wide packed grid with few events per cell.
        "agg-wide": TemporalAggregateOperator(
            relation(left + right),
            ("key", "val"),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("val"), "total")),
        ),
        "coalesce": CoalesceOperator(relation(left + right)),
        "difference": difference,
        "difference+c": CoalesceOperator(difference),
        "distinct": distinct,
        "distinct+c": CoalesceOperator(distinct),
        "monus-diff": MonusOperator(difference.left, difference.right),
        "monus-dist": MonusOperator(distinct.child),
        "union+c": CoalesceOperator(Union(stored_left, stored_right)),
    }


def best_ms(plan, cutover: int, repeats: int, statistics: Dict[str, int]) -> float:
    kernels.KERNEL_CUTOVER = cutover
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        execute(plan, DATABASE, statistics)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def ladder(sizes: Sequence[int], rounds: int) -> None:
    shipped = kernels.KERNEL_CUTOVER
    print(f"scalar ms / kernel ms per operator (shipped cutover: {shipped} rows;")
    print("d: the aggregation kernel counted its events on the packed grid, else it sorted)")
    print(f"{'shape':9s}{'operator':11s}" + "".join(f"{n:>7d}" for n in sizes))
    try:
        for shape, make in (("adhoc", adhoc_rows), ("employee", employee_rows)):
            by_size = [plans(make, n) for n in sizes]
            for operator in by_size[0]:
                cells = []
                for n, built in zip(sizes, by_size):
                    repeats = max(5, 4000 // n)
                    # Alternate the routes: the shared box drifts between a
                    # fast and a slow state within one cell's measurement.
                    scalar = kernel = float("inf")
                    statistics: Dict[str, int] = {}
                    for _ in range(rounds):
                        scalar = min(scalar, best_ms(built[operator], 10**9, repeats, {}))
                        kernel = min(kernel, best_ms(built[operator], 0, repeats, statistics))
                    counted = "d" if "batch.aggregate_dense" in statistics else " "
                    cells.append(f"{scalar / kernel:6.2f}{counted}")
                print(f"{shape:9s}{operator:11s}" + "".join(cells))
    finally:
        kernels.KERNEL_CUTOVER = shipped


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=None)
    parser.add_argument("--repeats", type=int, default=3)
    arguments = parser.parse_args()
    sizes = arguments.sizes or ",".join(map(str, SIZES))
    ladder([int(size) for size in sizes.split(",")], arguments.repeats)


if __name__ == "__main__":
    main()
