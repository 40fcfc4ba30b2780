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
The set operators consolidate on codes only what arrives as columns (row
tuples keep the ``dict`` at every size, so a constant would time one route
twice): they read catalog tables, once with the result taken as rows and
once (``+c``) under a coalesce, which reads the forms they hand on -- the
ablation's split-based rewriting puts one above a difference or distinct,
REWR one above every union; a union alone does no work until its output is
read.  The monus rungs (``monus-diff``, ``monus-dist``) sweep the same
catalog tables as ``difference`` and ``distinct``, and their output is
already coalesced.  Two shapes, the two the
suite's workloads have: ``adhoc`` is ``adhoc_small``'s generator catalog
grown to N rows (string categories, 16 join keys, mixed interval profile, 64-point
domain), ``employee`` is Table 3's (int keys with ~5 rows each, year-long
intervals over two decades).  The route is forced by moving the module
constant, which nothing but this script and the tests may do; the table in
EXPERIMENTS.md ("The engine and its reference") is this script's output.

    PYTHONPATH=src python benchmarks/kernel_cutover.py --int-path [--sizes 32,128,255]

instead times, below the cutover, the scalar coalesce sweep
(:func:`repro.engine.sweeps.coalesce`) against ``coalesce_int_packed``, a
second path for all-ones, all-int inputs that sorts events packed into
single ints: 8 groups, best of 5 x 200 calls per route, both routes
alternated, sweep us / packed us per size (above 1 the packed path would be
faster).  The packed path lives here only as that yardstick.
"""

from __future__ import annotations

import argparse
import operator
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
from repro.engine import kernels, sweeps
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
    return {
        "join": join,
        "chain": CoalesceOperator(Projection(join, intersection)),
        "split": SplitOperator(relation(left), relation(right), ("key",)),
        "aggregate": TemporalAggregateOperator(
            relation(left + right),
            ("cat",),
            (AggregateSpec("count", None, "cnt"), AggregateSpec("sum", attr("val"), "total")),
        ),
        "minmax": TemporalAggregateOperator(
            relation(left + right),
            ("cat",),
            (AggregateSpec("min", attr("val"), "low"), AggregateSpec("max", attr("val"), "high")),
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


def best_ms(plan, cutover: int, repeats: int) -> float:
    kernels.KERNEL_CUTOVER = cutover
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        execute(plan, DATABASE)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def ladder(sizes: Sequence[int], rounds: int) -> None:
    shipped = kernels.KERNEL_CUTOVER
    print(f"scalar ms / kernel ms per operator (shipped cutover: {shipped} rows)")
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
                    for _ in range(rounds):
                        scalar = min(scalar, best_ms(built[operator], 10**9, repeats))
                        kernel = min(kernel, best_ms(built[operator], 0, repeats))
                    cells.append(f"{scalar / kernel:7.2f}")
                print(f"{shape:9s}{operator:11s}" + "".join(cells))
    finally:
        kernels.KERNEL_CUTOVER = shipped


def coalesce_int_packed(keys, begins, ends, counts):
    """The scalar coalesce over one key column, events packed into single ints.

    ``(gid * span + ts - lo) * 2 + end_bit`` sorts as a plain int instead of a
    tuple; the sweep settles each packed (group, time) run like
    :func:`repro.engine.sweeps.coalesce` and returns the same four lists.
    It applies only when every multiplicity is 1, every end point an ``int``
    and every interval non-degenerate -- the checks it paid for on every call
    are kept -- and returns ``None`` otherwise.
    """
    if set(map(type, begins)) != {int} or set(map(type, ends)) != {int}:
        return None
    if not all(count == 1 for count in counts) or any(map(operator.ge, begins, ends)):
        return None
    lo = min(begins)
    span = max(ends) - lo + 1
    ids: Dict = {}
    setdefault = ids.setdefault
    bases = [setdefault(key, len(ids)) * span - lo for key in keys]
    events = [(base + begin) << 1 for base, begin in zip(bases, begins)]
    events += [((base + end) << 1) | 1 for base, end in zip(bases, ends)]
    group_keys = list(ids)
    events.sort()
    out_keys: List = []
    out_begins: List = []
    out_ends: List = []
    out_counts: List = []
    current_gid = (events[0] >> 1) // span
    current_key = group_keys[current_gid]
    shift = current_gid * span - lo
    window = shift + lo + span
    open_since = open_count = run_delta = prev_ts = 0
    prev_pair = -1
    for code in events:
        pair = code >> 1
        if pair == prev_pair:
            run_delta += 1 - ((code & 1) << 1)
            continue
        if run_delta != 0:
            if open_count > 0:
                out_keys.append(current_key)
                out_begins.append(open_since)
                out_ends.append(prev_ts)
                out_counts.append(open_count)
            open_since = prev_ts
            open_count += run_delta
        if pair >= window:
            current_gid = pair // span
            current_key = group_keys[current_gid]
            shift = current_gid * span - lo
            window = shift + lo + span
            open_count = 0
        prev_pair = pair
        prev_ts = pair - shift
        run_delta = 1 - ((code & 1) << 1)
    if run_delta != 0 and open_count > 0:
        out_keys.append(current_key)
        out_begins.append(open_since)
        out_ends.append(prev_ts)
        out_counts.append(open_count)
    return [out_keys], out_begins, out_ends, out_counts


def int_path(sizes: Sequence[int], rounds: int = 5, calls: int = 200) -> None:
    print("scalar coalesce: sweep us / int-packed us per call (8 groups, all-ones counts)")
    for n in sizes:
        rng = random.Random(n)
        keys = [position % 8 for position in range(n)]
        begins = [rng.randrange(0, 64) for _ in range(n)]
        ends = [begin + rng.randrange(1, 9) for begin in begins]
        ones = [1] * n
        routes = {
            "sweep": lambda: sweeps.coalesce([keys], begins, ends, ones),
            "int": lambda: coalesce_int_packed(keys, begins, ends, ones),
        }
        assert routes["sweep"]() == routes["int"]()
        best = dict.fromkeys(routes, float("inf"))
        for _ in range(rounds):
            for name, route in routes.items():
                started = time.perf_counter()
                for _ in range(calls):
                    route()
                best[name] = min(best[name], (time.perf_counter() - started) / calls)
        print(
            f"{n:>6d} rows  sweep {best['sweep'] * 1e6:8.1f} us  int {best['int'] * 1e6:8.1f} us"
            f"  ratio {best['sweep'] / best['int']:5.2f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--int-path", action="store_true",
        help="time the scalar coalesce sweep against the integer-packed variant instead",
    )
    arguments = parser.parse_args()
    if arguments.int_path:
        int_path([int(size) for size in (arguments.sizes or "32,128,255").split(",")])
        return
    sizes = arguments.sizes or ",".join(map(str, SIZES))
    ladder([int(size) for size in sizes.split(",")], arguments.repeats)


if __name__ == "__main__":
    main()
