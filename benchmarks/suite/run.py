"""The repo's benchmark: one command, five workloads, end-to-end and per-layer metrics.

    python benchmarks/suite/run.py --seed N [--workload NAME] [--trace] [--out DIR] [--repeat K]

generates inputs from the seed, runs the workloads, checks the results and
prints every metric by name with its unit.  ``--trace`` re-runs each
operation as explicit calls into the layers of ``src/repro`` (spans are
written to ``trace-<workload>.json``) and runs the per-layer probes; the
end-to-end metrics always come from the untraced run.  Names, units,
directions and regression bounds are fixed in ``BENCHMARK.json`` at the
repo root; see ``README.md`` here for why each workload exists.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any wrong result,
exception or refusal counts in ``failed`` and makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

try:
    import probes  # noqa: E402 - needs the path set up above
    from harness import Checks, Op, Samples, fastest, percentile  # noqa: E402
    from spans import SpanRecorder, layer_shares, write_trace  # noqa: E402
    from workloads import Workload, registry  # noqa: E402
except ModuleNotFoundError as error:
    # A checkout without src/ (or without the suite's own files) has nothing
    # to measure: no result line, non-zero exit.
    raise SystemExit(f"run.py: cannot import the system under test or the suite: {error}")

#: Set-ups per untraced run: at least three, and cheap ones are repeated
#: while they fit in this many seconds, so that a 35 ms set-up samples the
#: machine for as long as a 1 s one.  ``setup_s`` is the fastest of them
#: (see ``harness.fastest``).
SETUP_REPEATS = 3
SETUP_BUDGET_SECONDS = 1.5
#: Layers whose self-time share of the traced operations is reported.
SHARE_LAYERS = ("api", "rewriter", "planner", "engine", "backends", "incremental", "client", "server")
RECORD_PREFIX = "record: "

Measured = Dict[str, Tuple[float, int]]  # metric name -> (value, sample count)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its (waited-for) children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metadata(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "scales": workload.scales(),
        "classes": workload.classes,
    }


def per_name_detail(samples: Samples) -> Dict[str, Any]:
    """Per query name: fastest and median latency, sample count."""
    return {
        name: {"ms": fastest(values) * 1e3, "p50_ms": median(values) * 1e3, "n": len(values)}
        for name, values in sorted(samples.by(samples.name).items())
    }


def latency_detail(samples: Samples) -> Dict[str, Any]:
    """What the end-to-end metrics leave out: per class, per query, medians, blocks."""
    per_class = {}
    for cls in sorted(set(samples.cls)):
        seconds_per_op, sampled = samples.class_latency(cls)
        per_class[cls] = {"ms": seconds_per_op * 1e3, "n": sampled}
    return {
        "per_class": per_class,
        "per_name": per_name_detail(samples),
        "blocks_per_client": [len(rates) for rates in samples.block_rates],
        "block_rate_p50": sum(median(rates) for rates in samples.block_rates if rates),
        "timed_seconds": samples.wall_seconds,
        "ops_per_wall_second": samples.completed / samples.wall_seconds,
    }


# -- the untraced run: end-to-end metrics --------------------------------------------------


def run_untraced(factory: Any, seed: int, seconds: float, toy: bool) -> Dict[str, Any]:
    setups: List[float] = []
    checks = Checks()
    while True:
        workload: Workload = factory(seed, toy)
        try:
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            enough = len(setups) >= SETUP_REPEATS and sum(setups) >= SETUP_BUDGET_SECONDS
            if not (enough or toy):
                continue
            gc.collect()
            workload.conformance(checks)
            workload.verify(checks)
            samples, _ = workload.run(seconds, traced=False)
            workload.verify(checks)
            meta = metadata(workload, seed, seconds)
            break
        finally:
            workload.teardown()

    if not samples.completed:
        raise RuntimeError(f"no operation completed; first failure: {samples.first_failure}")
    count = samples.completed
    measured: Measured = {
        "setup_s": (fastest(setups), len(setups)),
        "ops_per_s": (samples.ops_per_second, count),
        "op_ms": (samples.op_latency() * 1e3, count),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    for slot, cls in workload.classes.items():
        seconds_per_op, sampled = samples.class_latency(cls)
        measured[f"class_{slot}_ms"] = (seconds_per_op * 1e3, sampled)
    return {
        "measured": measured,
        "samples": samples,
        "checks": checks,
        "meta": meta,
        "detail": latency_detail(samples),
    }


# -- the traced run: per-layer metrics -----------------------------------------------------


def run_traced(
    factory: Any, seed: int, seconds: float, toy: bool, out: Optional[str]
) -> Dict[str, Any]:
    workload: Workload = factory(seed, toy)
    checks = Checks()
    try:
        started = time.perf_counter()
        workload.setup()
        setup_seconds = time.perf_counter() - started
        gc.collect()
        workload.verify(checks)
        # Untraced and traced phases alternate, so that both see the same
        # states of the machine: the untraced per-op time is the base of the
        # tracing overhead, its cache counters are the hit ratio.
        plain, traced = Samples(), Samples()
        recorders: List[SpanRecorder] = []
        hits = misses = 0
        for _ in range(2):
            before = workload.session.cache_info()
            phase, _ = workload.run(seconds / 8, traced=False)
            after = workload.session.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            plain.merge(phase)
            phase, phase_recorders = workload.run(seconds / 4, traced=True)
            traced.merge(phase)
            recorders += phase_recorders
        faithful_decomposition(workload, checks)
        workload.verify(checks)
        meta = metadata(workload, seed, seconds)
        material = workload.material()
    finally:
        # Before the probes: they start a server of their own, and must not
        # share the processors with this workload's.
        workload.teardown()

    measured = probes.run_all(material, max(0.05, seconds / 10), checks, workload.reference)
    measured["rewriter.plan_cache_hit_ratio"] = (hits / max(1, hits + misses), hits + misses)
    measured["rewriter.plan_cache_size"] = (after.size, 1)
    measured["datasets.generate_s"] = (workload.generate_seconds, 1)
    # Median and tail of the untraced phase: what a user saw in this run, too
    # unsteady on a shared box to carry a regression bound (harness.fastest).
    measured["latency.op_p50_ms"] = (median(plain.seconds) * 1e3, plain.completed)
    measured["latency.op_p95_ms"] = (percentile(plain.seconds, 0.95) * 1e3, plain.completed)

    shares = layer_shares(recorders)
    for layer in SHARE_LAYERS:
        measured[f"share.{layer}"] = (shares["*"].get(layer, 0.0), traced.completed)
    coverage = 1.0 - shares["*"].get("op", 0.0)
    measured["trace.child_coverage"] = (coverage, traced.completed)
    measured["trace.overhead_ratio"] = (traced.op_latency() / plain.op_latency(), traced.completed)
    # A decomposition that leaves a tenth of the operation unexplained is
    # not a decomposition.
    checks.expect(coverage >= 0.9, f"child spans cover {coverage:.3f} of the op spans (< 0.9)")

    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_trace(
            os.path.join(out, f"trace-{workload.name}.json"),
            {"workload": workload.name, "seed": seed, "setup_seconds": setup_seconds},
            recorders,
        )
    samples = Samples()
    samples.merge(plain)
    samples.merge(traced)
    return {
        "measured": measured,
        "samples": samples,
        "checks": checks,
        "meta": meta,
        "detail": {
            "per_name_traced": per_name_detail(traced),
            "layer_shares": shares,
        },
    }


def faithful_decomposition(workload: Workload, checks: Checks) -> None:
    """Each read chain, run as layer calls, must produce the one-call digest."""
    executor = workload.traced_executor(SpanRecorder())
    try:
        for name, build in workload.reads():
            for cold in (False, True):
                checks.same_digest(
                    f"{workload.name}/{name} decomposed ({'cold' if cold else 'cached'} path)",
                    lambda build=build, cold=cold: executor(
                        Op("read", "", "", build=build, cold=cold)
                    ),
                    workload.reference[name],
                )
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()


# -- one workload, one record --------------------------------------------------------------


def run_one(
    spec: Dict[str, Any],
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    toy: bool = False,
    out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload; returns the full record (metrics with units and counts)."""
    factory = registry()[name]
    outcome = (
        run_traced(factory, seed, seconds, toy, out)
        if trace
        else run_untraced(factory, seed, seconds, toy)
    )
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    measured: Measured = outcome["measured"]
    if set(measured) != set(units):
        raise RuntimeError(
            f"metrics emitted and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(measured) ^ set(units))}"
        )
    samples: Samples = outcome["samples"]
    checks: Checks = outcome["checks"]
    failures = ([samples.first_failure] if samples.first_failure else []) + checks.failures
    attempted = samples.completed + samples.failed + checks.attempted
    failed = samples.failed + len(checks.failures)
    return {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / max(1, attempted),
        "failures": failures[:10],
        "metrics": {
            metric: {"value": value, "unit": units[metric], "n": n}
            for metric, (value, n) in measured.items()
        },
        "meta": outcome["meta"],
        "detail": outcome["detail"],
    }


def print_record(record: Dict[str, Any]) -> None:
    print(f"== {record['workload']} (trace {record['trace']}, seed {record['meta']['seed']}) ==")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']:8s} n={entry['n']}")
    for axis in ("per_class", "per_name"):
        for label, entry in record["detail"].get(axis, {}).items():
            print(f"  {axis + '.' + label:34s} {entry['ms']:14.6g} ms       n={entry['n']}")
    for op_class, layers in record["detail"].get("layer_shares", {}).items():
        shown = " ".join(f"{layer}={share:.3f}" for layer, share in layers.items())
        print(f"  self-time shares, {op_class:12s} {shown}")
    print(
        f"  attempted {record['attempted']}, failed {record['failed']} "
        f"(failed_ratio {record['failed_ratio']:.6f})"
    )
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in record["metrics"].items()
            },
        }
    )


# -- command line --------------------------------------------------------------------------


def parse_arguments(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--toy", action="store_true", help="tiny inputs (the smoke test's scale)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_arguments(argv, spec)
    if args.workload is not None and args.repeat == 1:
        record = run_one(
            spec, args.workload, args.seed, args.seconds, bool(args.trace), args.toy, args.out
        )
        print_record(record)
        print(RECORD_PREFIX + json.dumps(record))
        print(contract_line(record))
        return 0 if record["correct"] else 1

    # Several runs: one process each, so that peak RSS and caches are per run.
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    records: List[Dict[str, Any]] = []
    for repetition in range(args.repeat):
        for name in names:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out,
            ] + (["--toy"] if args.toy else [])
            child = subprocess.run(command, capture_output=True, text=True)
            record = None
            for line in child.stdout.splitlines():
                if line.startswith(RECORD_PREFIX):
                    record = json.loads(line[len(RECORD_PREFIX):])
            if record is None:
                sys.stderr.write(child.stderr)
                print(f"{name}: run exited with code {child.returncode} and no record")
                return 2
            record["repetition"] = repetition
            print_record(record)
            records.append(record)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": spec, "records": records}, handle, indent=1)
    print(f"wrote {path}")
    failed = sum(record["failed"] for record in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(record["attempted"] for record in records),
                "failed": failed,
                "metrics": {},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
