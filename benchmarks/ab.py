"""A/B gate: alternating runs of the benchmark suite on two source trees.

    python benchmarks/ab.py --a TREE --b TREE [--pairs 10] [--seeds 7,11] [--workload W]
                            [--out DIR]

``TREE`` is a git revision of this repository (``HEAD~1``, a branch, a
commit) or a directory holding a checkout.  Each tree is exported afresh
into its own temporary directory -- ``git archive`` of a revision, a copy
of a directory without ``.git``, bytecode caches or suite output -- and
every run sets ``PYTHONDONTWRITEBYTECODE=1``, so each run compiles its
sources the way a new checkout does.

Pair ``i`` runs ``benchmarks/suite/run.py --workload W --seed S`` once in
each tree, for the run length ``BENCHMARK.json`` sets, with ``S`` the
``i``-th seed of ``--seeds`` (cycling) and the side that runs first
alternating from pair to pair, so that a drift of the machine does not
favour one side.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs in each pair.

Per workload and metric the tool prints how many pairs B won (was better
than A in the metric's direction), both sides' medians and their
interquartile ranges, and the verdict of ``benchmarks/suite/compare.py``
(``within bound``, ``REGRESSED`` or ``unresolved``), which reads the two
sets of records this tool writes to ``--out`` as ``a.json`` and ``b.json``.
``failed_ratio``, the share of failed operations, is listed with the
metrics; compare.py judges it on each side's worst run.  The per-query
fastest times of each record (``per_name.<query>``) follow, with wins and
medians but no verdict: they carry no bound.  Exits 1 when compare.py
finds a regression, 2 when a run produced no record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "suite"))

import compare  # noqa: E402 - the suite's verdict, imported from its directory

#: What a directory export leaves behind.
SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", "out", ".hypothesis", ".pytest_cache"
)
RECORD_PREFIX = "record: "
#: One row of compare.py's table: workload, metric, ..., verdict before "(base", or
#: "missing from B", which compare.py counts as regressed.
VERDICT = re.compile(
    r"^(\S+)\s+(\S+)\s+(?:missing from B$|.*?\s(REGRESSED|unresolved|within bound)\s+\(base )"
)


def export(tree: str, into: str) -> str:
    """A fresh copy of ``tree`` (a directory or a git revision) under ``into``."""
    target = os.path.join(into, "tree")
    if os.path.isdir(tree):
        shutil.copytree(tree, target, ignore=SKIPPED)
        return target
    os.makedirs(target)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", tree], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", target], input=archive.stdout, check=True)
    return target


def run_once(tree: str, workload: str, seed: int) -> Dict[str, Any]:
    """One suite run of one workload in ``tree``: its record."""
    command = [
        sys.executable, os.path.join(tree, "benchmarks", "suite", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", os.path.join(tree, "benchmarks", "suite", "out"),
    ]
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    environment.pop("PYTHONPATH", None)  # run.py puts its own tree's src/ first
    child = subprocess.run(command, cwd=tree, env=environment, capture_output=True, text=True)
    for line in child.stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            return json.loads(line[len(RECORD_PREFIX):])
    sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
    sys.stderr.write(f"ab.py: {workload} seed {seed} in {tree} left no record\n")
    raise SystemExit(2)


def interquartile(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def verdicts(path_a: str, path_b: str) -> Tuple[int, Dict[Tuple[str, str], str]]:
    """compare.py's exit code and its verdict per (workload, metric)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = compare.compare(path_a, path_b)
    found: Dict[Tuple[str, str], str] = {}
    for line in printed.getvalue().splitlines():
        match = VERDICT.match(line)
        if match:
            found[(match.group(1), match.group(2))] = match.group(3) or "REGRESSED"
    return code, found


def values(records: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    """Per (workload, metric) the value of each record, failed_ratio and per-query times too."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        workload = record["workload"]
        out.setdefault((workload, "failed_ratio"), []).append(record["failed_ratio"])
        for metric, entry in record["metrics"].items():
            out.setdefault((workload, metric), []).append(entry["value"])
        for name, entry in record["detail"].get("per_name", {}).items():
            out.setdefault((workload, f"per_name.{name}"), []).append(entry["ms"])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="the base: a git revision or a directory")
    parser.add_argument("--b", required=True, help="the change: a git revision or a directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="7,11")
    parser.add_argument("--workload", default=None)
    parser.add_argument(
        "--out", default=None, help="where a.json and b.json go (default: a temp dir)"
    )
    arguments = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    workloads = (
        [arguments.workload] if arguments.workload else [w["name"] for w in spec["workloads"]]
    )
    seeds = [int(seed) for seed in arguments.seeds.split(",")]

    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {
            side: export(tree, os.path.join(scratch, side))
            for side, tree in (("a", arguments.a), ("b", arguments.b))
        }
        records: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
        for pair in range(arguments.pairs):
            seed = seeds[pair % len(seeds)]
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            for workload in workloads:
                for side in order:
                    record = run_once(trees[side], workload, seed)
                    record["repetition"] = pair
                    records[side].append(record)
            print(f"pair {pair + 1}/{arguments.pairs} done (seed {seed}, {order[0]} first)",
                  flush=True)

        out = arguments.out or scratch
        os.makedirs(out, exist_ok=True)
        paths = {}
        for side in ("a", "b"):
            paths[side] = os.path.join(out, f"{side}.json")
            with open(paths[side], "w", encoding="utf-8") as handle:
                json.dump({"benchmark": spec, "records": records[side]}, handle, indent=1)
        code, found = verdicts(paths["a"], paths["b"])

    a_values, b_values = values(records["a"]), values(records["b"])
    print(f"{'workload':16s} {'metric':28s} {'B wins':>7s} {'A median':>11s} {'B median':>11s} "
          f"{'B/A':>7s} {'A IQR':>10s} {'B IQR':>10s}  verdict")
    for key in sorted(a_values, key=lambda k: (k[0], k[1].startswith("per_name."), k[1])):
        workload, metric = key
        a, b = a_values[key], b_values.get(key, [])
        if len(a) != len(b):
            print(f"{workload:16s} {metric:28s} runs differ: A {len(a)}, B {len(b)}  "
                  f"{found.get(key, '-')}")
            continue
        lower = better.get(metric, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        median_a, median_b = statistics.median(a), statistics.median(b)
        ratio = f"{median_b / median_a:7.3f}" if median_a else "    n/a"
        print(f"{workload:16s} {metric:28s} {wins:3d}/{len(a):<3d} {median_a:11.5g} "
              f"{median_b:11.5g} {ratio} {interquartile(a):10.4g} {interquartile(b):10.4g}  "
              f"{found.get(key, '-')}")
    return 1 if code else 0


if __name__ == "__main__":
    raise SystemExit(main())
