"""Compare two result sets of the suite, one row per (metric, workload).

    python benchmarks/suite/compare.py A.json B.json

``A.json`` and ``B.json`` are ``results.json`` files written by
``run.py --repeat K`` (same seed, same seconds).  For every end-to-end
metric the bound fixed in ``BENCHMARK.json`` is applied to the medians of
the K runs of each side:

* ``unresolved`` -- the run-to-run spread of either side (distance between
  the quartiles over the median) exceeds the bound, so the sets cannot tell
  a change of that size from noise; this is *not* ``within bound``;
* ``REGRESSED`` -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

``failed_ratio`` regresses on any increase.  Per-layer metrics of traced
records have no bound: their ratios are listed, and exact counts must be
identical.  Every ratio is printed with its base; there is no combined
score.  Exit code 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

Key = Tuple[str, int, str]  # workload, trace, metric


def load(path: str) -> Tuple[Dict[str, Any], Dict[Key, List[float]], Dict[Tuple[str, int], List[float]]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[Key, List[float]] = {}
    failed: Dict[Tuple[str, int], List[float]] = {}
    for record in document["records"]:
        run = (record["workload"], record["trace"])
        failed.setdefault(run, []).append(record["failed_ratio"])
        for metric, entry in record["metrics"].items():
            values.setdefault(run + (metric,), []).append(entry["value"])
    return document["benchmark"], values, failed


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median (None below 2 runs)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def compare(path_a: str, path_b: str) -> int:
    spec, a_values, a_failed = load(path_a)
    _spec_b, b_values, b_failed = load(path_b)
    end_to_end = {entry["name"]: entry for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry for entry in spec["per_layer"]}
    regressed = 0
    print(f"{'workload':16s} {'metric':30s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for key in sorted(a_values):
        workload, trace, metric = key
        if key not in b_values:
            print(f"{workload:16s} {metric:30s} missing from B")
            regressed += 1
            continue
        a, b = a_values[key], b_values[key]
        median_a, median_b = statistics.median(a), statistics.median(b)
        entry = end_to_end.get(metric) or per_layer[metric]
        ratio = f"{median_b / median_a:7.3f}" if median_a else "    n/a"
        spreads = [spread(a), spread(b)]
        shown = [f"{s * 100:8.2f}%" if s is not None else "      n/a" for s in spreads]
        if trace:
            verdict = ""
            if entry["unit"] == "count" and (len(set(a)) > 1 or len(set(b)) > 1 or a[0] != b[0]):
                verdict = "count differs"
            bound_text = "   -"
        else:
            bound = entry["bound"]
            bound_text = f"{bound * 100:5.0f}%"
            sign = 1.0 if entry["better"] == "lower" else -1.0
            worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
            if any(s is None or s > bound for s in spreads):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "REGRESSED"
                regressed += 1
            else:
                verdict = "within bound"
        print(f"{workload:16s} {metric:30s} {median_a:12.5g} {median_b:12.5g} {ratio} "
              f"{shown[0]} {shown[1]} {bound_text}  {verdict} (base {median_a:.5g} {entry['unit']})")
    for run in sorted(a_failed):
        worst_a, worst_b = max(a_failed[run]), max(b_failed.get(run, [0.0]))
        verdict = "REGRESSED" if worst_b > worst_a else "within bound"
        regressed += worst_b > worst_a
        print(f"{run[0]:16s} {'failed_ratio':30s} {worst_a:12.5g} {worst_b:12.5g} "
              f"{'':7s} {'':9s} {'':9s} {'any':>6s}  {verdict} (base {worst_a:.5g} failed/attempted)")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__)
        return 2
    return compare(*arguments)


if __name__ == "__main__":
    raise SystemExit(main())
