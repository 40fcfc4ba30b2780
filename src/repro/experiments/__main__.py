"""Command-line entry point: ``python -m repro.experiments [experiment ...]``.

Runs the requested experiment drivers (default: all of them at small scale)
and prints the paper-style tables/series to stdout; exits 1 when the probed
Table 1 differs from the paper's or a baseline of the ablation returns other
rows than the optimized rewriter.  Available
experiment names: ``figure5``, ``table1``, ``table2``, ``table3``, ``ablation``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from . import (
    format_ablation,
    format_figure5,
    format_table1,
    format_table2,
    format_table3,
    run_ablation,
    run_figure5,
    run_table1,
    run_table2_employee,
    run_table2_tpch,
    run_table3_employee,
    run_table3_tpch,
)
from .table1 import table1_differences

ALL_EXPERIMENTS = ("table1", "figure5", "table2", "table3", "ablation")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures at laptop scale.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(ALL_EXPERIMENTS),
        choices=list(ALL_EXPERIMENTS) + [[]],
        help="Which experiments to run (default: all).",
    )
    parser.add_argument(
        "--figure5-sizes",
        type=int,
        nargs="+",
        default=[1_000, 5_000, 10_000, 30_000],
        help="Input sizes (rows) for the coalescing scaling experiment.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "Override every dataset generator seed, making the run "
            "reproducible end to end (default: each dataset's baked-in seed)."
        ),
    )
    args = parser.parse_args(argv)
    experiments = args.experiments or list(ALL_EXPERIMENTS)
    status = 0

    for experiment in experiments:
        if experiment == "table1":
            rows = run_table1()
            print(format_table1(rows))
            wrong = table1_differences(rows)
            if wrong:
                print(f"table1 differs from the paper: {', '.join(wrong)}", file=sys.stderr)
                status = 1
        elif experiment == "figure5":
            figure5_kwargs = {} if args.seed is None else {"seed": args.seed}
            print(
                format_figure5(
                    run_figure5(sizes=args.figure5_sizes, **figure5_kwargs)
                )
            )
        elif experiment == "table2":
            print(
                format_table2(
                    run_table2_employee(seed=args.seed),
                    run_table2_tpch(seed=args.seed),
                )
            )
        elif experiment == "table3":
            print(
                format_table3(
                    run_table3_employee(seed=args.seed),
                    run_table3_tpch(seed=args.seed),
                )
            )
        elif experiment == "ablation":
            rows = run_ablation(seed=args.seed)
            print(format_ablation(rows))
            wrong = [
                f"{row['query']} {key}"
                for row in rows
                for key in row
                if key.endswith("_matches") and not row[key]
            ]
            if wrong:
                print(f"ablation results differ: {', '.join(wrong)}", file=sys.stderr)
                status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
