"""Command-line entry point: ``python -m repro.experiments [experiment ...]``.

Runs the requested experiment drivers (default: all of :data:`DRIVERS`, in
order) and prints the paper-style tables/series to stdout.  Each driver
checks its own shape (its ``*_differences`` function); the command names
every shape that failed on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Tuple

from . import (
    DEFAULT_SIZES,
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
from .ablation import ablation_differences
from .figure5 import figure5_differences
from .table1 import table1_differences
from .table2 import table2_differences
from .table3 import table3_differences


def _table1(args: argparse.Namespace) -> Tuple[str, List[str]]:
    rows = run_table1()
    return format_table1(rows), table1_differences(rows)


def _figure5(args: argparse.Namespace) -> Tuple[str, List[str]]:
    seed = {} if args.seed is None else {"seed": args.seed}
    rows = run_figure5(sizes=args.figure5_sizes, **seed)
    return format_figure5(rows), figure5_differences(rows)


def _table2(args: argparse.Namespace) -> Tuple[str, List[str]]:
    employee = run_table2_employee(seed=args.seed)
    return format_table2(employee, run_table2_tpch(seed=args.seed)), table2_differences(employee)


def _table3(args: argparse.Namespace) -> Tuple[str, List[str]]:
    employee, tpch = run_table3_employee(seed=args.seed), run_table3_tpch(seed=args.seed)
    return format_table3(employee, tpch), table3_differences(employee, tpch)


def _ablation(args: argparse.Namespace) -> Tuple[str, List[str]]:
    rows = run_ablation(seed=args.seed)
    return format_ablation(rows), ablation_differences(rows)


#: Experiment name -> driver returning its rendered table and its failed shapes.
DRIVERS: Dict[str, Callable[[argparse.Namespace], Tuple[str, List[str]]]] = {
    "table1": _table1,
    "figure5": _figure5,
    "table2": _table2,
    "table3": _table3,
    "ablation": _ablation,
}
ALL_EXPERIMENTS = tuple(DRIVERS)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures at laptop scale.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"Which experiments to run: {', '.join(ALL_EXPERIMENTS)} (default: all).",
    )
    parser.add_argument(
        "--figure5-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
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
    # Not ``choices=``: argparse checks a list default of a "*" positional
    # against them, so the bare command would be rejected.
    unknown = [name for name in args.experiments if name not in DRIVERS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    status = 0
    for experiment in args.experiments or ALL_EXPERIMENTS:
        text, wrong = DRIVERS[experiment](args)
        print(text)
        if wrong:
            print(f"{experiment} misses the paper's shape: {', '.join(wrong)}", file=sys.stderr)
            status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
