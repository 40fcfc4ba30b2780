"""The timing rule and the formatting helpers shared by the experiment drivers.

Every experiment driver returns plain Python data (lists of row dicts) and
offers a ``format_*`` function that renders the same table the paper prints,
so the drivers are usable both programmatically (tests, notebooks) and from
the command line (``python -m repro.experiments``).  Every timing comes from
:func:`fastest`.
"""

from __future__ import annotations

import gc
import math
import time
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..algebra.operators import Operator
from ..engine.table import Table
from ..rewriter.pipeline import QueryPipeline

__all__ = ["REPEATS", "fastest", "prepared", "format_table", "format_seconds"]

#: Timed runs per configuration after its warm-up; the fastest is reported.
REPEATS = 5


def prepared(pipeline: QueryPipeline, query: Operator) -> Callable[[], Table]:
    """``query`` rewritten (and planned) once, untimed: each call only executes it."""
    return partial(pipeline.execute_rewritten, pipeline.rewrite(query))


def fastest(
    runs: Mapping[str, Callable[[], Table]],
) -> Tuple[Dict[str, float], Dict[str, Table]]:
    """The one timing rule: best seconds per configuration, and its result.

    Each run executes once untimed (the first run to scan a table pays its
    column transpose for all the others), then :data:`REPEATS` timed passes
    follow with the configurations taking turns.  Like ``timeit``, the
    collector runs up front and stays off while timing, so no configuration
    pays for the heap another one (or the surrounding process) left behind.
    """
    results = {label: run() for label, run in runs.items()}
    best = dict.fromkeys(runs, math.inf)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for label, run in runs.items():
                started = time.perf_counter()
                run()
                best[label] = min(best[label], time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best, results


def format_seconds(value: float) -> str:
    """A runtime in seconds, printed in milliseconds to 3 significant figures."""
    ms = value * 1000
    decimals = max(0, 2 - math.floor(math.log10(ms))) if ms > 0 else 2
    return f"{ms:.{decimals}f}ms"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    title: str | None = None,
) -> str:
    """Render rows (dicts keyed by header) as a fixed-width text table."""
    materialised: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        materialised.append([_render(row.get(h)) for h in headers])
    widths = [
        max(len(line[column]) for line in materialised)
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        cell.ljust(width) for cell, width in zip(materialised[0], widths)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row_cells in materialised[1:]:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row_cells, widths))
        )
    return "\n".join(lines)


def _render(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
