"""When does maintaining a view beat re-executing its query? (rows x churn grid)

    PYTHONPATH=src python benchmarks/view_grid.py [--rows 4000,16000] [--churn 0.01] [--repeats 3]

For three views over the generator catalog ``view_churn`` uses -- its own
grouped temporal aggregate (partitioned by ``r_key``), the same aggregate
ungrouped (no partition key: every delta re-executes the plan) and an
equi-join of ``R`` with a one-row-per-key ``S`` (partitioned through the
join conjunct) -- and for every table size and churn share, one write of
``churn * rows`` rows of ``R`` costs

* **maintained**: ``view.apply(delta)`` + ``view.rows()``, or
* **re-executed**: the catalog DML + one execution of the query, *first*
  after the write (it reads the typed forms the write carried into the new
  table version, and derives what it could not) and *warm* (a second
  execution of the same version).

Each number is the fastest of ``--repeats`` delete/insert pairs, per write,
in ms; deltas are applied detached, so every pair nets to zero and
``view.verify()`` must hold at the end of every row.  The tables in
EXPERIMENTS.md ("Incremental views", "Table versions") are this script's output.
"""

from __future__ import annotations

import argparse
import random
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import Delta, connect
from repro.datasets.generator import GeneratorConfig, generate_catalog

ROWS = (4_000, 16_000, 64_000, 256_000)
CHURN = (0.001, 0.01, 0.1)

VIEWS: Dict[str, Callable[[Any], Any]] = {
    "key_totals": lambda s: s.table("R").group_by("r_key").agg(cnt="count(*)", total="sum(r_val)"),
    "ungrouped": lambda s: s.table("R").agg(cnt="count(*)", total="sum(r_val)"),
    "equi_join": lambda s: s.table("R").join(s.table("S"), "r_key = s_key"),
}


def catalog(rows: int):
    config = GeneratorConfig(
        rows=rows, domain_size=256, seed=7, interval_profile="mixed",
        duplicate_rate=0.1, groups=16, values=32, keys=max(8, rows // 8),
    )
    return config, generate_catalog(config, config.scaled(config.keys))


def fastest(run: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def batch_of(rows: Sequence[Tuple], churn: float, seed: str) -> List[Tuple]:
    size = max(1, int(len(rows) * churn))
    return [rows[position] for position in random.Random(seed).sample(range(len(rows)), size)]


def reexecuted(session, chain, batch: List[Tuple], repeats: int) -> Tuple[float, float]:
    """(first-after-write, warm) ms per write: catalog DML + one execution."""
    first = warm = dml = float("inf")
    for _ in range(repeats):
        for write in (session.delete, session.insert):
            dml = min(dml, fastest(lambda: write("R", batch), 1))
            first = min(first, fastest(chain.rows, 1))
            warm = min(warm, fastest(chain.rows, 1))
    return dml + first, dml + warm


def maintained(view, batch: List[Tuple], repeats: int) -> float:
    """ms per write: detached apply + reading the view."""

    def pair() -> None:
        view.apply(Delta.deletes("R", batch))
        view.rows()
        view.apply(Delta.inserts("R", batch))
        view.rows()

    return fastest(pair, repeats) / 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", default=",".join(map(str, ROWS)))
    parser.add_argument("--churn", default=",".join(map(str, CHURN)))
    parser.add_argument("--repeats", type=int, default=3)
    arguments = parser.parse_args()
    sizes = [int(value) for value in arguments.rows.split(",")]
    shares = [float(value) for value in arguments.churn.split(",")]

    print("ms per write: maintained (apply + view read) | re-executed first after the write / warm")
    print(f"{'view':11s}{'rows':>8s}  " + "".join(f"{share:>26.1%}" for share in shares))
    for rows in sizes:
        config, database = catalog(rows)
        with connect("memory://", domain=config.domain, database=database) as session:
            batches = [
                batch_of(database.table("R").rows, share, f"{rows}/{share}") for share in shares
            ]
            # Re-execution first, while no view observes the catalog's DML.
            plain = {
                name: [reexecuted(session, chain(session), batch, arguments.repeats) for batch in batches]
                for name, chain in VIEWS.items()
            }
            for name, chain in VIEWS.items():
                view = session.materialize(chain(session), name=name)
                cells = [
                    f"{maintained(view, batch, arguments.repeats):9.1f} |{first:7.1f} /{warm:6.1f}"
                    for batch, (first, warm) in zip(batches, plain[name])
                ]
                if not view.verify():
                    raise SystemExit(f"{name} at {rows} rows diverged from its query")
                print(f"{name:11s}{rows:>8d}  " + "".join(f"{cell:>26s}" for cell in cells))
                session.drop_view(name)


if __name__ == "__main__":
    main()
