"""Per-layer probes: what each layer of ``src/repro`` costs on a workload's inputs.

The traced loop shows where the time of the workload's own operations goes;
a layer that is not on their path (SQLite for an in-memory workload, the
wire for a local one) has no span there.  The probes fill the rest of the
layer x workload table: every probe calls one layer's public functions on
the workload's catalog and read chains, so each number answers "what would
this layer cost *here*" -- e.g. row vs. batch engine on 32-row inputs, or
SQLite over the in-memory engine at the same scale.

Each probe returns ``{metric name: (value, sample count)}``; units live in
``BENCHMARK.json``.  Times are the fastest of the repeats (``harness.fastest``
says why); counts are exact and repeat exactly for a fixed seed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import connect, parse_expression
from repro.algebra.operators import RelationAccess
from repro.backends.sqlcompile import compile_plan
from repro.baselines import TemporalAlignmentEvaluator
from repro.datasets.sqlite_loader import connect_memory, load_database
from repro.engine import execute as engine_execute
from repro.incremental import Delta
from repro.planner import optimize as planner_optimize
from repro.server import decode_frame, encode_frame, plan_from_json, plan_to_json

from harness import Checks, Digest, digest, fastest
from wire import ServerProcess
from workloads import Material, copy_database

Metrics = Dict[str, Tuple[float, int]]

#: Rows per ``row_chunk`` frame; the server's default.
CHUNK_ROWS = 1024
PROBE_VIEW = "probe_view"


def referenced_tables(plan: Any) -> List[str]:
    return sorted({node.name for node in plan.walk() if isinstance(node, RelationAccess)})


def read_plans(material: Material) -> Dict[str, Any]:
    """The rewritten, optimized plan of every read chain (through the plan cache)."""
    session = material.session
    return {
        name: session.pipeline.rewrite(build().plan) for name, build in material.chains(session)
    }


def repeat(action: Callable[[], Any], budget: float, least: int = 3, most: int = 200) -> List[float]:
    """Wall-clock samples of ``action``: at least ``least``, then until ``budget`` seconds."""
    samples: List[float] = []
    spent = 0.0
    while len(samples) < least or (spent < budget and len(samples) < most):
        started = time.perf_counter()
        action()
        elapsed = time.perf_counter() - started
        samples.append(elapsed)
        spent += elapsed
    return samples


def front_end(material: Material, budget: float) -> Metrics:
    """``api`` (chain construction, parsing), ``rewriter`` and ``planner`` per call."""
    session = material.session
    pipeline = session.pipeline
    database = session.database
    chains = material.chains(session)
    builds: List[float] = []
    for _name, build in chains:
        builds += repeat(build, budget / len(chains) / 4)
    parses: List[float] = []
    for text in material.predicates:
        parses += repeat(lambda text=text: parse_expression(text), budget / 8, least=20)

    queries = [build().plan for _name, build in chains]
    rewrites: List[float] = []
    optimizes: List[float] = []
    lookups: List[float] = []
    rules_fired = 0
    for query in queries:
        rewritten = pipeline.rewriter.rewrite(query)
        counters: Dict[str, int] = {}
        planner_optimize(rewritten, database, counters, mode=pipeline.planner_mode)
        rules_fired += sum(v for key, v in counters.items() if key.startswith("planner."))
        share = budget / len(queries) / 4
        rewrites += repeat(lambda query=query: pipeline.rewriter.rewrite(query), share)
        optimizes += repeat(
            lambda rewritten=rewritten: planner_optimize(
                rewritten, database, None, mode=pipeline.planner_mode
            ),
            share,
        )
        pipeline.rewrite(query)  # make sure the lookups below are hits
        lookups += repeat(lambda query=query: pipeline.rewrite(query), share / 4, least=20)
    return {
        "api.build_us": (fastest(builds) * 1e6, len(builds)),
        "api.parse_us": (fastest(parses) * 1e6, len(parses)),
        "rewriter.rewr_ms": (fastest(rewrites) * 1e3, len(rewrites)),
        "rewriter.cache_lookup_us": (fastest(lookups) * 1e6, len(lookups)),
        "planner.optimize_ms": (fastest(optimizes) * 1e3, len(optimizes)),
        "planner.rules_fired": (rules_fired, len(queries)),
    }


def engines(
    material: Material, plans: Dict[str, Any], budget: float
) -> Tuple[Metrics, Dict[str, Sequence[Any]]]:
    """One pass over the read plans on the row and on the batch engine.

    Also returns the default executor's result rows per chain, which the
    codec probe encodes.
    """
    session = material.session
    database = session.database
    metrics: Metrics = {}
    for executor in ("row", "batch"):
        samples = repeat(
            lambda executor=executor: [
                engine_execute(plan, database, executor=executor) for plan in plans.values()
            ],
            budget / 2,
        )
        metrics[f"engine.{executor}_ms"] = (fastest(samples) * 1e3 / len(plans), len(samples))
    counters: Dict[str, int] = {}
    results = {
        name: engine_execute(plan, database, counters, executor=session.executor).rows
        for name, plan in plans.items()
    }
    # Every access counts, so a table scanned twice by one plan counts twice.
    rows_in = sum(
        len(database.table(node.name).rows)
        for plan in plans.values()
        for node in plan.walk()
        if isinstance(node, RelationAccess)
    )
    metrics["engine.rows_in"] = (rows_in, len(plans))
    metrics["engine.rows_out"] = (sum(len(rows) for rows in results.values()), len(plans))
    for strategy in ("interval", "hash", "nested_loop"):
        metrics[f"engine.join_strategy.{strategy}"] = (
            counters.get(f"join_strategy.{strategy}", 0),
            len(plans),
        )

    table = database.table(material.write_table)
    coalesce_plan = session.pipeline.rewrite(session.table(material.write_table).plan)
    samples = repeat(
        lambda: engine_execute(coalesce_plan, database, executor=session.executor), budget / 4
    )
    metrics["engine.coalesce_krows_per_s"] = (
        len(table.rows) / 1e3 / fastest(samples),
        len(samples),
    )
    return metrics, results


def sqlite(
    material: Material, plans: Dict[str, Any], budget: float
) -> Tuple[Metrics, Dict[str, Digest]]:
    """``backends``: SQL generation, SQLite execution, and the catalog loads.

    Returns the per-chain digests of SQLite's results as well, so the caller
    can hold them against the reference without a second SQLite pass.
    """
    database = material.session.database
    compile_samples = repeat(
        lambda: [compile_plan(plan, database) for plan in plans.values()], budget / 8
    )
    statements = {name: compile_plan(plan, database).sql for name, plan in plans.items()}

    connection = connect_memory()
    try:
        started = time.perf_counter()
        load_database(connection, database)
        load_seconds = time.perf_counter() - started
        fetched: Dict[str, Sequence[Any]] = {}

        def one_pass() -> None:
            for name, sql in statements.items():
                fetched[name] = connection.execute(sql).fetchall()

        exec_samples = repeat(one_pass, budget / 2, least=1)
    finally:
        connection.close()

    # What one-shot and ``sqlite:///`` file mode pay before *every* execute:
    # re-loading the tables the plan references.
    def sync_all() -> None:
        for plan in plans.values():
            scratch = connect_memory()
            try:
                load_database(scratch, database, referenced_tables(plan))
            finally:
                scratch.close()

    sync_samples = repeat(sync_all, budget / 8, least=1)
    count = len(plans)
    metrics: Metrics = {
        "backends.sqlcompile_ms": (fastest(compile_samples) * 1e3 / count, len(compile_samples)),
        "backends.sql_chars": (sum(len(sql) for sql in statements.values()), count),
        "backends.sqlite_exec_ms": (fastest(exec_samples) * 1e3 / count, len(exec_samples)),
        "backends.sqlite_fetch_rows": (sum(len(rows) for rows in fetched.values()), count),
        "backends.sqlite_sync_ms": (fastest(sync_samples) * 1e3 / count, len(sync_samples)),
        "datasets.sqlite_load_s": (load_seconds, 1),
    }
    return metrics, {name: digest(rows) for name, rows in fetched.items()}


def codec(material: Material, results: Dict[str, Sequence[Any]], budget: float) -> Metrics:
    """``server`` / ``client`` codecs on the plans and result rows, in process."""
    session = material.session
    queries = [build().plan for _name, build in material.chains(session)]

    def encode_plan(query: Any) -> bytes:
        return encode_frame(
            {"type": "query", "plan": plan_to_json(query), "final_coalesce": False, "id": 1}
        )

    plan_encodes: List[float] = []
    plan_decodes: List[float] = []
    for query in queries:
        share = budget / len(queries) / 8
        plan_encodes += repeat(lambda query=query: encode_plan(query), share, least=10)
        payload = encode_plan(query)[4:]
        plan_decodes += repeat(
            lambda payload=payload: plan_from_json(decode_frame(payload)["plan"]), share, least=10
        )

    def encode_rows() -> List[bytes]:
        frames = []
        for rows in results.values():
            for start in range(0, len(rows), CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                frames.append(
                    encode_frame(
                        {"type": "row_chunk", "id": 1, "rows": [list(row) for row in chunk]}
                    )
                )
        return frames

    def decode_rows(frames: List[bytes]) -> None:
        for frame in frames:
            [tuple(row) for row in decode_frame(frame[4:])["rows"]]

    frames = encode_rows()
    encode_samples = repeat(encode_rows, budget / 4)
    decode_samples = repeat(lambda: decode_rows(frames), budget / 4)
    total_rows = max(1, sum(len(rows) for rows in results.values()))
    count = len(results)
    return {
        "server.plan_encode_us": (fastest(plan_encodes) * 1e6, len(plan_encodes)),
        "server.plan_decode_us": (fastest(plan_decodes) * 1e6, len(plan_decodes)),
        "server.rows_encode_ms": (fastest(encode_samples) * 1e3 / count, len(encode_samples)),
        "client.rows_decode_ms": (fastest(decode_samples) * 1e3 / count, len(decode_samples)),
        "server.bytes_per_row": (sum(len(frame) for frame in frames) / total_rows, total_rows),
    }


def wire(material: Material, codec_ms_per_op: float, budget: float, checks: Checks) -> Metrics:
    """The same chains through a server process: overhead over in-process, scaling.

    ``server.wire_overhead_ms`` is remote minus in-process latency, averaged
    over the chains; ``server.residual_ms`` is what is left of it after the
    codec times measured in process, i.e. sockets, asyncio and the thread
    hand-off.  ``server.scaling_2_over_1`` is read throughput with two
    clients over one client.
    """
    local = material.session
    database = local.database
    server = ServerProcess(local.domain)
    sessions: List[Any] = []
    try:
        sessions = [server.connect() for _ in range(2)]
        started = time.perf_counter()
        for name in database.names():
            table = database.table(name)
            sessions[0].load(name, table.schema[:-2], table.rows)
        load_seconds = time.perf_counter() - started

        local_chains = material.chains(local)
        remote_chains = material.chains(sessions[0])
        overheads: List[float] = []
        samples_taken = 0
        remote_pass_seconds = 0.0
        for (name, build_local), (_name, build_remote) in zip(local_chains, remote_chains):
            checks.same_digest(
                f"{name} remote vs. in process",
                lambda build=build_remote: build().rows(),
                digest(build_local().rows()),
            )
            # Alternate, so that both sides see the same state of the machine.
            here: List[float] = []
            there: List[float] = []
            spent = 0.0
            while len(here) < 3 or (spent < budget / len(local_chains) and len(here) < 50):
                for build, samples in ((build_local, here), (build_remote, there)):
                    started = time.perf_counter()
                    build().rows()
                    samples.append(time.perf_counter() - started)
                spent += here[-1] + there[-1]
            overheads.append(fastest(there) - fastest(here))
            remote_pass_seconds += fastest(there)
            samples_taken += len(there)
        overhead_ms = sum(overheads) / len(overheads) * 1e3

        # The same number of passes over the chains per client, with one
        # client and with two.
        passes = max(2, int(budget / 2 / remote_pass_seconds))

        def throughput(clients: int) -> float:
            barrier = threading.Barrier(clients + 1)

            def client_loop(client: int) -> None:
                builds = [build for _name, build in material.chains(sessions[client])]
                barrier.wait(timeout=60)
                for _ in range(passes):
                    for build in builds:
                        build().rows()

            threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(clients)]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=60)
            started = time.perf_counter()
            for thread in threads:
                thread.join(timeout=600)
            return clients * passes * len(local_chains) / (time.perf_counter() - started)

        one = throughput(1)
        two = throughput(2)
    finally:
        for session in sessions:
            session.close()
        server.stop()
    return {
        "server.wire_load_s": (load_seconds, 1),
        "server.wire_overhead_ms": (overhead_ms, samples_taken),
        "server.residual_ms": (overhead_ms - codec_ms_per_op, samples_taken),
        "server.scaling_2_over_1": (two / one, 2),
    }


def writes(material: Material, budget: float, checks: Checks) -> Metrics:
    """``engine`` DML on a view-free copy; ``incremental`` apply and refresh."""
    table, batch = material.write_table, material.write_batch
    plain = copy_database(material.session.database)

    def dml_pair() -> None:
        plain.delete(table, batch)
        plain.insert(table, batch)

    dml_samples = repeat(dml_pair, budget / 4)

    with connect(
        "memory://",
        domain=material.session.domain,
        database=copy_database(material.session.database),
    ) as session:
        view = session.materialize(material.view(session), name=PROBE_VIEW)

        def apply_pair() -> None:
            view.apply(Delta.deletes(table, batch))
            view.apply(Delta.inserts(table, batch))

        apply_samples = repeat(apply_pair, budget / 4)
        batches = 2 * len(apply_samples)
        delta_rows = view.counters["incremental.delta_rows"]
        resweeps = view.counters["incremental.resweep_groups"]
        view_rows = max(1, len(view))
        checks.guarded("probe view.verify() after detached deltas", view.verify)
        refresh_samples = repeat(view.refresh, budget / 4, least=2)
    return {
        "engine.dml_ms": (fastest(dml_samples) * 1e3 / 2, len(dml_samples)),
        "incremental.apply_ms": (fastest(apply_samples) * 1e3 / 2, len(apply_samples)),
        "incremental.delta_rows": (delta_rows / batches, batches),
        "incremental.resweep_ratio": (resweeps / (batches * view_rows), batches),
        "incremental.refresh_ms": (fastest(refresh_samples) * 1e3, len(refresh_samples)),
    }


def baselines(material: Material) -> Metrics:
    """Table 3's headline comparison: the native temporal-alignment evaluator
    vs. the rewriting session, one pass each over a small copy of the inputs
    (the native evaluator is quadratic)."""
    database, domain = material.small()
    native = TemporalAlignmentEvaluator(database, domain)
    with connect("memory://", domain=domain, database=database) as session:
        chains = material.chains(session)
        started = time.perf_counter()
        for _name, build in chains:
            native.execute(build().plan)
        native_seconds = time.perf_counter() - started
        started = time.perf_counter()
        for _name, build in chains:
            build().rows()
        seq_seconds = time.perf_counter() - started
    return {
        "baselines.native_s": (native_seconds, 1),
        "baselines.seq_s": (seq_seconds, 1),
        "baselines.native_over_seq": (native_seconds / seq_seconds, 1),
    }


def run_all(
    material: Material, budget: float, checks: Checks, reference: Dict[str, Digest]
) -> Metrics:
    """Every probe on one workload's inputs; ``budget`` seconds per probe, roughly.

    SQLite's results are held against ``reference`` (the workload's digests)
    here, so that the one SQLite pass serves as measurement and as check.
    """
    measured: Metrics = {}
    measured.update(front_end(material, budget))
    plans = read_plans(material)
    engine_metrics, results = engines(material, plans, budget)
    measured.update(engine_metrics)
    sqlite_metrics, sqlite_digests = sqlite(material, plans, budget)
    measured.update(sqlite_metrics)
    for name, got in sqlite_digests.items():
        if name in reference:
            checks.expect(
                got == reference[name],
                f"{name} on sqlite: digest {got} differs from reference {reference[name]}",
            )
    codec_metrics = codec(material, results, budget)
    measured.update(codec_metrics)
    codec_ms = (
        (codec_metrics["server.plan_encode_us"][0] + codec_metrics["server.plan_decode_us"][0])
        / 1e3
        + codec_metrics["server.rows_encode_ms"][0]
        + codec_metrics["client.rows_decode_ms"][0]
    )
    measured.update(wire(material, codec_ms, budget, checks))
    measured.update(writes(material, budget, checks))
    measured.update(baselines(material))
    default_engine = measured[f"engine.{material.session.executor}_ms"][0]
    measured["backends.sqlite_over_memory"] = (
        measured["backends.sqlite_exec_ms"][0] / default_engine,
        1,
    )
    return measured
