"""The query server end to end: two remote clients, one shared plan cache.

A :class:`repro.QueryServer` multiplexes many clients over one catalog and
one execution pipeline.  This script starts a server on an ephemeral port,
connects two independent clients through the same ``connect()`` front door
used for local sessions (a ``repro://host:port`` DSN instead of
``memory://``), runs the paper's running-example query from both, and shows
that the second client's very first execution is a warm plan-cache hit --
the first client's REWR + planner pass paid for everyone.

Also shown: the remote sessions keep the full fluent surface (``pretty``,
``snapshot``, ``explain``, ``check``), server-side deadline enforcement
mapping to :class:`~repro.errors.QueryTimeoutError` client-side, and the
client-side :class:`~repro.execution.ExecutionPolicy` failing over to a
named backend when the requested one is down.

Run from the repository root::

    PYTHONPATH=src python examples/server_demo.py
"""

from collections import Counter

from repro import ExecutionPolicy, QueryServer, connect
from repro.datasets.running_example import (
    EXPECTED_ONDUTY,
    TIME_DOMAIN,
    WORKS_ROWS,
)
from repro.errors import BackendUnavailableError

EXPECTED_ONDUTY_ROWS = Counter(
    (cnt, begin, end)
    for cnt, intervals in EXPECTED_ONDUTY.items()
    for begin, end in intervals
)


def main() -> None:
    # port=0 picks an ephemeral port; server.url is the DSN clients dial.
    with QueryServer(connect(domain=TIME_DOMAIN), port=0) as server:
        server.session.load("works", ["name", "skill"], WORKS_ROWS)
        url = server.url
        print(f"server listening at {url}")

        with connect(server.url) as alice, connect(server.url) as bob:
            chain = lambda s: s.table("works").where("skill = 'SP'").agg(  # noqa: E731
                cnt="count(*)"
            )

            # Client 1 pays the rewrite; the plan lands in the shared cache.
            cold: dict = {}
            alice_rows = chain(alice).rows(cold)
            assert Counter(alice_rows) == EXPECTED_ONDUTY_ROWS
            print("\nalice ran Qonduty over the wire:")
            print(chain(alice).pretty())
            print(f"alice's statistics: plan_cache.misses={cold['plan_cache.misses']}")

            # Client 2 sends the structurally identical plan: warm hit, no
            # rewrite -- one pipeline, one cache, many clients.
            warm: dict = {}
            bob_rows = chain(bob).rows(warm)
            assert sorted(bob_rows) == sorted(alice_rows)
            assert warm["plan_cache.hits"] == 1
            assert "rewrite.invocations" not in warm
            print(
                f"bob's first run: plan_cache.hits={warm['plan_cache.hits']} "
                "(alice's rewrite, reused)"
            )
            print("server-side cache:", bob.cache_info())

            # The rest of the fluent surface crosses the wire unchanged.
            print("\nQonduty at 08:00 ->", dict(chain(bob).snapshot(8)))
            print("\nQonduty, explained by the server:")
            print(chain(bob).explain())

            # Server-side enforcement: an impossible deadline comes back as
            # the same QueryTimeoutError a local session would raise.
            from repro.errors import QueryTimeoutError

            try:
                chain(alice).with_policy(ExecutionPolicy(timeout_seconds=0.0)).rows()
            except QueryTimeoutError as error:
                print(f"\ndeadline enforced server-side: {error}")

            # Client-side policy: retries + failover to a named backend keep
            # working over the wire exactly as in-process.
            policy = ExecutionPolicy(retries=1, fallback_backend="memory")
            statistics: dict = {}
            table = bob.execute(
                chain(bob).plan, statistics, backend="nope", policy=policy
            )
            assert statistics["execution.fallbacks"] == 1
            print(
                f"failover: backend 'nope' unavailable, fell back to memory "
                f"({len(table.rows)} rows, retries="
                f"{statistics['execution.retries']})"
            )

            # Conformance checks run server-side too.
            report = chain(bob).check(backends=["memory"], max_points=4)
            print(
                f"remote conformance: {report.checks} checks -- "
                + ("all conform" if report.ok else "VIOLATION")
            )
            report.raise_if_failed()

    # The server is down; dialing it is a *transient* fault, so policies can
    # retry/fail over around dead servers like any unavailable backend.
    try:
        connect(url)
    except BackendUnavailableError as error:
        print(f"\nafter shutdown, dialing {url} raises: {type(error).__name__}")


if __name__ == "__main__":
    main()
