"""Command-line entry point: ``python -m repro.server``.

Serves an (initially empty) temporal catalog until interrupted::

    python -m repro.server --port 7464 --domain 0:100 --backend memory

Clients connect with ``repro.connect("repro://host:port")`` and may load
tables over the wire (``session.load(...)``).
"""

from __future__ import annotations

import argparse
import time

from ..api import FluentError, connect
from ..errors import BackendUnavailableError
from .core import DEFAULT_PORT, QueryServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve temporal snapshot queries over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--domain",
        default="0:100",
        metavar="LO:HI",
        help="time domain [LO, HI) queries are interpreted over (default 0:100)",
    )
    parser.add_argument(
        "--backend",
        default="memory",
        help="default execution backend (memory, sqlite, ...)",
    )
    parser.add_argument(
        "--no-planner", action="store_true", help="disable the schema-aware planner"
    )
    parser.add_argument(
        "--max-query-seconds",
        type=float,
        default=300.0,
        help="server-side cap on any single query's deadline",
    )
    args = parser.parse_args(argv)

    try:
        session = connect(
            f"memory://?domain={args.domain}",
            backend=args.backend,
            planner=not args.no_planner,
        )
    except (FluentError, BackendUnavailableError) as error:
        parser.error(str(error))
    server = QueryServer(
        session,
        host=args.host,
        port=args.port,
        max_query_seconds=args.max_query_seconds,
    )
    with server:
        print(f"repro server listening on {server.url} (domain {args.domain})")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
