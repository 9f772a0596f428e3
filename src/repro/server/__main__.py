"""``python -m repro.server`` — run the optimizer server.

Builds a synthetic executable catalog (seeded, deterministic — the
same generator the tests and benches use), generates an optimizer for
the paper's relational model, forks one engine process per admission
slot (:class:`~repro.server.engines.ProcessOptimizer`: searches run off
the server's GIL), wraps it in the caching service, and serves it until
SIGINT/SIGTERM, draining in-flight requests and stopping the engine
processes on the way out.

::

    python -m repro.server --port 8725 --tables r:300,s:900,t:600
    curl -s localhost:8725/health
    curl -s -XPOST localhost:8725/optimize \
         -d '{"sql": "SELECT * FROM r, s WHERE r.k = s.k"}'
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import signal
import sys
from typing import List, Tuple

from repro.catalog.catalog import Catalog
from repro.executor.data import TableSpec, generate_table
from repro.generator.generate import generate_optimizer
from repro.models.relational import relational_model
from repro.options import ServerOptions
from repro.search.engine import VolcanoOptimizer
from repro.server.app import OptimizerServer
from repro.server.engines import ProcessOptimizer
from repro.service.service import OptimizerService, ServiceOptions

__all__ = ["main"]


def _parse_tables(text: str) -> List[Tuple[str, int, int]]:
    """``name:rows[:distinct]`` comma list → (name, rows, distinct)."""
    specs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if not parts[0]:
            raise argparse.ArgumentTypeError(f"bad table spec: {chunk!r}")
        try:
            rows = int(parts[1]) if len(parts) > 1 else 1000
            distinct = int(parts[2]) if len(parts) > 2 else 50
        except (ValueError, IndexError):
            raise argparse.ArgumentTypeError(
                f"bad table spec: {chunk!r} (want name:rows[:distinct])"
            ) from None
        specs.append((parts[0], rows, distinct))
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a generated optimizer over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8725)
    parser.add_argument(
        "--model",
        choices=["relational"],
        default="relational",
        help="model specification to generate the optimizer from",
    )
    parser.add_argument(
        "--tables",
        type=_parse_tables,
        default=_parse_tables("r:300,s:900,t:600"),
        metavar="name:rows[:distinct],...",
        help="synthetic executable tables to serve (default r/s/t)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers", "-N", type=int, default=4,
        help="hand-off thread-pool size (searches run in the engine processes)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=4,
        help="optimizations admitted at once (rest queue, then 429); "
        "also the number of engine processes",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="verify every served plan against its certificate",
    )
    return parser


def build_optimizer(args: argparse.Namespace) -> VolcanoOptimizer:
    """The generated optimizer over the synthetic tables ``args`` name."""
    catalog = Catalog()
    for name, rows, distinct in args.tables:
        schema, statistics, data = generate_table(
            TableSpec(name, rows, key_distinct=distinct), args.seed
        )
        catalog.add_table(name, schema, statistics, data)
    return generate_optimizer(relational_model(), catalog)


def build_server(args: argparse.Namespace, optimizer=None) -> OptimizerServer:
    """The server ``args`` describe, over ``optimizer`` (by default
    :func:`build_optimizer`'s, searching in this process)."""
    service = OptimizerService(
        optimizer if optimizer is not None else build_optimizer(args),
        options=ServiceOptions(verify_plans=args.verify),
    )
    workers = max(args.workers, args.max_concurrent)
    options = ServerOptions(
        max_concurrent=args.max_concurrent, workers=workers
    )
    return OptimizerServer(service, options=options, host=args.host, port=args.port)


async def _serve(server: OptimizerServer) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server._shutdown.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    await server.start()
    print(f"repro.server listening on {server.address}", flush=True)
    await server.serve_forever()
    print("repro.server: drained and stopped", flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Forked before asyncio or any pool starts a thread.
    engine = ProcessOptimizer(build_optimizer(args), args.max_concurrent)
    try:
        server = build_server(args, engine)
        # The catalog's rows and the spec live as long as the server:
        # leave them out of every later collection.
        gc.collect()
        gc.freeze()
        asyncio.run(_serve(server))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
