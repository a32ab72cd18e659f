"""The benchmark's server process: one gateway over one ShardedService.

Started by ``run.py`` as its own process, so the load generator and the
system under test never share an interpreter.  Prints ``READY <port>``
on stdout once the listener is up, serves until SIGTERM (graceful: the
gateway stops, then the service stops and unlinks its shared-memory
segments), and exits 0.  A SIGKILL is the crash lane the benchmark's
recovery phase uses; the registration journal is then all that
survives.

    python3 perfbench/server.py [--journal .perfbench/edge.journal]

The service has ``workloads.SHARDS`` shards on the
``workloads.BACKEND`` backend.  A journal is fsynced on every append
(``fsync="always"``).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.serving import Gateway, ShardedService  # noqa: E402
from workloads import BACKEND, SHARDS  # noqa: E402


async def serve(args: argparse.Namespace) -> None:
    service = ShardedService(shards=SHARDS, backend=BACKEND)
    gateway = Gateway(service, journal_path=args.journal,
                      journal_fsync="always")
    try:
        await gateway.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        print(f"READY {gateway.port}", flush=True)
        await stop.wait()
    finally:
        await gateway.stop()
        service.stop(wait=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal", default=None)
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
