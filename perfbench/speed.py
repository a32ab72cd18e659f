"""The host-speed probe: a fixed piece of pure-Python work, timed in CPU
time over and over while the benchmark runs.

A shared host's CPUs change speed from one second to the next (clock
frequency, other guests on the same cores): the same work can take
twice the CPU time it took a second earlier.  The program under test
slows with the probe, so ``run.py`` divides the times it measures by
the probe's slowdown in the same interval (see ``phases.speed``).

The probe runs under ``SCHED_IDLE``, so it takes only CPU time that
nothing else wants, and is timed with its own CPU clock, so waiting for
a CPU never counts.  It prints ``READY``, probes until SIGTERM, then
prints its samples as one JSON list of ``[end, cpu_ms]`` pairs (``end``
on the ``time.perf_counter`` clock, which every process shares).

    python3 perfbench/speed.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

#: Seconds between probes.
INTERVAL = 0.02


def work(n: int = 8000) -> int:
    """The fixed work: about a millisecond of interpreter time, integer
    arithmetic and dictionary stores, as the program's own code does."""
    total = 0
    table = {}
    for i in range(n):
        total += i * i % 7
        table[i & 255] = total
    return total


def main() -> int:
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    print("READY", flush=True)
    while not stopping:
        start = time.thread_time()
        work()
        cpu_ms = (time.thread_time() - start) * 1e3
        samples.append((time.perf_counter(), cpu_ms))
        time.sleep(INTERVAL)
    json.dump(samples, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
