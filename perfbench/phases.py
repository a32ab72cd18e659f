"""The benchmark's measured phases: set-up, the closed and open loops
over the wire, the crash-and-recover lane, and teardown checks."""

from __future__ import annotations

import asyncio
import gc
import math
import os
import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Share of ``--seconds`` spent in the closed-loop phase; the open-loop
#: phase gets the rest.
CLOSED_SHARE = 0.4
#: Requests each connection keeps in flight in the closed loop.
PIPELINE_DEPTH = 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def meter() -> dict:
    """The clocks a span is read by: wall time and the VM's busy and
    stolen CPU time."""
    from procs import vm_cpu_s

    busy, stolen = vm_cpu_s()
    return {"wall_s": time.perf_counter(), "busy_s": busy,
            "stolen_s": stolen}


def since(start: dict) -> dict:
    """What each clock of :func:`meter` advanced since ``start``, and
    ``stolen_share``: the part of the CPU time the VM wanted that the
    host gave to other guests."""
    end = meter()
    spent = {name: end[name] - start[name] for name in start}
    wanted = spent["busy_s"] + spent["stolen_s"]
    spent["stolen_share"] = spent["stolen_s"] / wanted if wanted else 0.0
    spent["from_s"], spent["to_s"] = start["wall_s"], end["wall_s"]
    return spent


#: The reference host's speed: the CPU time one probe of ``speed.py``
#: takes on it.  The figure is the probe's usual median on the machine
#: the benchmark was defined on (2 vCPUs of a shared Xeon), whose
#: probes range from 0.7 to 1.7 ms as its host's load changes.
#: Times divided by :func:`speed` read as if the host had run at this
#: speed throughout.
REFERENCE_PROBE_MS = 1.4


def speed(samples, start: float, end: float) -> float:
    """The host's slowdown between ``start`` and ``end``: the median CPU
    time of the probes that ended then (the nearest probes when none
    did), over ``REFERENCE_PROBE_MS``."""
    inside = [ms for at, ms in samples if start <= at <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [ms for _, ms in sorted(
            samples, key=lambda sample: abs(sample[0] - middle))[:5]]
    return statistics.median(inside) / REFERENCE_PROBE_MS


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}")


def as_reply(outcome) -> dict:
    """A ``ShardedService`` outcome -- its response, or the exception
    its future raised -- in the gateway's reply form, for
    :func:`reference.check`."""
    if isinstance(outcome, BaseException):
        return {"ok": False, "error": type(outcome).__name__,
                "message": str(outcome)}
    return {"ok": True, "response": outcome.to_payload()}


async def _set_up(workload, refs, tally, journal):
    """Start a server, register the catalog, answer one warm-up pass."""
    from loadgen import Connection
    from procs import ServerProcess
    from reference import check

    started = meter()
    server = ServerProcess(journal)
    server.start(OUT)
    connections = [
        await Connection.open(server.port)
        for _ in range(workload.connections)
    ]
    registers = [
        connections[0].send(None, entry.register(f"register-{entry.name}"))
        for entry in workload.catalog
    ]
    for sample in await asyncio.gather(*registers):
        reply = sample.reply
        tally.record("register", None if reply and reply.get("ok") else
                     f"{reply}")
    warm = await asyncio.gather(
        *(connections[0].send(op, op.message) for op in workload.warmup)
    )
    clocks = since(started)
    for sample in warm:
        tally.record("warm-up", check(refs, sample.op, sample.reply))
    return server, connections, clocks


async def _close(connections) -> None:
    for connection in connections:
        await connection.close()


def stop_server(server, tally, report) -> None:
    clean = server.stop()
    leftovers = server.leftovers()
    tally.record("server stop", None if clean else "did not exit on SIGTERM")
    tally.record("teardown", "; ".join(leftovers) if leftovers else None)
    report.setdefault("teardown", []).append(
        {"pid": server.pid, "clean_exit": clean, "leftovers": leftovers}
    )


async def _recover(workload, refs, tally, server, journal, last_version):
    """SIGKILL the server's process tree, restart it on the same
    journal, time the first correct answer, then read back every
    acknowledged write.  The whole tree dies, as in a machine crash:
    killing only the gateway process orphans its forked workers."""
    from loadgen import Connection
    from procs import ServerProcess, shm_segments
    from reference import check
    from workloads import READS, _query

    killed_at = time.perf_counter()
    server.kill()
    restarted = ServerProcess(journal)
    restarted.start(OUT)
    entry = workload.catalog[0]
    probe = _query("recovery", entry, "q9", "extensional",
                   version=last_version[entry.name])
    recovery_s = None
    connection = None
    while time.perf_counter() - killed_at < 60.0:
        connection = await Connection.open(restarted.port)
        sample = await connection.call(probe.message, probe)
        if check(refs, probe, sample.reply) is None:
            recovery_s = time.perf_counter() - killed_at
            break
        await connection.close()
        connection = None
        await asyncio.sleep(0.001)
    tally.record("recovery", None if recovery_s else "no correct answer")
    visible = []
    for entry in workload.catalog:
        for query, route in READS:
            op = _query(f"after-{entry.name}-{query}", entry, query,
                        route, version=last_version[entry.name])
            visible.append(connection.send(op, op.message))
    for sample in await asyncio.gather(*visible):
        tally.record("write visible after restart",
                     check(refs, sample.op, sample.reply))
    await connection.close()
    # The crash is deliberate: its processes must be gone, but the
    # segments a SIGKILLed server could not unlink are crash residue,
    # removed here and reported, not counted as a leak.
    survivors = server.leftovers(with_segments=False)
    tally.record("killed server tree", "; ".join(survivors) or None)
    residue = shm_segments(server.pid)
    for name in residue:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except FileNotFoundError:
            pass
    return restarted, recovery_s, len(residue)


def _sample(server, peak: list) -> None:
    """Fold the server tree's PSS (MB) and its live shared-memory
    segment count into ``peak``."""
    from procs import shm_segments

    peak[0] = max(peak[0], server.memory_mb())
    peak[1] = max(peak[1], len(shm_segments(server.pid)))


async def wire_run(workload, seconds, refs, tally, report, trace=False):
    """Set up (``SETUPS`` times, once when traced), then drive the last
    server through the closed and open loops and, on a journaled
    workload that is not traced, the crash lane.  Returns the clocks
    (:func:`since`) of each set-up and of the closed and open loops; the
    closed loop's completions, drain included (``closed_ops``); the
    open loop's one-second ``open_windows`` and its ``query_ms`` and
    ``write_ms`` latencies, each timed from its due time, listed in due
    order and paired with the index of its window; the generator's
    ``lags_ms`` and ``backlog`` (in flight at the open loop's start and
    end); ``peak_rss_mb``; the program's ``stats``; and the running
    ``server`` with its ``journal``."""
    from loadgen import closed_loop, open_loop, window_size
    from procs import shm_segments
    from reference import check

    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT)
    setups = []
    for attempt in range(1 if trace else SETUPS):
        journal = (
            os.path.join(journal_dir, f"edge-{attempt}.journal")
            if workload.journal else None
        )
        server, connections, clocks = await _set_up(
            workload, refs, tally, journal
        )
        setups.append(clocks)
        if attempt < (0 if trace else SETUPS - 1):
            await _close(connections)
            stop_server(server, tally, report)
    # Memory is read at phase boundaries only: a PSS read walks the
    # server's page tables, which would stall the phase it measures.
    peak = [server.memory_mb(), len(shm_segments(server.pid))]
    # The generator's own collector pauses would read as server latency.
    gc.collect()
    gc.disable()
    try:
        started = meter()
        closed = await closed_loop(
            connections, workload.streams, seconds * CLOSED_SHARE,
            PIPELINE_DEPTH,
        )
        closed_clocks = since(started)
        _sample(server, peak)
        started = meter()
        opened = await open_loop(
            connections, workload.streams, seconds * (1 - CLOSED_SHARE),
            workload.rate,
        )
        open_clocks = since(started)
        _sample(server, peak)
    finally:
        gc.enable()
    stats = await connections[0].call({"op": "stats", "id": "stats"})
    await _close(connections)
    samples = closed.samples + opened.samples
    refs.prepare([s.op.ref for s in samples])
    last_version = {e.name: 0 for e in workload.catalog}
    for sample in samples:
        reason = check(refs, sample.op, sample.reply)
        tally.record(sample.op.route, reason)
        if sample.op.kind == "register" and reason is None:
            last_version[sample.op.instance] = sample.op.ref[2]
    per_window = window_size(workload.rate)
    latencies = {"query": [], "register": []}
    for index, sample in enumerate(opened.samples):
        latencies[sample.op.kind].append(
            (index // per_window, sample.latency_ms))
    result = {
        "setups": setups,
        "closed_ops": len(closed.samples),
        "closed_clocks": closed_clocks,
        "open_clocks": open_clocks,
        "open_windows": opened.windows,
        "query_ms": latencies["query"],
        "write_ms": latencies["register"],
        "lags_ms": opened.lags_ms,
        "backlog": (opened.in_flight_start, opened.in_flight_end),
        "peak_rss_mb": peak[0],
        "live_segments_max": peak[1],
        "stats": stats.reply,
        "journal": journal,
        "journal_dir": journal_dir,
    }
    if workload.journal and not trace:
        server, result["recovery_s"], result["crash_residue_segments"] = (
            await _recover(workload, refs, tally, server, journal,
                           last_version)
        )
    result["server"] = server
    return result
