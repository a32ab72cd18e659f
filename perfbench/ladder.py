"""The traced run: per-layer metrics from a depth ladder.

The end-to-end phases run first, untraced, for the program's own
counters (the gateway ``stats`` op, ``ShardedService.stats()``) and the
generator's lag.  Then the workload's generated requests are replayed
one at a time, each at four depths through public entry points, with
its generated id as the span id:

1. ``ping`` over TCP;
2. the gateway wire;
3. ``ShardedService.submit(...).result()`` in this process, on both
   backends (their difference is the worker hop);
4. the engine: ``evaluate_batch`` on a freshly decoded query and the
   catalog's TID (the gateway decodes a query per request and a TID
   per ``register``), plus direct calls into each layer's public
   functions.

A stage's self time is its parent depth minus the children it covers,
per request.  Stage medians are stacked per route; ``unattributed_ms``
is what the wire median keeps beyond the sum of the stage medians.
Spans stay in memory and are written to ``.perfbench/`` at the end.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import tempfile
import time

from repro.db.columnar import probability_columns
from repro.pqe.approximate import sampling_plan
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.dichotomy import classify_query
from repro.pqe.engine import CompilationCache, evaluate_batch
from repro.pqe.extensional import ExtensionalPlanCache, probability_batch
from repro.pqe.lift import evaluate_plan_batch
from repro.serving import RegistrationJournal, SegmentRegistry, ShardedService

from phases import OUT, as_reply, percentile, stop_server, wire_run
from reference import budget_of, check, decode_query
from workloads import (BACKEND, QUERIES, SHARDS, Entry, _h_entry, _query,
                       _relational_entry)

#: Per-layer metrics, in the order they are reported.
PER_LAYER = {
    "tcp.ping_ms": "ms",
    "gateway.self_ms": "ms",
    "journal.append_ms": "ms",
    "journal.bytes_per_write": "bytes",
    "journal.replay_ms": "ms",
    "service.submit_us": "us",
    "service.hedges_per_request": "ratio",
    "service.backup_win_ratio": "ratio",
    "shard.handoff_ms": "ms",
    "shard.batch_size_mean": "count",
    "shard.microbatched_ratio": "ratio",
    "shard.shed": "count",
    "shard.deadline_exceeded": "count",
    "shard.degraded": "count",
    "shard.retries": "count",
    "shard.failures": "count",
    "worker.hop_ms": "ms",
    "shm.publish_ms": "ms",
    "shm.live_segments_max": "count",
    "dichotomy.classify_us": "us",
    "extensional.sweep_ms": "ms",
    "columnar.fill_ms": "ms",
    "plan.hit_rate": "ratio",
    "lift.sweep_ms": "ms",
    "intensional.compile_ms": "ms",
    "intensional.compile_hit_rate": "ratio",
    "evaluator.sweep_ms": "ms",
    "approximate.sweep_ms": "ms",
    "approximate.samples_per_request": "count",
    "tid.digest_us": "us",
    "brute_force.ms": "ms",
    "engine.self_ms": "ms",
    "unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
}

#: The engine-depth child each route's warm sweep is reported under.
SWEEP_METRIC = {
    "extensional": "extensional.sweep_ms",
    "lifted": "lift.sweep_ms",
    "intensional": "evaluator.sweep_ms",
    "sampling": "approximate.sweep_ms",
    "brute_force": "brute_force.ms",
}

#: Most requests one ladder replays (its untraced pass also stops after
#: a quarter of ``--seconds``, having replayed at least 30 queries).
LADDER_REQUESTS = 300


def _ms(start: int, end: int) -> float:
    return (end - start) / 1e6


class Spans:
    """Spans kept in memory: ``(request id, name, parent, start, end)``
    in monotonic nanoseconds."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, request_id, name, parent, start, end) -> float:
        self.rows.append((request_id, name, parent, start, end))
        return _ms(start, end)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [dict(zip(("id", "span", "parent", "start_ns", "end_ns"),
                          row)) for row in self.rows],
                handle,
            )


def stack(per_request: list[dict], order: list[str]) -> dict:
    """Stacked stage medians for a set of requests: each stage's median
    over the requests that have it, plus ``unattributed_ms``, the wire
    median minus the sum of the stage medians."""
    stages = {}
    for name in order:
        values = [r[name] for r in per_request if name in r]
        if values:
            stages[name] = statistics.median(values)
    wire = statistics.median(r["wire"] for r in per_request)
    stages["unattributed_ms"] = wire - sum(stages.values())
    return {"wire_p50_ms": wire, "requests": len(per_request),
            "stages": stages}


# ----------------------------------------------------------------------
# Depth 3 and 4 helpers
# ----------------------------------------------------------------------


class _Catalog:
    """The ladder's stand-in for the gateway's catalog: one instance per
    entry and one TID per ``(entry, map)``, built on first use and then
    reused, as the gateway reuses a registered TID until the next
    ``register`` replaces it."""

    def __init__(self, workload):
        self.workload = workload
        self.instances = {e.name: e.instance() for e in workload.catalog}
        self._tids: dict = {}

    def fresh_tid(self, op):
        """A TID no cache has seen: what a ``register`` decodes."""
        return self.workload.entry(op.instance).tid(
            op.ref[2], self.instances[op.instance])

    def request(self, op):
        """A freshly decoded query (the gateway decodes one per
        request), the catalog's TID and the budget."""
        key = (op.instance, op.ref[2])
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = self.fresh_tid(op)
        budget = budget_of(op.ref[3]) if op.ref[3] is not None else None
        return decode_query(op.message["query"]), tid, budget


def _service(workload, backend, catalog, refs, tally):
    service = ShardedService(shards=SHARDS, backend=backend)
    for entry in workload.catalog:
        service.register(catalog.instances[entry.name],
                         replicas=entry.replicas)
    for op in workload.warmup:
        query, tid, budget = catalog.request(op)
        response = service.submit(query, tid, budget).result()
        tally.record(f"ladder warm-up ({backend})",
                     check(refs, op, as_reply(response)))
    return service


def _sweep(route, query, tid, budget, caches):
    """One direct call into the route's sweep on ``tid``."""
    if route == "extensional":
        plan, _ = caches["plans"].get_or_build(query)
        return probability_batch(query, [tid], plan=plan)[0]
    if route == "lifted":
        plan, _ = caches["plans"].get_or_build(query)
        return evaluate_plan_batch(plan, [tid])[0]
    if route == "intensional":
        compiled, _ = caches["circuits"].get_or_compile(query, tid.instance)
        tape = compiled.tape
        return tape.evaluate_vectors(
            [tape.probability_vector(tid.probability_map())])[0]
    if route == "sampling":
        return sampling_plan(query, tid).run(budget)
    return float(probability_by_world_enumeration(query, tid))


def _engine_depth(catalog, op, caches, spans, row):
    """Depth 4 for one request, plus its direct per-layer calls."""
    rid = op.message["id"]
    query, tid, budget = catalog.request(op)
    start = time.perf_counter_ns()
    evaluate_batch(query, [tid], cache=caches["circuits"],
                   plan_cache=caches["plans"], budget=budget)
    row["engine"] = spans.add(rid, "engine", "service", start,
                              time.perf_counter_ns())
    query, tid, budget = catalog.request(op)
    start = time.perf_counter_ns()
    classify_query(query)
    row["dichotomy.classify_ms"] = spans.add(
        rid, "dichotomy.classify", "engine", start, time.perf_counter_ns())
    name = SWEEP_METRIC[op.route]
    start = time.perf_counter_ns()
    result = _sweep(op.route, query, tid, budget, caches)
    row[name] = spans.add(rid, name, "engine", start, time.perf_counter_ns())
    if op.route == "sampling":
        row["samples"] = result.samples
    row["route.sweep_ms"] = row[name]
    row["engine.self_ms"] = (row["engine"] - row["dichotomy.classify_ms"]
                             - row[name])
    # Off the request path: what a probability change costs.
    fresh = catalog.fresh_tid(op)
    start = time.perf_counter_ns()
    digest = fresh.probability_digest()
    row["tid.digest_ms"] = spans.add(rid, "tid.digest", None, start,
                                     time.perf_counter_ns())
    if op.route == "extensional":
        start = time.perf_counter_ns()
        _sweep(op.route, query, fresh, budget, caches)
        row["columnar.fill_ms"] = spans.add(
            rid, "columnar.fill", None, start, time.perf_counter_ns())
    columns = probability_columns(fresh)
    registry = SegmentRegistry()
    try:
        start = time.perf_counter_ns()
        lease = registry.acquire(fresh.instance.shard_key(), digest, columns)
        registry.release(lease)
        row["shm.publish_ms"] = spans.add(rid, "shm.publish", None, start,
                                          time.perf_counter_ns())
    finally:
        registry.unlink_all()


def _probe_workload(workload):
    """Requests for the routes a workload's traffic never takes, so
    every route's direct call is measured on every workload."""
    rng = random.Random(f"probe:{workload.seed}")
    entries = {
        "extensional": (_h_entry(rng, "probe33", 3, 3, 1), "q9", None),
        "lifted": (_relational_entry(rng, "probe-rel4", 4, 1), "safe_ucq",
                   None),
        "intensional": (_h_entry(rng, "probe33z", 3, 3, 1), "zero_euler",
                        None),
        "sampling": (_h_entry(rng, "probe33h", 3, 3, 1), "hard_ucq", 0),
        "brute_force": (_h_entry(rng, "probe5", 1, 1, 1), "hard_ucq", None),
    }
    return {
        route: (entry, _query(f"probe-{route}", entry, query, route,
                              budget_seed=seed))
        for route, (entry, query, seed) in entries.items()
    }


class _Probe:
    """A stand-in workload holding only the probe entries."""

    def __init__(self, entries):
        self.catalog = entries
        self._entries = {e.name: e for e in entries}

    def entry(self, name) -> Entry:
        return self._entries[name]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(workload, seconds, refs, tally, report) -> dict:
    from workloads import build

    loaded = asyncio.run(wire_run(workload, seconds, refs, tally, report,
                                  trace=True))
    counters = _counters(loaded["stats"]["stats"])
    counters["shm.live_segments_max"] = loaded.get("live_segments_max", 0)
    counters["loadgen.lag_p99_ms"] = percentile(loaded["lags_ms"], 0.99)
    replay = build(workload.name, workload.seed)
    spans = Spans()
    rows, extra = asyncio.run(
        _ladder(replay, loaded["server"], seconds, refs, tally, spans)
    )
    stop_server(loaded["server"], tally, report)
    # Once the server has stopped, its journal is complete and closed.
    extra["journal"] = _journal_times(replay, loaded["journal"])
    shutil.rmtree(loaded["journal_dir"], ignore_errors=True)
    metrics = _per_layer(replay, rows, extra, counters, report)
    path = os.path.join(
        OUT, f"{workload.name}-seed{workload.seed}-spans.json")
    spans.write(path)
    report["spans_file"] = os.path.relpath(path)
    return metrics


def _counters(stats: dict) -> dict:
    shards = stats["shards"]
    requests = max(1, stats["requests"])
    hedging = stats["hedging"]
    cache_hits = sum(s["cache"]["hits"] for s in shards)
    cache_total = cache_hits + sum(s["cache"]["misses"] for s in shards)
    plan_hits = sum(s["plans"]["hits"] for s in shards)
    plan_total = plan_hits + sum(s["plans"]["misses"] for s in shards)
    values = {
        "service.hedges_per_request": hedging["launched"] / requests,
        "service.backup_win_ratio": (
            hedging["backup_wins"] / max(1, hedging["launched"])),
        "shard.batch_size_mean": stats["requests"] / max(1, stats["batches"]),
        "shard.microbatched_ratio": stats["microbatched_requests"] / requests,
        "plan.hit_rate": plan_hits / max(1, plan_total),
        "intensional.compile_hit_rate": cache_hits / max(1, cache_total),
    }
    for name in ("shed", "deadline_exceeded", "degraded", "retries",
                 "failures"):
        values[f"shard.{name}"] = sum(s["resilience"][name] for s in shards)
    values["_requests"] = stats["requests"]
    return values


async def _ladder(workload, server, seconds, refs, tally, spans):
    from loadgen import Connection

    connection = await Connection.open(server.port)
    catalog = _Catalog(workload)
    # The process backend forks its workers: build it before the thread
    # backend has started any pool threads in this process.
    services = {"processes": _service(workload, "processes", catalog,
                                      refs, tally)}
    services["threads"] = _service(workload, "threads", catalog, refs,
                                   tally)
    caches = {"circuits": CompilationCache(), "plans": ExtensionalPlanCache()}
    try:
        # Two wire passes over the same requests under the same
        # conditions (each call right after a ping): untraced, for the
        # tracing overhead, then traced.  The untraced pass uses its own
        # idempotency keys, so the traced pass is not a replay.
        ops, untraced = await _wire_pass(workload, connection, refs, tally,
                                         _ladder_ops(workload), seconds / 4)
        rows, _ = await _wire_pass(workload, connection, refs, tally, ops,
                                   None, spans)
        for op, row in zip((op for op in ops if op.kind == "query"), rows):
            _depths(workload, op, services, catalog, caches, spans, row,
                    refs, tally)
        routes = {row["route"] for row in rows}
        probes = _probe_rows(workload, routes, caches, spans)
    finally:
        await connection.close()
        for service in services.values():
            service.stop(wait=True)
    extra = {
        "untraced_wire_ms": untraced,
        "probes": probes,
        "compile": _compile_times(workload),
    }
    return rows, extra


async def _wire_pass(workload, connection, refs, tally, ops, seconds,
                     spans=None):
    """Replay ``ops`` one at a time over the wire from map 0, each query
    right after a ping.  Untraced (``spans`` None) it returns the ops it
    got through in ``seconds`` (at least 30 queries) and their wire
    times; traced it returns one row per query with its ping and wire
    spans."""
    for entry in workload.catalog:
        sample = await connection.call(entry.register(f"ladder-{entry.name}"))
        tally.record("ladder register", None if sample.reply.get("ok")
                     else str(sample.reply))
    deadline = None if seconds is None else time.perf_counter() + seconds
    done, results = [], []
    for op in ops:
        if (deadline is not None and time.perf_counter() > deadline
                and len(results) >= 30):
            break
        done.append(op)
        if op.kind == "register":
            sample = await connection.call(op.message, op)
            tally.record("ladder write", check(refs, op, sample.reply))
            continue
        message = op.message
        if spans is None and "idempotency_key" in message:
            message = dict(message)
            message["idempotency_key"] += "-untraced"
        rid = op.message["id"]
        start = time.perf_counter_ns()
        await connection.call({"op": "ping", "id": f"ping-{rid}"})
        middle = time.perf_counter_ns()
        sample = await connection.call(message, op)
        end = time.perf_counter_ns()
        tally.record(f"ladder {op.route}", check(refs, op, sample.reply))
        if spans is None:
            results.append(_ms(middle, end))
        else:
            results.append({
                "route": op.route,
                "tcp.ping_ms": spans.add(rid, "tcp.ping", None, start,
                                         middle),
                "wire": spans.add(rid, "wire", None, middle, end),
            })
    return (done, results) if spans is None else (results, None)


def _ladder_ops(workload) -> list:
    """The generated requests the ladder replays: the streams' opening
    operations, interleaved as the generator would send them."""
    ops = []
    while len(ops) < LADDER_REQUESTS:
        for stream in workload.streams:
            ops.append(next(stream))
    return ops[:LADDER_REQUESTS]


def _depths(workload, op, services, catalog, caches, spans, row, refs,
            tally) -> None:
    """Depths 3 and 4 for one traced query, and the self times they
    give its row.  Depth 3's answers are checked as the wire's are."""
    rid = op.message["id"]
    for backend, service in services.items():
        query, tid, budget = catalog.request(op)
        deadline_ms = op.message.get("deadline_ms")
        start = time.perf_counter_ns()
        future = service.submit(query, tid, budget, deadline_ms=deadline_ms)
        submitted = time.perf_counter_ns()
        try:
            outcome = future.result()
        except Exception as error:  # a typed serving error fails the op
            outcome = error
        end = time.perf_counter_ns()
        tally.record(f"ladder service ({backend})",
                     check(refs, op, as_reply(outcome)))
        row[f"service.{backend}"] = spans.add(
            rid, f"service.{backend}", "wire", start, end)
        row[f"submit.{backend}"] = spans.add(
            rid, f"service.submit.{backend}", f"service.{backend}", start,
            submitted)
    _engine_depth(catalog, op, caches, spans, row)
    own = f"service.{BACKEND}"
    row["gateway.self_ms"] = row["wire"] - row[own] - row["tcp.ping_ms"]
    row["service.submit_ms"] = row["submit.threads"]
    row["shard.handoff_ms"] = (row["service.threads"] - row["engine"]
                               - row["submit.threads"])
    row["worker.hop_ms"] = row["service.processes"] - row["service.threads"]


def _probe_rows(workload, routes, caches, spans) -> dict:
    """Direct calls for the routes this workload's traffic never took."""
    probes = _probe_workload(workload)
    rows = {}
    for route, (entry, op) in probes.items():
        if route in routes:
            continue
        row = {"route": route}
        _engine_depth(_Catalog(_Probe([entry])), op, caches, spans, row)
        rows[route] = row
    return rows


def _compile_times(workload) -> list:
    """``CompilationCache.get_or_compile`` on a fresh cache and a fresh
    instance, per intensional ``(query, instance)`` of the workload (the
    probe pair when the workload compiles nothing)."""
    pairs = sorted({(op.instance, op.ref[0]) for op in workload.warmup
                    if op.route == "intensional"})
    entries = {e.name: e for e in workload.catalog}
    if not pairs:
        entry, op = _probe_workload(workload)["intensional"]
        entries[entry.name] = entry
        pairs = [(entry.name, op.ref[0])]
    times = []
    for name, query in pairs:
        for _ in range(3):
            instance = entries[name].instance()
            decoded = decode_query(QUERIES[query])
            start = time.perf_counter_ns()
            CompilationCache().get_or_compile(decoded, instance)
            times.append(_ms(start, time.perf_counter_ns()))
    return times


def _journal_times(workload, path=None) -> dict:
    """Timed ``replay()`` of the run's registration journal at ``path``
    -- for a workload that journals nothing, of a journal of its
    catalog's register records -- and timed
    ``RegistrationJournal.append`` of up to 64 of the replayed records
    into a fresh journal under the same ``fsync="always"`` policy."""
    with tempfile.TemporaryDirectory(dir=OUT) as folder:
        source = "run"
        if path is None:
            source = "catalog"
            path = os.path.join(folder, "catalog.journal")
            journal = RegistrationJournal(path, fsync="always")
            for record in _catalog_records(workload):
                journal.append(record)
            journal.close()
        replays = []
        for _ in range(5):
            reader = RegistrationJournal(path, fsync="always")
            start = time.perf_counter_ns()
            records = reader.replay()
            replays.append(_ms(start, time.perf_counter_ns()))
            reader.close()
        size = os.path.getsize(path)
        fresh = RegistrationJournal(os.path.join(folder, "fresh.journal"),
                                    fsync="always")
        appends = []
        for record in records[:64]:
            start = time.perf_counter_ns()
            fresh.append(record)
            appends.append(_ms(start, time.perf_counter_ns()))
        fresh.close()
    return {"source": source, "records": len(records),
            "append_ms": appends, "replay_ms": replays,
            "bytes_per_write": size / len(records)}


def _catalog_records(workload) -> list:
    """The workload's register records, up to eight maps per instance,
    in the form the gateway journals them."""
    return [
        {key: message[key]
         for key in ("instance", "relations", "facts", "replicas")}
        for message in (
            entry.register(None, version)
            for entry in workload.catalog
            for version in range(min(8, len(entry.pool)))
        )
    ]


def _per_layer(workload, rows, extra, counters, report) -> dict:
    def med(values):
        values = list(values)
        return (statistics.median(values) if values else 0.0), len(values)

    def column(name, source=rows):
        return [r[name] for r in source if name in r]

    probe_rows = list(extra["probes"].values())
    values = {}
    for name in ("tcp.ping_ms", "gateway.self_ms", "shard.handoff_ms",
                 "worker.hop_ms", "shm.publish_ms", "extensional.sweep_ms",
                 "columnar.fill_ms", "lift.sweep_ms", "evaluator.sweep_ms",
                 "approximate.sweep_ms", "brute_force.ms", "engine.self_ms"):
        found = column(name) or column(name, probe_rows)
        values[name] = med(found)
    values["service.submit_us"] = _scaled(med(column("service.submit_ms")))
    values["dichotomy.classify_us"] = _scaled(
        med(column("dichotomy.classify_ms")))
    values["tid.digest_us"] = _scaled(med(column("tid.digest_ms")))
    values["approximate.samples_per_request"] = med(
        column("samples") or column("samples", probe_rows))
    values["intensional.compile_ms"] = med(extra["compile"])
    journal = extra["journal"]
    values["journal.append_ms"] = med(journal["append_ms"])
    values["journal.replay_ms"] = med(journal["replay_ms"])
    values["journal.bytes_per_write"] = (journal["bytes_per_write"],
                                         journal["records"])
    report["journal_replayed"] = {"source": journal["source"],
                                  "records": journal["records"]}
    requests = counters.pop("_requests")
    for name, value in counters.items():
        values[name] = (value, requests)
    order = ["tcp.ping_ms", "gateway.self_ms", "service.submit_ms",
             "shard.handoff_ms", "worker.hop_ms", "dichotomy.classify_ms",
             "route.sweep_ms", "engine.self_ms"]
    wire_rows = [r for r in rows if "wire" in r]
    overall = stack(wire_rows, order)
    values["unattributed_ms"] = (overall["stages"]["unattributed_ms"],
                                 len(wire_rows))
    traced = statistics.median(column("wire"))
    values["trace.overhead_ms"] = (
        traced - statistics.median(extra["untraced_wire_ms"]),
        len(extra["untraced_wire_ms"]))
    report["stacks"] = {"all": overall}
    for route in sorted({r["route"] for r in wire_rows}):
        report["stacks"][route] = stack(
            [r for r in wire_rows if r["route"] == route], order)
    report["probed_routes"] = sorted(extra["probes"])
    return {
        name: {"value": values[name][0], "unit": unit,
               "samples": values[name][1]}
        for name, unit in PER_LAYER.items()
    }


def _scaled(pair):
    value, count = pair
    return value * 1e3, count
