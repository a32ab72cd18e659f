"""Self-tests for the benchmark's own code, on a tiny configuration.

    python3 perfbench/run.py --selftest

Checks that the reference checker rejects a perturbed float, that a
seed reproduces its inputs and another seed changes them, that stacked
stage medians plus ``unattributed_ms`` give back the wire median, and
that ``BENCHMARK.json`` names exactly the workloads and metrics the code
reports.  Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

from phases import ROOT, percentile
from reference import References, check
from ladder import PER_LAYER, stack
from workloads import RATES, WORKLOADS, build

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def _reply(probability, engine="extensional", degraded=False) -> dict:
    return {"ok": True, "response": {"probability": probability,
                                     "engine": engine,
                                     "degraded": degraded}}


def test_checker_flags_perturbed_float() -> None:
    workload = build("mixed-routes", 3)
    op = workload.warmup[0]
    expected = References(workload).expected(op.ref)
    refs = References(workload)
    expect(check(refs, op, _reply(expected)) is None,
           "checker accepts the reference float")
    perturbed = math.nextafter(expected, 1.0)
    expect(check(refs, op, _reply(perturbed)) is not None,
           "checker flags a float one ulp off")
    expect(check(refs, op, _reply(expected, degraded=True)) is not None,
           "checker flags a degraded answer")
    expect(check(refs, op, _reply(expected, engine="lifted")) is not None,
           "checker flags the wrong engine")
    expect(check(refs, op, {"ok": False, "error": "DeadlineExceeded"})
           is not None, "checker flags a typed error")


def _inputs(name: str, seed: int) -> list:
    workload = build(name, seed)
    inputs = [e.register(0) for e in workload.catalog]
    inputs += [op.message for op in workload.warmup]
    for stream in workload.streams:
        inputs += [op.message for op in itertools.islice(stream, 40)]
    return json.loads(json.dumps(inputs))


def test_seed_reproduces_inputs() -> None:
    for name in WORKLOADS:
        same = _inputs(name, 11) == _inputs(name, 11)
        different = _inputs(name, 11) != _inputs(name, 12)
        expect(same, f"{name}: the same seed gives the same inputs")
        expect(different, f"{name}: another seed changes the inputs")


def test_stack_adds_up() -> None:
    rng = random.Random(5)
    order = ["tcp.ping_ms", "gateway.self_ms", "route.sweep_ms",
             "engine.self_ms"]
    rows = []
    for _ in range(101):
        row = {name: rng.uniform(0.01, 2.0) for name in order}
        row["wire"] = sum(row.values()) + rng.uniform(-0.1, 0.1)
        rows.append(row)
    stacked = stack(rows, order)
    total = sum(stacked["stages"].values())
    expect(abs(total - stacked["wire_p50_ms"]) < 1e-9,
           "stage medians plus unattributed_ms equal the wire median")
    expect(set(stacked["stages"]) == set(order) | {"unattributed_ms"},
           "the stack names every stage and unattributed_ms")


def test_percentile() -> None:
    values = list(range(1, 1001))
    expect(percentile(values, 0.5) == 500, "p50 of 1..1000 is 500")
    expect(percentile(values, 0.99) == 990, "p99 of 1..1000 is 990")
    expect(sum(1 for v in values if v > percentile(values, 0.99)) == 10,
           "1000 samples leave 10 beyond p99")


def test_reference_time() -> None:
    from phases import REFERENCE_PROBE_MS
    from run import reference_time

    clocks = {"wall_s": 2.0, "stolen_share": 0.25, "from_s": 10.0,
              "to_s": 12.0}
    at_reference = [(10.0 + i / 10, REFERENCE_PROBE_MS) for i in range(21)]
    expect(math.isclose(reference_time(clocks, at_reference), 1.5),
           "reference time leaves out the stolen share")
    slow = [(at, 2 * ms) for at, ms in at_reference]
    expect(math.isclose(reference_time(clocks, slow), 0.75),
           "reference time divides by the host's slowdown")
    near, far = (9.0, 2 * REFERENCE_PROBE_MS), (50.0, REFERENCE_PROBE_MS)
    expect(math.isclose(reference_time(clocks, [near] * 5 + [far] * 9),
                        0.75),
           "a span without probes takes the nearest ones")


def test_benchmark_json_matches_code() -> None:
    from run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the code's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == END_TO_END, "BENCHMARK.json end_to_end matches the report")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer matches the traced report")
    for workload in spec["workloads"]:
        rate = RATES[workload["name"]]
        expect(f"{rate:g}" in workload["why"],
               f"{workload['name']}: its why states the offered rate "
               f"{rate:g}")


def main() -> int:
    test_checker_flags_perturbed_float()
    test_seed_reproduces_inputs()
    test_stack_adds_up()
    test_percentile()
    test_reference_time()
    test_benchmark_json_matches_code()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0
