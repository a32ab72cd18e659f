"""Measure the compiled-evaluation fast path and dump machine-readable
results.

Compares, on q_9's compiled d-D lineage and on grounding workloads:

* float-mode probability: compiled tape vs. the seed per-gate loop;
* a 256-map batch: one vectorized tape sweep (both the pre-resolved
  matrix form and the probability-map form) vs. sequential seed passes;
* exact Fraction probability: tape backends vs. the seed loop;
* ``grounding_sets``: index-backed join matching vs. the seed
  nested-loop backtracking matcher;
* **compilation** (PR 2): cold/warm d-D compilation of a zero-Euler
  H-query workload through the shared-order OBDD families, tabular
  automata and hash-consed arenas vs. the seed per-pair construction
  (closure automata, fresh managers, append-only arenas — reimplemented
  verbatim below), plus the circuit-size reduction from sharing.

* **serving**: the sharded concurrent service
  (:mod:`repro.serving`) — a multi-instance spread workload (cold, then
  warm) and a 256-request hot-instance microbatch wave, bit-for-float
  equal to the single-threaded ``evaluate_batch`` on the thread backend
  and on 1-, 2- and 4-shard process backends.  Flags only: serving
  speed is the ``perfbench`` section's.

* **extensional** (PR 4): the vectorized extensional fast path — the
  seed per-term ``Fraction`` loops vs. the columnar Möbius-batched
  evaluator (exact integer backend and numpy float backend) on a
  ≥ 1k-tuple instance, batch throughput over many probability maps, and
  the headline *conjecture suite*: a generated family of safe H+-queries
  whose extensional results are checked bit-for-``Fraction`` against the
  intensional compiled path.

* **lifted** (PR 8): general Dalvi–Suciu lifted inference on a non-h
  schema — safe-plan search time, plan-IR exact/float evaluation and
  batch throughput, exact-Fraction agreement with the possible-world
  oracle (``lifted_identical``), bit-identity of the lowered h-query
  plans against the seed loops (``h_parity_identical``), and the
  ``engine="lifted"`` serving route under both backends
  (``serving_backends_identical``).

* **sampling** (PR 5): the vectorized sampling engine for #P-hard
  queries — Karp–Luby and Monte-Carlo samples/sec on a ≥ 1k-tuple hard
  instance, the ``draws_identical`` gate (vector draws equal the scalar
  definition ``_py_uniform_below``), and budget-adaptive vs fixed-count
  sample economics (run in CI under ``PYTHONHASHSEED=0``).

* **resilience**: degraded sampling budgets derived from
  different remaining deadlines give bit-identical answers across clock
  jitter (the ``degraded_identical`` exactness gate).

* **replication**: a process-backend shard whose worker is SIGKILLed
  answers the same float once the supervisor has respawned it
  (``recovered_identical``).

* **gateway**: a gateway torn down SIGKILL-style and rebuilt
  from its registration journal answers bit-identically over TCP
  (``recovered_identical``).

* **perfbench**: the result line of perfbench's last ``--seed 1
  --trace 0`` run of each ``BENCHMARK.json`` workload, read from
  ``.perfbench/`` with its commit (``null`` when there is none).
  perfbench is the one benchmark that times serving, over the wire;
  run it first (``python3 perfbench/run.py --workload W --seed 1
  --seconds 30 --trace 0``) for this section to record it.

Run as a script to write ``BENCH_evaluation.json`` at the repository
root, so future PRs can track the perf trajectory:

    PYTHONPATH=src python benchmarks/run_evaluation_bench.py

``--sections perfbench`` (or any subset) reruns just those sections and
merges them into the existing ``BENCH_evaluation.json``, preserving the
untouched sections; every section records its own
``recorded_unix_time`` and ``recorded_commit`` (the checked-out commit,
also in ``meta.commit``), so partial reruns never lose the trajectory of
the sections they skipped.  (The script falls back to inserting ``src/``
on ``sys.path`` itself.)
"""

from __future__ import annotations

import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # Standalone invocation without PYTHONPATH=src.
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import random

from repro.circuits.circuit import Circuit, GateKind
from repro.circuits.evaluator import tape_for
from repro.core.boolean_function import BooleanFunction
from repro.core.fragmentation import (
    Hole,
    NotNode,
    OrNode,
    fragment,
    fragment_via_matching,
)
from repro.db.generator import complete_tid
from repro.db.relation import TupleId
from repro.matching.perfect_matching import colored_matching
from repro.obdd.builder import LayeredAutomaton, build_obdd
from repro.obdd.obdd import ObddManager
from repro.pqe.intensional import compile_lineage
from repro.queries.cq import Constant
from repro.queries.hqueries import HQuery, h_query, q9

RESULT_PATH = _REPO_ROOT / "BENCH_evaluation.json"


# ----------------------------------------------------------------------
# Seed reference implementations (the "before" side of every comparison)
# ----------------------------------------------------------------------


def seed_gate_probabilities(circuit, prob):
    """The pre-tape per-gate loop over ``Gate`` objects, verbatim."""
    one = Fraction(1)
    for value in prob.values():
        one = Fraction(1) if isinstance(value, Fraction) else 1.0
        break
    values = [0] * len(circuit)
    for gate_id, gate in circuit.gates():
        if gate.kind is GateKind.VAR:
            values[gate_id] = prob.get(gate.payload, 0)
        elif gate.kind is GateKind.CONST:
            values[gate_id] = one if gate.payload else one - one
        elif gate.kind is GateKind.NOT:
            values[gate_id] = one - values[gate.inputs[0]]
        elif gate.kind is GateKind.AND:
            product = one
            for input_id in gate.inputs:
                product = product * values[input_id]
            values[gate_id] = product
        else:
            total = one - one
            for input_id in gate.inputs:
                total = total + values[input_id]
            values[gate_id] = total
    return values


def seed_probability(circuit, prob):
    return seed_gate_probabilities(circuit, prob)[circuit.output]


def seed_grounding_sets(query, db):
    """The pre-index nested-loop matcher, verbatim, as witness sets."""

    def match_atoms(atoms, binding):
        if not atoms:
            yield dict(binding)
            return
        atom, rest = atoms[0], atoms[1:]
        try:
            relation = db.relation(atom.relation)
        except KeyError:
            return
        for values in relation:
            if len(values) != len(atom.terms):
                continue
            extended = dict(binding)
            consistent = True
            for term, value in zip(atom.terms, values):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                elif term in extended:
                    if extended[term] != value:
                        consistent = False
                        break
                else:
                    extended[term] = value
            if consistent:
                yield from match_atoms(rest, extended)

    witnesses = set()
    for found in match_atoms(list(query.atoms), {}):
        witnesses.add(
            frozenset(
                db.add(
                    atom.relation,
                    tuple(
                        t.value if isinstance(t, Constant) else found[t]
                        for t in atom.terms
                    ),
                )
                for atom in query.atoms
            )
        )
    return witnesses


# ----------------------------------------------------------------------
# Seed d-D compiler (the PR-1 construction, verbatim): closure automata,
# one fresh ObddManager per pair-query side, per-gate arena appends.
# ----------------------------------------------------------------------


def seed_sides(db):
    xs, ys = set(), set()
    for tuple_id in db.tuple_ids():
        if tuple_id.relation == "R":
            xs.add(tuple_id.values[0])
        elif tuple_id.relation == "T":
            ys.add(tuple_id.values[0])
        elif tuple_id.relation.startswith("S"):
            xs.add(tuple_id.values[0])
            ys.add(tuple_id.values[1])
    return sorted(xs, key=repr), sorted(ys, key=repr)


def seed_left_order(l, db):
    xs, ys = seed_sides(db)
    order = []
    for x in xs:
        order.append(TupleId("R", (x,)))
        for y in ys:
            for i in range(1, l + 1):
                order.append(TupleId(f"S{i}", (x, y)))
    return order


def seed_right_order(l, k, db):
    xs, ys = seed_sides(db)
    order = []
    for y in ys:
        order.append(TupleId("T", (y,)))
        for x in xs:
            for i in range(k, l, -1):
                order.append(TupleId(f"S{i}", (x, y)))
    return order


class SeedSideAutomaton:
    def __init__(self, order, events):
        self.order = order
        self.events = events

    def automaton(self, accepting_mask):
        events = self.events

        def transition(state, position, value):
            mask, unary, prev = state
            kind = events[position]
            if kind[0] == "unary":
                return (mask, value, False)
            chain_position = kind[1]
            if chain_position == 0:
                if unary and value:
                    mask |= 1
                return (mask, unary, value)
            if prev and value:
                mask |= 1 << chain_position
            return (mask, unary, value)

        return LayeredAutomaton(
            order=self.order,
            initial=(0, False, False),
            transition=transition,
            accepting=lambda state: state[0] == accepting_mask,
        )


def seed_left_machine(l, db):
    order = seed_left_order(l, db)
    events = []
    for tuple_id in order:
        if tuple_id.relation == "R":
            events.append(("unary",))
        else:
            events.append(("s", int(tuple_id.relation[1:]) - 1))
    return SeedSideAutomaton(order, events)


def seed_right_machine(l, k, db):
    order = seed_right_order(l, k, db)
    events = []
    for tuple_id in order:
        if tuple_id.relation == "T":
            events.append(("unary",))
        else:
            events.append(("s", k - int(tuple_id.relation[1:])))
    return SeedSideAutomaton(order, events)


def seed_obdd_into_circuit(manager, root, circuit):
    gate_of = {
        0: circuit.add_const(False),
        1: circuit.add_const(True),
    }
    order = manager.order
    stack = [root]
    while stack:
        node_id = stack[-1]
        if node_id in gate_of:
            stack.pop()
            continue
        _, low, high = manager.node(node_id)
        pending = [c for c in (low, high) if c not in gate_of]
        if pending:
            stack.extend(pending)
            continue
        level, low, high = manager.node(node_id)
        var_gate = circuit.add_var(order[level])
        not_gate = circuit.add_not(var_gate)
        low_branch = circuit.add_and([not_gate, gate_of[low]])
        high_branch = circuit.add_and([var_gate, gate_of[high]])
        gate_of[node_id] = circuit.add_or([low_branch, high_branch])
        stack.pop()
    return gate_of[root]


def seed_pair_query_circuit(k, l, pattern, db, circuit):
    parts = []
    if l > 0:
        machine = seed_left_machine(l, db)
        manager = ObddManager(machine.order)
        _, root = build_obdd(
            machine.automaton(pattern & ((1 << l) - 1)), manager
        )
        parts.append(seed_obdd_into_circuit(manager, root, circuit))
    if l < k:
        mask = 0
        for i in range(l + 1, k + 1):
            if pattern >> i & 1:
                mask |= 1 << (k - i)
        machine = seed_right_machine(l, k, db)
        manager = ObddManager(machine.order)
        _, root = build_obdd(machine.automaton(mask), manager)
        parts.append(seed_obdd_into_circuit(manager, root, circuit))
    return circuit.add_and(parts)


def seed_leaf_circuit(leaf, k, db, circuit):
    if leaf.is_bottom():
        return circuit.add_const(False)
    models = list(leaf.satisfying_masks())
    if len(models) == 2 and (models[0] ^ models[1]).bit_count() == 1:
        flip_variable = (models[0] ^ models[1]).bit_length() - 1
        return seed_pair_query_circuit(
            k, flip_variable, models[0], db, circuit
        )
    raise NotImplementedError("bench leaves are always pair functions")


def seed_compile_lineage(query, db):
    """The seed compile path for nondegenerate zero-Euler phi: template
    from the colored matching when one exists, filled with per-pair OBDD
    circuits, in an append-only arena."""
    phi = query.phi
    matching = colored_matching(phi)
    if matching is not None:
        fragmentation = fragment_via_matching(phi, matching)
    else:
        fragmentation = fragment(phi)
    circuit = Circuit()
    leaf_gates = [
        seed_leaf_circuit(leaf, query.k, db, circuit)
        for leaf in fragmentation.leaves
    ]

    def build(node):
        if isinstance(node, Hole):
            return leaf_gates[node.index]
        if isinstance(node, NotNode):
            return circuit.add_not(build(node.child))
        assert isinstance(node, OrNode)
        return circuit.add_or([build(child) for child in node.children])

    circuit.set_output(build(fragmentation.template.root))
    return circuit


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _compiled_fixture(n):
    tid = complete_tid(3, n, n, prob=Fraction(1, 2))
    compiled = compile_lineage(q9(), tid.instance)
    return tid, compiled


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def bench_single_float(n=8, repeats=15):
    """One float-mode probability pass: compiled tape vs. seed loop."""
    tid, compiled = _compiled_fixture(n)
    circuit = compiled.circuit
    prob = {t: 0.5 for t in tid.instance.tuple_ids()}
    tape = tape_for(circuit)
    codegen_start = time.perf_counter()
    tape._compiled()  # One-time compilation, reported separately.
    codegen_seconds = time.perf_counter() - codegen_start
    seed_seconds = _best_of(lambda: seed_probability(circuit, prob), repeats)
    tape_seconds = _best_of(lambda: tape.evaluate_floats(prob), repeats)
    drift = abs(
        tape.evaluate_floats(prob) - seed_probability(circuit, prob)
    )
    return {
        "gates": len(circuit),
        "tuples": len(tid),
        "seed_ms": seed_seconds * 1e3,
        "tape_ms": tape_seconds * 1e3,
        "codegen_once_ms": codegen_seconds * 1e3,
        "speedup": seed_seconds / tape_seconds,
        "max_abs_drift": drift,
    }


def bench_batch(n=8, batch_size=256, repeats=3):
    """A ``batch_size``-map batch: one tape sweep vs. sequential seed
    passes.  Both input conventions of the batch API are measured — maps
    (dicts, as served to the seed loop) and the pre-resolved slot matrix
    (the native shape of sweep/Monte-Carlo drivers)."""
    tid, compiled = _compiled_fixture(n)
    circuit = compiled.circuit
    tape = tape_for(circuit)
    tape._compiled()
    rng = random.Random(0)
    labels = tid.instance.tuple_ids()
    maps = [
        {t: rng.random() for t in labels} for _ in range(batch_size)
    ]
    matrix = [
        [m[label] for m in maps] for label in tape.var_labels
    ]
    sequential_seconds = _best_of(
        lambda: [seed_probability(circuit, m) for m in maps], 1
    )
    batch_maps_seconds = _best_of(
        lambda: tape.evaluate_batch(maps), repeats
    )
    batch_matrix_seconds = _best_of(
        lambda: tape.evaluate_batch(matrix=matrix), repeats
    )
    reference = [seed_probability(circuit, m) for m in maps]
    got = tape.evaluate_batch(matrix=matrix)
    drift = max(abs(a - b) for a, b in zip(got, reference))
    return {
        "gates": len(circuit),
        "batch_size": batch_size,
        "sequential_seed_ms": sequential_seconds * 1e3,
        "batch_maps_ms": batch_maps_seconds * 1e3,
        "batch_matrix_ms": batch_matrix_seconds * 1e3,
        "speedup_maps": sequential_seconds / batch_maps_seconds,
        "speedup_matrix": sequential_seconds / batch_matrix_seconds,
        "max_abs_drift": drift,
    }


def bench_exact(n=6, repeats=5):
    """Exact Fraction probability: tape interpreter vs. seed loop; the
    results must be identical, not just close."""
    tid, compiled = _compiled_fixture(n)
    circuit = compiled.circuit
    prob = tid.probability_map()
    tape = tape_for(circuit)
    seed_seconds = _best_of(lambda: seed_probability(circuit, prob), repeats)
    tape_seconds = _best_of(lambda: tape.evaluate(prob), repeats)
    identical = tape.evaluate(prob) == seed_probability(circuit, prob)
    return {
        "gates": len(circuit),
        "seed_ms": seed_seconds * 1e3,
        "tape_ms": tape_seconds * 1e3,
        "speedup": seed_seconds / tape_seconds,
        "bit_identical": identical,
    }


def bench_grounding(n=20, repeats=3):
    """``grounding_sets`` of the ``h_{3,i}`` on a complete instance:
    index-backed matching vs. the seed backtracking join."""
    tid = complete_tid(3, n, n, prob=Fraction(1, 2))
    db = tid.instance
    queries = [h_query(3, i) for i in range(4)]

    def naive():
        return [seed_grounding_sets(q, db) for q in queries]

    def indexed():
        return [q.grounding_sets(db) for q in queries]

    naive_seconds = _best_of(naive, repeats)
    indexed_seconds = _best_of(indexed, repeats)
    agree = naive() == indexed()
    return {
        "tuples": len(db),
        "naive_ms": naive_seconds * 1e3,
        "indexed_ms": indexed_seconds * 1e3,
        "speedup": naive_seconds / indexed_seconds,
        "witness_sets_identical": agree,
    }


def bench_compilation(n=8, num_queries=24, repeats=5):
    """Cold/warm d-D compilation of a zero-Euler H-query workload:
    the shared fast path (tabular automata, one family sweep per side,
    hash-consed arenas) vs. the seed per-pair construction.

    * ``seed_cold_ms`` / ``fastpath_cold_ms`` — compile the whole suite
      on a *fresh* instance (no shared state anywhere);
    * ``fastpath_warm_ms`` — recompile the suite against the same
      instance (side machines, managers and OBDD families memoized; the
      arena and template are still rebuilt);
    * ``single_query_*`` — the same comparison for one ``q_9`` compile;
    * gate counts document the sharing: the seed arena for ``q_9`` vs.
      the consed arena plus its ``gates_saved`` cons hits.

    Exact probabilities of seed and fast-path circuits are compared as
    ``Fraction``s — any mismatch marks the whole section invalid.
    """
    rng = random.Random(0x5EED2)
    queries = [q9()]
    while len(queries) < num_queries:
        phi = BooleanFunction.random(4, rng)
        if (
            phi.euler_characteristic() == 0
            and not phi.is_degenerate()
            and not phi.is_bottom()
        ):
            queries.append(HQuery(3, phi))

    def fresh_instance():
        return complete_tid(3, n, n, prob=Fraction(1, 2)).instance

    def timed_over_fresh(compile_suite):
        best = float("inf")
        for _ in range(repeats):
            db = fresh_instance()
            start = time.perf_counter()
            compile_suite(db)
            best = min(best, time.perf_counter() - start)
        return best

    seed_cold = timed_over_fresh(
        lambda db: [seed_compile_lineage(q, db) for q in queries]
    )
    fast_cold = timed_over_fresh(
        lambda db: [compile_lineage(q, db) for q in queries]
    )
    warm_db = fresh_instance()
    for query in queries:
        compile_lineage(query, warm_db)
    fast_warm = _best_of(
        lambda: [compile_lineage(q, warm_db) for q in queries], repeats
    )
    single_seed = timed_over_fresh(
        lambda db: seed_compile_lineage(q9(), db)
    )
    single_fast = timed_over_fresh(lambda db: compile_lineage(q9(), db))

    check_db = fresh_instance()
    prob = {t: Fraction(1, 2) for t in check_db.tuple_ids()}
    identical = True
    seed_gates = fast_gates = gates_saved = 0
    for query in queries:
        seed_circuit = seed_compile_lineage(query, check_db)
        compiled = compile_lineage(query, check_db)
        from repro.circuits.probability import probability as exact_prob

        identical = identical and (
            exact_prob(seed_circuit, prob)
            == exact_prob(compiled.circuit, prob)
        )
        seed_gates += len(seed_circuit)
        fast_gates += len(compiled.circuit)
        gates_saved += compiled.gates_saved
    return {
        "tuples": n + n + 3 * n * n,
        "queries": len(queries),
        "seed_cold_ms": seed_cold * 1e3,
        "fastpath_cold_ms": fast_cold * 1e3,
        "fastpath_warm_ms": fast_warm * 1e3,
        "speedup_cold": seed_cold / fast_cold,
        "speedup_warm": seed_cold / fast_warm,
        "single_query_seed_ms": single_seed * 1e3,
        "single_query_fastpath_ms": single_fast * 1e3,
        "single_query_speedup": single_seed / single_fast,
        "seed_gates": seed_gates,
        "fastpath_gates": fast_gates,
        "gates_saved_by_sharing": gates_saved,
        "gate_reduction": 1 - fast_gates / seed_gates,
        "exact_probabilities_identical": identical,
    }


def bench_serving(
    shards=4, requests_per_instance=64, hot_requests=256, workers=2
):
    """The sharded service answers exactly what the single-threaded
    batch path answers, on both backends.

    Workload one (*spread*): distinct-content instances covering every
    shard, ``requests_per_instance`` q9-evaluations each, submitted as
    one ``submit_batch`` wave — cold (caches empty, compiles on every
    shard) then warm.  Workload two (*hot*): ``hot_requests`` requests
    against a single instance, exercising the microbatcher on one shard.
    ``bit_identical_with_evaluate_batch``: every thread-backend float
    equals ``evaluate_batch``'s.

    ``backends_identical``: the same waves on ``backend="processes"``
    equal their thread-backend counterparts, and 1-, 2- and 4-shard
    process services answer the spread workload with the reference
    floats.  Serving speed is perfbench's to measure, over the wire (the
    ``perfbench`` section).
    """
    from repro.pqe.engine import CompilationCache, evaluate_batch
    from repro.serving import ShardedService

    query = q9()
    service = ShardedService(shards=shards, workers_per_shard=workers)
    tids, covered, size = [], set(), 0
    while len(covered) < shards and size < 64:
        size += 1
        tid = complete_tid(3, 1 + size, 2, prob=Fraction(1, 2))
        index = service.shard_of(tid)
        if index not in covered:
            covered.add(index)
            tids.append(tid)
    requests = [tid for tid in tids for _ in range(requests_per_instance)]
    hot = [tids[0]] * hot_requests

    single_cache = CompilationCache()
    reference = evaluate_batch(query, requests, cache=single_cache)
    reference_warm = evaluate_batch(query, requests, cache=single_cache)
    hot_reference = evaluate_batch(query, hot, cache=single_cache)

    def probabilities(wave):
        return [r.probability for r in wave]

    try:
        waves = [
            probabilities(service.submit_batch(query, batch))
            for batch in (requests, requests, hot)
        ]
    finally:
        service.close()
    identical = waves == [
        reference.probabilities,
        reference_warm.probabilities,
        hot_reference.probabilities,
    ]

    process_service = ShardedService(
        shards=shards, workers_per_shard=workers, backend="processes"
    )
    try:
        process_waves = [
            probabilities(process_service.submit_batch(query, batch))
            for batch in (requests, requests, hot)
        ]
    finally:
        process_service.stop(wait=True)
    backends_identical = process_waves == waves

    process_shard_counts = (1, 2, 4)
    for shard_count in process_shard_counts:
        scaled = ShardedService(
            shards=shard_count,
            workers_per_shard=workers,
            backend="processes",
        )
        try:
            cold = probabilities(scaled.submit_batch(query, requests))
            warm = probabilities(scaled.submit_batch(query, requests))
        finally:
            scaled.stop(wait=True)
        backends_identical = backends_identical and (
            cold == reference.probabilities
            and warm == reference_warm.probabilities
        )

    return {
        "shards": shards,
        "workers_per_shard": workers,
        "instances": len(tids),
        "spread_requests": len(requests),
        "hot_requests": hot_requests,
        "process_shard_counts": list(process_shard_counts),
        "bit_identical_with_evaluate_batch": identical,
        "backends_identical": backends_identical,
    }


# ----------------------------------------------------------------------
# Seed extensional evaluator (the pre-columnar PR-0 implementation,
# verbatim: per-term Fraction loops, per-call lattice construction)
# ----------------------------------------------------------------------


def seed_chain_probability(
    probabilities, satisfied_by_first=False, satisfied_by_last=False
):
    states = {(False, False): Fraction(1)}
    for position, p in enumerate(probabilities):
        first = position == 0
        last = position == len(probabilities) - 1
        nxt = {}
        for (prev, satisfied), mass in states.items():
            for present in (False, True):
                weight = p if present else (1 - p)
                if weight == 0:
                    continue
                now_satisfied = satisfied
                if present and prev:
                    now_satisfied = True
                if present and first and satisfied_by_first:
                    now_satisfied = True
                if present and last and satisfied_by_last:
                    now_satisfied = True
                key = (present, now_satisfied)
                nxt[key] = nxt.get(key, Fraction(0)) + mass * weight
        states = nxt
    return sum(
        (mass for (_, satisfied), mass in states.items() if satisfied),
        Fraction(0),
    )


def seed_tuple_probability(tid, relation, values):
    if not tid.instance.has(relation, values):
        return Fraction(0)
    return tid.probability_of(TupleId(relation, values))


def seed_run_probability(run, k, tid):
    a, b = run
    xs, ys = seed_sides(tid.instance)
    if a == 0:
        miss_all = Fraction(1)
        for x in xs:
            p_r = seed_tuple_probability(tid, "R", (x,))
            miss_without = Fraction(1)
            miss_with = Fraction(1)
            for y in ys:
                chain = [
                    seed_tuple_probability(tid, f"S{i}", (x, y))
                    for i in range(1, b + 2)
                ]
                miss_without *= 1 - seed_chain_probability(chain)
                miss_with *= 1 - seed_chain_probability(
                    chain, satisfied_by_first=True
                )
            hit = p_r * (1 - miss_with) + (1 - p_r) * (1 - miss_without)
            miss_all *= 1 - hit
        return 1 - miss_all
    if b == k:
        miss_all = Fraction(1)
        for y in ys:
            p_t = seed_tuple_probability(tid, "T", (y,))
            miss_without = Fraction(1)
            miss_with = Fraction(1)
            for x in xs:
                chain = [
                    seed_tuple_probability(tid, f"S{i}", (x, y))
                    for i in range(a, k + 1)
                ]
                miss_without *= 1 - seed_chain_probability(chain)
                miss_with *= 1 - seed_chain_probability(
                    chain, satisfied_by_last=True
                )
            hit = p_t * (1 - miss_with) + (1 - p_t) * (1 - miss_without)
            miss_all *= 1 - hit
        return 1 - miss_all
    miss_all = Fraction(1)
    for x in xs:
        for y in ys:
            chain = [
                seed_tuple_probability(tid, f"S{i}", (x, y))
                for i in range(a, b + 2)
            ]
            miss_all *= 1 - seed_chain_probability(chain)
    return 1 - miss_all


def seed_extensional_probability(query, tid):
    """The seed ``extensional.probability``, verbatim: lattice and Möbius
    column rebuilt on every call (no plan cache), every term's runs
    re-lifted with per-tuple dict probes (no columns, no sharing)."""
    from repro.lattice.cnf_lattice import ClauseLattice
    from repro.pqe.safe_plans import runs_of

    phi = query.phi
    if phi.is_bottom():
        return Fraction(0)
    if phi.is_top():
        return Fraction(1)
    lattice = ClauseLattice(phi.minimized_cnf())  # uncached, as seeded
    column = lattice.mobius_column()
    total = Fraction(0)
    for element, mobius_value in column.items():
        if element == lattice.top or mobius_value == 0:
            continue
        miss_all = Fraction(1)
        for run in runs_of(element):
            miss_all *= 1 - seed_run_probability(run, query.k, tid)
        total += -mobius_value * (1 - miss_all)
    return total


def _grounded_identical(plan, tid) -> bool:
    """Whether ``plan`` grounds over ``tid``'s instance and its tape
    agrees with the interpreters: the float by ``float.hex``, the exact
    Fraction with ``evaluate_plan``."""
    from repro.pqe import lift

    tape = lift.ground_plan(plan, tid.instance)
    if tape is None:
        return False
    interpreted = lift._eval_float(plan.root, {}, lift._Evaluation(tid))
    return lift.evaluate_plan_float(
        plan, tid
    ).hex() == interpreted.hex() and tape.evaluate(
        tid.probability_map()
    ) == lift.evaluate_plan(plan, tid)


def bench_extensional(n=19, batch_size=256, suite_size=16, repeats=3):
    """The vectorized extensional fast path vs. the seed Fraction loops.

    * ``seed_exact_ms`` / ``vectorized_exact_ms`` / ``vectorized_float_ms``
      — one ``q_9`` evaluation on a complete instance of
      ``2n + 3n^2`` >= 1k tuples (seed loops vs. columnar Möbius-batched
      sweeps);
    * ``batch_*`` — ``batch_size`` distinct probability maps through
      ``probability_batch`` (one shared plan, one columnar sweep each),
      vs. per-map seed evaluations extrapolated from the single-map time;
    * the **conjecture suite**: every non-constant safe monotone query on
      3 variables plus random safe monotone ones at ``k = 3``, each
      evaluated extensionally (exact backend) and intensionally (compiled
      d-D, exact tape) on a random instance — ``suite_bit_identical``
      demands Fraction equality on every query, as does
      ``exact_identical`` for seed-vs-vectorized on the big instance;
    * ``grounded_identical`` — on the batch's first 16 maps and every
      suite instance (the big one stays on the kernels), each plan's
      grounded tape equals the interpreter float for float and
      ``evaluate_plan`` exactly.
    """
    import repro.pqe.extensional as extensional
    from repro.db.generator import random_tid
    from repro.enumeration.monotone import enumerate_monotone_functions
    from repro.pqe.engine import CompilationCache, evaluate

    query = q9()
    tid = complete_tid(3, n, n, prob=Fraction(1, 2))
    plan, _ = extensional.plan_for(query)

    seed_seconds = _best_of(
        lambda: seed_extensional_probability(query, tid), repeats
    )
    vector_seconds = _best_of(
        lambda: extensional.probability(query, tid, plan=plan), repeats
    )
    float_seconds = _best_of(
        lambda: extensional.probability_float(query, tid, plan=plan), repeats
    )
    exact_identical = extensional.probability(
        query, tid, plan=plan
    ) == seed_extensional_probability(query, tid)

    rng = random.Random(0x5EED4)
    batch_tids = []
    for _ in range(batch_size):
        batch_tid = complete_tid(3, 6, 6, prob=Fraction(1, 2))
        for tuple_id in batch_tid.instance.tuple_ids():
            batch_tid.set_probability(
                tuple_id, Fraction(rng.randrange(0, 17), 16)
            )
        batch_tids.append(batch_tid)
    start = time.perf_counter()
    batch = extensional.probability_batch(query, batch_tids, plan=plan)
    batch_seconds = time.perf_counter() - start
    singles = [
        extensional.probability_float(query, batch_tid, plan=plan)
        for batch_tid in batch_tids
    ]
    seed_single_seconds = _best_of(
        lambda: seed_extensional_probability(query, batch_tids[0]), 1
    )

    suite = []
    for phi in enumerate_monotone_functions(3):
        if phi.is_bottom() or phi.is_top():
            continue
        candidate = HQuery(2, phi)
        if extensional.is_safe(candidate):
            suite.append(candidate)
    while len(suite) < suite_size:
        phi = BooleanFunction.random_monotone(4, rng)
        if phi.is_bottom() or phi.is_top():
            continue
        candidate = HQuery(3, phi)
        if extensional.is_safe(candidate):
            suite.append(candidate)
    cache = CompilationCache(limit=max(64, suite_size + 16))
    suite_identical = True
    suite_seed_identical = True
    grounded_identical = all(
        _grounded_identical(plan, batch_tid) for batch_tid in batch_tids[:16]
    )
    for suite_query in suite:
        suite_tid = random_tid(
            suite_query.k, 3, 3, rng, tuple_density=0.8
        )
        grounded_identical = grounded_identical and _grounded_identical(
            extensional.plan_for(suite_query)[0], suite_tid
        )
        lifted = extensional.probability(suite_query, suite_tid)
        compiled = evaluate(
            suite_query, suite_tid, method="intensional", cache=cache
        ).probability
        suite_identical = suite_identical and lifted == compiled
        suite_seed_identical = suite_seed_identical and (
            lifted == seed_extensional_probability(suite_query, suite_tid)
        )
    kernels = [
        kernel for _, union in plan.root.terms for kernel in union.parts
    ]
    return {
        "tuples": len(tid),
        "distinct_runs": len(set(kernels)),
        "run_references": len(kernels),
        "seed_exact_ms": seed_seconds * 1e3,
        "vectorized_exact_ms": vector_seconds * 1e3,
        "vectorized_float_ms": float_seconds * 1e3,
        "speedup_exact": seed_seconds / vector_seconds,
        "speedup_float": seed_seconds / float_seconds,
        "exact_identical": exact_identical,
        "batch_size": batch_size,
        "batch_ms": batch_seconds * 1e3,
        "batch_throughput_rps": batch_size / batch_seconds,
        "batch_seed_single_ms": seed_single_seconds * 1e3,
        "batch_speedup_vs_seed": (
            seed_single_seconds * batch_size / batch_seconds
        ),
        "batch_vs_singles_bit_identical": batch == singles,
        "suite_queries": len(suite),
        "suite_bit_identical": suite_identical,
        "suite_seed_bit_identical": suite_seed_identical,
        "grounded_identical": grounded_identical,
    }


def bench_lifted(
    oracle_domain=3,
    big_domain=12,
    batch_size=64,
    repeats=5,
    serving_tids=6,
):
    """General lifted inference (PR 8, :mod:`repro.pqe.lift`) on a
    *non-h* schema ``R(x), S(x, y), T(x)``.

    * ``plan_search_ms`` — the one-time Dalvi–Suciu safe-plan search per
      query shape (plans are query-only and cached across instances);
    * ``lifted_identical`` — exact-Fraction equality of the IR
      evaluators against the possible-world oracle on a small instance,
      for a safe CQ and a safe union (the correctness gate);
    * IR exact/float evaluation time and batch throughput on an
      instance the oracle cannot touch;
    * ``h_parity_identical`` — every safe monotone h-query at
      ``k <= 2`` evaluated through the lowered plan IR against the
      seed ``Fraction`` loops (the ported-kernel bit-identity claim);
    * ``serving_backends_identical`` — the safe CQ served as
      ``engine="lifted"`` through *both* serving backends, floats equal
      across backends and to the direct plan evaluation;
    * ``grounded_identical`` — both plans' grounded tapes on the oracle,
      big, first 8 batch and serving instances, equal to the
      interpreter float for float and to ``evaluate_plan`` exactly.
    """
    import repro.pqe.extensional as extensional
    from repro.db.relation import Instance
    from repro.db.tid import TupleIndependentDatabase
    from repro.enumeration.monotone import enumerate_monotone_functions
    from repro.pqe.brute_force import probability_by_world_enumeration
    from repro.pqe.lift import (
        evaluate_plan,
        evaluate_plan_batch,
        evaluate_plan_float,
        lift_query,
    )
    from repro.queries.cq import Atom, ConjunctiveQuery
    from repro.queries.ucq import UnionOfCQs
    from repro.serving import ShardedService

    rng = random.Random(0x11F7ED)

    def non_h_tid(domain):
        instance = Instance()
        instance.declare("R", 1)
        instance.declare("S", 2)
        instance.declare("T", 1)
        tid = TupleIndependentDatabase(instance)
        for x in range(domain):
            tid.set_probability(
                instance.add("R", (x,)), Fraction(rng.randrange(1, 16), 16)
            )
            tid.set_probability(
                instance.add("T", (x,)), Fraction(rng.randrange(1, 16), 16)
            )
            for y in range(domain):
                tid.set_probability(
                    instance.add("S", (x, y)),
                    Fraction(rng.randrange(1, 16), 16),
                )
        return tid

    safe_cq = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))
    safe_union = UnionOfCQs((safe_cq, ConjunctiveQuery((Atom("T", ("z",)),))))

    searches = {}
    for label, query in (("cq", safe_cq), ("union", safe_union)):
        searches[label] = _best_of(lambda q=query: lift_query(q), repeats)
    cq_plan = lift_query(safe_cq)
    union_plan = lift_query(safe_union)

    oracle_tid = non_h_tid(oracle_domain)
    lifted_identical = (
        evaluate_plan(cq_plan, oracle_tid)
        == probability_by_world_enumeration(safe_cq, oracle_tid)
        and evaluate_plan(union_plan, oracle_tid)
        == probability_by_world_enumeration(safe_union, oracle_tid)
    )

    big_tid = non_h_tid(big_domain)
    exact_seconds = _best_of(
        lambda: evaluate_plan(cq_plan, big_tid), repeats
    )
    float_seconds = _best_of(
        lambda: evaluate_plan_float(cq_plan, big_tid), repeats
    )
    batch_tids = [non_h_tid(big_domain) for _ in range(batch_size)]
    start = time.perf_counter()
    batch = evaluate_plan_batch(cq_plan, batch_tids)
    batch_seconds = time.perf_counter() - start
    batch_identical = batch == [
        evaluate_plan_float(cq_plan, tid) for tid in batch_tids
    ]

    # -- h-query parity through the lowered IR --------------------------
    h_parity_identical = True
    h_suite = 0
    for k in (1, 2):
        for phi in enumerate_monotone_functions(k + 1):
            if phi.is_bottom() or phi.is_top():
                continue
            candidate = HQuery(k, phi)
            if not extensional.is_safe(candidate):
                continue
            h_suite += 1
            parity_tid = complete_tid(k, 3, 3, prob=Fraction(1, 2))
            for tuple_id in parity_tid.instance.tuple_ids():
                parity_tid.set_probability(
                    tuple_id, Fraction(rng.randrange(0, 17), 16)
                )
            h_parity_identical = h_parity_identical and (
                extensional.probability(candidate, parity_tid)
                == seed_extensional_probability(candidate, parity_tid)
            )

    # -- both serving backends ------------------------------------------
    request_tids = [non_h_tid(4 + i) for i in range(serving_tids)]
    reference = [
        evaluate_plan_float(cq_plan, tid) for tid in request_tids
    ]
    by_backend = {}
    for backend in ("threads", "processes"):
        service = ShardedService(shards=2, backend=backend)
        try:
            responses = [
                service.submit(safe_cq, tid).result()
                for tid in request_tids
            ]
        finally:
            service.stop(wait=True)
        by_backend[backend] = [r.probability for r in responses]
        lifted_identical = lifted_identical and all(
            r.engine == "lifted" for r in responses
        )
    serving_backends_identical = (
        by_backend["threads"] == by_backend["processes"] == reference
    )
    grounded_identical = all(
        _grounded_identical(plan, tid)
        for plan in (cq_plan, union_plan)
        for tid in [oracle_tid, big_tid, *batch_tids[:8], *request_tids]
    )

    return {
        "plan_search_cq_ms": searches["cq"] * 1e3,
        "plan_search_union_ms": searches["union"] * 1e3,
        "plan_ops_cq": cq_plan.op_count(),
        "plan_ops_union": union_plan.op_count(),
        "oracle_tuples": len(oracle_tid),
        "tuples": len(big_tid),
        "exact_ms": exact_seconds * 1e3,
        "float_ms": float_seconds * 1e3,
        "batch_size": batch_size,
        "batch_throughput_rps": batch_size / batch_seconds,
        "batch_vs_singles_bit_identical": batch_identical,
        "lifted_identical": lifted_identical,
        "h_suite_queries": h_suite,
        "h_parity_identical": h_parity_identical,
        "serving_backends_identical": serving_backends_identical,
        "grounded_identical": grounded_identical,
    }


def bench_sampling(n=18, vector_samples=4000, repeats=3):
    """The vectorized sampling engine (PR 5).

    On the canonical hard family (``H_3 = h_0 ∨ ... ∨ h_3`` over a
    complete instance of ``2n + 3n^2`` >= 1k tuples, every probability
    1/2 — #P-hard, far beyond brute force):

    * ``vectorized_karp_luby_sps`` — samples/second of the
      counter-stream Karp–Luby sampler;
    * ``vectorized_monte_carlo_sps`` — the same for Monte Carlo (the
      clause-incidence bit-matrix over the world matrix);
    * ``draws_identical`` — the vector draws behind the world matrix and
      the clause selection equal the scalar definition
      ``_py_uniform_below`` cell by cell (a correctness gate, not a
      timing);
    * ``adaptive_*`` — budget-adaptive estimation: the adaptive run must
      meet the budget's (scale-relative) half-width with no more samples
      than the fixed-count worst case, and — the stream's prefix
      property — agree bit-for-bit with a fixed run of the same length
      (``adaptive_prefix_identical``).
    """
    from repro.db.tid import (
        DrawStream,
        WorldSampler,
        _py_uniform_below,
        _stream_base,
    )
    from repro.pqe.approximate import (
        CLAUSE_LANE,
        AccuracyBudget,
        SamplingPlan,
        half_width,
    )

    phi = BooleanFunction.bottom(4)
    for i in range(4):
        phi = phi | BooleanFunction.variable(i, 4)
    query = HQuery(3, phi)
    tid = complete_tid(3, n, n, prob=Fraction(1, 2))
    plan = SamplingPlan(query, tid)
    plan.run_fixed(64, seed=0)  # warm the cached lineage structure

    vector_kl_seconds = _best_of(
        lambda: plan.run_fixed(vector_samples, seed=1), repeats
    )
    mc_plan = SamplingPlan(query, tid, engine="monte_carlo")
    vector_mc_seconds = _best_of(
        lambda: mc_plan.run_fixed(vector_samples, seed=1), repeats
    )

    # The vector draws equal the scalar definition, cell by cell.
    probabilities = [tid.probability_of(t) for t in tid.instance.tuple_ids()]
    world_base = _stream_base(9, 0)
    reference_worlds = [
        [
            int(
                _py_uniform_below(
                    world_base, s * len(probabilities) + t, p.denominator
                )
                < p.numerator
            )
            for t, p in enumerate(probabilities)
        ]
        for s in range(96)
    ]
    total = plan._cumulative[-1]
    clause_base = _stream_base(9, CLAUSE_LANE)
    draws_identical = (
        WorldSampler(probabilities, seed=9).sample(0, 96).tolist()
        == reference_worlds
        and DrawStream(9, CLAUSE_LANE).below(total, 0, 512).tolist()
        == [_py_uniform_below(clause_base, i, total) for i in range(512)]
    )

    budget = AccuracyBudget(epsilon=0.02, min_samples=100, seed=1)
    adaptive = plan.run(budget)
    fixed_samples = budget.samples()
    replay = plan.run_fixed(adaptive.samples, seed=1)
    scale = plan._scale()
    achieved_relative = (
        half_width(
            round(adaptive.value / scale * adaptive.samples),
            adaptive.samples,
            scale,
            "wilson",
        )
        / scale
    )
    adaptive_meets_budget = (
        adaptive.samples <= fixed_samples
        and (
            achieved_relative <= budget.epsilon
            or adaptive.samples == fixed_samples
        )
    )
    return {
        "tuples": len(tid),
        "clauses": len(plan._structure.clauses),
        "vector_samples": vector_samples,
        "vectorized_karp_luby_sps": vector_samples / vector_kl_seconds,
        "vectorized_monte_carlo_sps": vector_samples / vector_mc_seconds,
        "draws_identical": draws_identical,
        "adaptive_prefix_identical": (
            adaptive.value == replay.value
            and adaptive.samples == replay.samples
        ),
        "budget_epsilon": budget.epsilon,
        "fixed_samples": fixed_samples,
        "adaptive_samples": adaptive.samples,
        "adaptive_waves": adaptive.waves,
        "adaptive_meets_budget": adaptive_meets_budget,
        "achieved_relative_half_width": achieved_relative,
    }


def bench_resilience(seed=17):
    """Degraded answers are reproducible.

    ``degraded_identical`` is the determinism gate
    (``check_bench_exactness.py`` enforces it): two sampling runs under
    degraded budgets derived from *different* remaining deadlines in the
    same power-of-two band must produce bit-identical estimates — the
    property that makes a degraded answer reproducible from
    ``(seed, budget)`` alone despite wall-clock jitter.  That every
    request resolves under overload is ``tests/test_chaos.py``'s
    invariant.
    """
    from repro.pqe.approximate import AccuracyBudget, sampling_plan
    from repro.serving.resilience import degraded_budget

    phi = BooleanFunction.bottom(4)
    for i in range(4):
        phi = phi | BooleanFunction.variable(i, 4)
    hard = HQuery(3, phi)
    hard_budget = AccuracyBudget(
        epsilon=0.3, min_samples=32, max_samples=1024, seed=seed
    )

    gate_tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
    budget_a = degraded_budget(hard_budget, 400.0, samples_per_ms=100.0)
    budget_b = degraded_budget(hard_budget, 520.0, samples_per_ms=100.0)
    estimate_a = sampling_plan(hard, gate_tid).run(budget_a)
    estimate_b = sampling_plan(hard, gate_tid).run(budget_b)
    degraded_identical = (
        budget_a == budget_b
        and estimate_a == estimate_b
        and estimate_a.half_width > 0.0
    )
    return {
        "degraded_identical": degraded_identical,
        "degraded_budget_max_samples": budget_a.max_samples,
    }


def bench_replication():
    """A respawned worker answers the reference float.

    On the process backend, SIGKILL a shard's worker and poll until the
    shard answers again.  The supervisor trips the shard's breaker,
    respawns the worker and replays its registrations; the poll waits
    out the breaker's reset window.  ``recovered_identical`` is the
    exactness gate (``check_bench_exactness.py`` enforces it): the
    answer after recovery equals the one before and the
    ``evaluate_batch`` reference.
    """
    import os
    import signal

    from repro.pqe.engine import evaluate_batch
    from repro.serving import ShardedService

    query = q9()
    tid = complete_tid(3, 3, 2, prob=Fraction(1, 2))
    reference = evaluate_batch(query, [tid])

    service = ShardedService(
        shards=1, workers_per_shard=1, backend="processes"
    )
    try:
        service.register(tid)
        before = service.submit(query, tid).result(timeout=120)
        os.kill(service._shards[0]._client._process.pid, signal.SIGKILL)
        after = None
        give_up = time.monotonic() + 30.0
        while after is None and time.monotonic() < give_up:
            try:
                after = service.submit(query, tid).result(timeout=120)
            except Exception:
                time.sleep(0.01)
        recovered_identical = (
            after is not None
            and after.probability == before.probability
            and before.probability == reference.probabilities[0]
        )
    finally:
        service.stop(wait=True)

    return {"recovered_identical": recovered_identical}


def bench_gateway(seed=29):
    """A crashed gateway recovers bit-identically from its journal.

    A :class:`~repro.serving.gateway.GatewayServer` with a registration
    journal, driven over real TCP: register two instances, query the
    exact and the seeded-sampling route, tear the gateway down
    SIGKILL-style (``restart(graceful=False)``), and query again with no
    re-registration.  ``recovered_identical`` is the exactness gate
    (``check_bench_exactness.py`` enforces it): the gateway rebuilt
    purely from the journal serves bit-identical answers on both routes
    (every response field but the serving state: ``latency_ms``,
    ``cache_hit`` and ``batch_size``).  Idempotent retries and the drain
    are ``tests/test_gateway.py``'s (``TestIdempotency``,
    ``TestDrain``).
    """
    import socket
    import tempfile

    from repro.serving import GatewayServer, ShardedService

    class _Client:
        def __init__(self, port):
            self._sock = socket.create_connection(
                ("127.0.0.1", port), timeout=60
            )
            self._file = self._sock.makefile("rw")

        def rpc(self, message):
            self._file.write(json.dumps(message) + "\n")
            self._file.flush()
            return json.loads(self._file.readline())

        def close(self):
            self._file.close()
            self._sock.close()

    def answer(reply):
        # Without the serving state: the wall clock, and whether the
        # service's caches were warm or the request rode a microbatch.
        return {
            k: v
            for k, v in reply["response"].items()
            if k not in ("latency_ms", "cache_hit", "batch_size")
        }

    big = complete_tid(3, 3, 3, prob=Fraction(1, 3))
    big_facts = [
        [
            t.relation,
            list(t.values),
            [
                big.probability_of(t).numerator,
                big.probability_of(t).denominator,
            ],
        ]
        for t in big.instance.tuple_ids()
    ]
    phi = BooleanFunction.bottom(4)
    for i in range(4):
        phi = phi | BooleanFunction.variable(i, 4)
    exact_query = {
        "op": "query",
        "id": 100,
        "instance": "orders",
        "query": {"k": 1, "nvars": 2, "table": 10},
    }
    sampled_query = {
        "op": "query",
        "id": 101,
        "instance": "big",
        "query": {"k": 3, "nvars": 4, "table": phi.table},
        "budget": {"epsilon": 0.1, "seed": seed},
    }
    small_facts = [
        ["R", [1], [1, 2]],
        ["S1", [1, 2]],
        ["T", [2], [2, 3]],
    ]

    service = ShardedService(shards=2, workers_per_shard=2)
    with tempfile.TemporaryDirectory() as tmp:
        server = GatewayServer(
            service, journal_path=f"{tmp}/edge.journal"
        )
        server.start()
        try:
            client = _Client(server.port)
            for message_id, (name, facts) in enumerate(
                [("orders", small_facts), ("big", big_facts)]
            ):
                client.rpc(
                    {
                        "op": "register",
                        "id": message_id,
                        "instance": name,
                        "facts": facts,
                    }
                )
            queries = (exact_query, sampled_query)
            before = [client.rpc(message) for message in queries]
            client.close()

            server.restart(graceful=False)
            client = _Client(server.port)
            after = [client.rpc(message) for message in queries]
            recovered = client.rpc({"op": "stats", "id": 900})
            client.close()
        finally:
            server.stop()
            service.stop(wait=True)
    recovered_identical = all(
        a["ok"] and b["ok"] and answer(a) == answer(b)
        for a, b in zip(before, after)
    )
    return {
        "journal_replayed_instances": recovered["gateway"][
            "replayed_instances"
        ],
        "recovered_identical": recovered_identical,
    }


def bench_perfbench():
    """perfbench's own result line for each workload in
    ``BENCHMARK.json``, with its provenance.

    perfbench (``perfbench/run.py``) is the one benchmark that times
    serving: it drives the TCP gateway on the process backend and checks
    every answer.  This section only reads the report its last
    ``--seed 1 --trace 0`` run of each workload left in ``.perfbench/``:
    the end-to-end metrics with their units, the attempted and failed
    operation counts, and the commit, source digest, CPU count and run
    length they were measured at.  A workload without such a report
    records ``null``.
    """
    workloads = json.loads((_REPO_ROOT / "BENCHMARK.json").read_text())[
        "workloads"
    ]
    section = {}
    for workload in workloads:
        name = workload["name"]
        path = _REPO_ROOT / ".perfbench" / f"{name}-seed1-trace0.json"
        if not path.exists():
            section[name] = None
            continue
        report = json.loads(path.read_text())
        provenance = report["provenance"]
        section[name] = {
            "metrics": {
                metric: {"value": value["value"], "unit": value["unit"]}
                for metric, value in report["metrics"].items()
            },
            "attempted": report["attempted"],
            "failed": report["failed"],
            "commit": provenance["commit"],
            "source_digest": provenance["source_digest"],
            "nproc": provenance["nproc"],
            "run_seconds": provenance["run_seconds"],
        }
    return section


SECTIONS = {
    "single_float": bench_single_float,
    "batch": bench_batch,
    "exact": bench_exact,
    "grounding": bench_grounding,
    "compilation": bench_compilation,
    "serving": bench_serving,
    "extensional": bench_extensional,
    "lifted": bench_lifted,
    "sampling": bench_sampling,
    "resilience": bench_resilience,
    "replication": bench_replication,
    "gateway": bench_gateway,
    "perfbench": bench_perfbench,
}


def _commit() -> str | None:
    """The checked-out commit, read from ``.git/HEAD`` (``None`` when the
    tree carries no git metadata or the ref is unreadable)."""
    git = _REPO_ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_all(sections=None):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    selected = list(SECTIONS) if sections is None else list(sections)
    commit = _commit()
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": numpy_version,
            "unix_time": time.time(),
            "commit": commit,
        },
    }
    for name in selected:
        section = SECTIONS[name]()
        # Every section is stamped individually: merged partial reruns
        # keep an honest record of when, and at which commit, each
        # number was measured.
        section["recorded_unix_time"] = time.time()
        section["recorded_commit"] = commit
        results[name] = section
    return results


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the evaluation/serving benchmarks and write "
        "BENCH_evaluation.json"
    )
    parser.add_argument(
        "--sections",
        nargs="+",
        choices=sorted(SECTIONS),
        default=None,
        help="run only these sections and merge them into the existing "
        "BENCH_evaluation.json, keeping untouched sections (default: "
        "all sections)",
    )
    args = parser.parse_args(argv)
    results = run_all(args.sections)
    if RESULT_PATH.exists():
        # Always merge: a partial rerun (--sections) must preserve every
        # untouched section's numbers and timestamps rather than
        # silently dropping the rest of the perf trajectory.
        merged = json.loads(RESULT_PATH.read_text())
        merged.update(results)
        results = merged
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
