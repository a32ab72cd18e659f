"""Property tests for the compilation fast path (PR 2).

The shared-order OBDD families, tabular automata, hash-consed arenas and
the exact common-denominator tape backend must be *semantically invisible*:
every construction here is compared gate-for-gate — via exact ``Fraction``
probabilities, d-D validation and automaton-run equivalence — against the
seed behavior it replaces.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from repro.circuits import (
    Circuit,
    GateKind,
    assert_d_d,
    probability as circuit_probability,
)
from repro.circuits.evaluator import tape_for
from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid, random_tid
from repro.obdd.builder import LayeredAutomaton, build_obdd, build_obdd_family
from repro.obdd.obdd import ObddManager
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.degenerate import (
    left_side_machine,
    pair_query_circuit,
    right_side_machine,
)
from repro.pqe.engine import (
    clear_compilation_cache,
    compilation_cache_stats,
    evaluate,
    evaluate_batch,
)
from repro.pqe.intensional import (
    compile_lineage,
    compile_lineage_ddnnf,
)
from repro.queries.hqueries import HQuery, q9


def closure_side_reference(events, values):
    """The seed closure-automaton transition, verbatim, run to the final
    ``(mask, unary, prev)`` state."""
    mask, unary, prev = 0, False, False
    for kind, value in zip(events, values):
        if kind[0] == "unary":
            unary, prev = value, False
            continue
        chain_position = kind[1]
        if chain_position == 0:
            if unary and value:
                mask |= 1
        elif prev and value:
            mask |= 1 << chain_position
        prev = value
    return mask


class TestTabularAutomata:
    @pytest.mark.parametrize("l,k", [(1, 3), (2, 3), (3, 3), (1, 2)])
    def test_left_machine_matches_closure_reference(self, l, k):
        rng = random.Random(100 * l + k)
        tid = complete_tid(k, 3, 2)
        machine = left_side_machine(l, tid.instance)
        events = []
        for tuple_id in machine.order:
            if tuple_id.relation == "R":
                events.append(("unary",))
            else:
                events.append(("s", int(tuple_id.relation[1:]) - 1))
        for _ in range(50):
            values = [rng.random() < 0.5 for _ in machine.order]
            assert machine.run(values) == closure_side_reference(
                events, values
            )

    @pytest.mark.parametrize("l,k", [(0, 3), (1, 3), (2, 3), (0, 2)])
    def test_right_machine_matches_closure_reference(self, l, k):
        rng = random.Random(300 + 10 * l + k)
        tid = complete_tid(k, 2, 3)
        machine = right_side_machine(l, k, tid.instance)
        events = []
        for tuple_id in machine.order:
            if tuple_id.relation == "T":
                events.append(("unary",))
            else:
                events.append(("s", k - int(tuple_id.relation[1:])))
        for _ in range(50):
            values = [rng.random() < 0.5 for _ in machine.order]
            assert machine.run(values) == closure_side_reference(
                events, values
            )

    def test_accept_view_is_a_layered_automaton(self):
        tid = complete_tid(3, 2, 2)
        machine = left_side_machine(2, tid.instance)
        rng = random.Random(11)
        view = machine.accept(1)
        assert isinstance(view, LayeredAutomaton)
        for _ in range(20):
            values = [rng.random() < 0.5 for _ in machine.order]
            assert view.run(values) == (machine.run(values) == 1)

    def test_machines_are_memoized_per_instance_content(self):
        tid = complete_tid(3, 2, 2)
        db = tid.instance
        first = left_side_machine(1, db)
        assert left_side_machine(1, db) is first
        db.add("R", ("a_new",))  # content change invalidates
        assert left_side_machine(1, db) is not first


class TestObddFamily:
    def test_family_matches_per_mask_build(self):
        tid = complete_tid(3, 2, 2)
        rng = random.Random(5)
        for machine in (
            left_side_machine(2, tid.instance),
            right_side_machine(1, 3, tid.instance),
        ):
            masks = sorted({machine.run(
                [rng.random() < 0.5 for _ in machine.order]
            ) for _ in range(12)})
            shared = ObddManager(machine.order)
            _, family = build_obdd_family(machine, masks, shared)
            for mask in masks:
                single_manager, single_root = build_obdd(
                    machine.accept(mask)
                )
                for _ in range(40):
                    assignment = {
                        label: rng.random() < 0.5
                        for label in machine.order
                    }
                    assert shared.evaluate(
                        family[mask], assignment
                    ) == single_manager.evaluate(single_root, assignment)

    def test_family_members_are_disjoint_events(self):
        # Distinct accepting masks partition the runs, so the OBDDs are
        # pairwise disjoint — the determinism the template ∨-gates rely on.
        tid = complete_tid(2, 2, 2)
        machine = left_side_machine(2, tid.instance)
        manager = ObddManager(machine.order)
        _, family = build_obdd_family(machine, [0, 1, 2, 3], manager)
        roots = list(family.values())
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                assert manager.apply("and", a, b) == 0

    def test_incremental_masks_reuse_the_manager(self):
        tid = complete_tid(2, 2, 2)
        machine = left_side_machine(1, tid.instance)
        manager = ObddManager(machine.order)
        _, first = build_obdd_family(machine, [0], manager)
        size_after_first = len(manager._nodes)
        _, again = build_obdd_family(machine, [0], manager)
        # Same function, same hash-consed nodes: no growth.
        assert len(manager._nodes) == size_after_first
        assert first[0] == again[0]


class TestSharedCompilationSemantics:
    def zero_euler_queries(self, rng, count=4):
        queries = [q9()]
        while len(queries) < count:
            phi = BooleanFunction.random(4, rng)
            if phi.euler_characteristic() == 0 and not phi.is_bottom():
                queries.append(HQuery(3, phi))
        return queries

    def test_compiled_probability_matches_brute_force(self):
        rng = random.Random(42)
        cases = 0
        while cases < 5:
            tid = random_tid(3, 2, 2, rng, tuple_density=0.5)
            if not 0 < len(tid) <= 14:
                continue
            cases += 1
            for query in self.zero_euler_queries(rng, 3):
                compiled = compile_lineage(query, tid.instance)
                assert_d_d(compiled.circuit)
                assert circuit_probability(
                    compiled.circuit, tid.probability_map()
                ) == probability_by_world_enumeration(query, tid)

    def test_dedup_arena_matches_append_only_arena(self):
        rng = random.Random(77)
        cases = 0
        while cases < 4:
            tid = random_tid(3, 2, 2, rng, tuple_density=0.6)
            if len(tid) == 0:
                continue
            cases += 1
            for l, pattern in ((0, 12), (1, 9), (2, 10), (3, 7)):
                shared = Circuit(dedup=True)
                shared.set_output(
                    pair_query_circuit(3, l, pattern, tid.instance, shared)
                )
                plain = Circuit()
                plain.set_output(
                    pair_query_circuit(3, l, pattern, tid.instance, plain)
                )
                prob = tid.probability_map()
                assert circuit_probability(
                    shared, prob
                ) == circuit_probability(plain, prob)
                assert len(shared) <= len(plain)

    def test_repeated_compiles_share_pair_roots(self):
        clear_compilation_cache()
        tid = complete_tid(3, 3, 3)
        first = compile_lineage(q9(), tid.instance)
        before = compilation_cache_stats()
        second = compile_lineage(q9(), tid.instance)
        after = compilation_cache_stats()
        assert after.pair_hits > before.pair_hits
        assert len(second.circuit) == len(first.circuit)
        assert first.compile_ms >= 0.0

    def test_overlapping_pairs_share_gates_in_one_arena(self):
        # A degenerate phi with several model pairs over the same flip
        # variable: all pairs share the side managers, so later pairs
        # reuse gates earlier pairs already materialized — the shared
        # arena must be smaller than the standalone expansions combined.
        tid = complete_tid(3, 1, 2)
        base = [{0}, {0, 1}, {2}, {1, 2}, {0, 2}, {0, 1, 2}]
        phi = BooleanFunction.from_satisfying(
            4, [s for m in base for s in (m, m | {3})]
        )
        assert not phi.depends_on(3)
        from repro.pqe.degenerate import (
            degenerate_lineage_circuit,
            pair_query_roots,
        )

        circuit = degenerate_lineage_circuit(phi, tid.instance)
        standalone_total = 0
        managers = set()
        for model in sorted(phi.satisfying_masks()):
            if model & 8:
                continue
            single = Circuit(dedup=True)
            single.set_output(
                pair_query_circuit(3, 3, model, tid.instance, single)
            )
            standalone_total += len(single)
            managers.update(
                id(manager)
                for manager, _ in pair_query_roots(3, 3, model, tid.instance)
            )
        assert len(circuit) < standalone_total
        # Hash-consing alone also shrinks the arena, so the size assert
        # does not see per-pair managers; one manager serves every pair.
        assert len(managers) == 1
        assert circuit_probability(
            circuit, tid.probability_map()
        ) == probability_by_world_enumeration(HQuery(3, phi), tid)

    def test_instance_mutation_invalidates_shared_state(self):
        from repro.db.relation import TupleId

        tid = complete_tid(3, 1, 2)
        db = tid.instance
        compile_lineage(q9(), db)  # warm the side caches
        # The new tuple joins R("a1"), so it moves Pr(q9) as well.
        tid.add("S1", ("a1", "b_extra"), Fraction(1, 2))
        second = compile_lineage(q9(), db)
        # The new tuple's variable must appear in the recompiled lineage:
        # stale cached orders/machines/managers would omit it.
        assert TupleId("S1", ("a1", "b_extra")) in second.circuit.variables()
        assert circuit_probability(
            second.circuit, tid.probability_map()
        ) == probability_by_world_enumeration(q9(), tid)

    def test_ddnnf_route_stays_nnf(self):
        tid = complete_tid(3, 2, 2)
        compiled = compile_lineage_ddnnf(q9(), tid.instance)
        assert compiled.is_nnf
        assert compiled.circuit.is_nnf()
        # The incremental NNF counter agrees with a full rescan.
        rescan = all(
            compiled.circuit.gate(g.inputs[0]).kind is GateKind.VAR
            for _, g in compiled.circuit.gates()
            if g.kind is GateKind.NOT
        )
        assert rescan == compiled.circuit.is_nnf()

    def test_incremental_nnf_counter_detects_violations(self):
        circuit = Circuit()
        x = circuit.add_var("x")
        inner = circuit.add_and([x, circuit.add_var("y")])
        circuit.set_output(circuit.add_not(inner))
        assert not circuit.is_nnf()
        nnf = Circuit(dedup=True)
        nnf.set_output(nnf.add_not(nnf.add_var("x")))
        assert nnf.is_nnf()


class TestExactCommonDenominatorBackend:
    def test_bit_identical_on_random_lineages(self):
        rng = random.Random(9)
        cases = 0
        while cases < 5:
            tid = random_tid(3, 2, 3, rng, tuple_density=0.6)
            if len(tid) == 0:
                continue
            cases += 1
            compiled = compile_lineage(q9(), tid.instance)
            tape = tape_for(compiled.circuit)
            prob = tid.probability_map()
            fast = tape.evaluate(prob)
            reference = tape._interpret(prob, tape.live)[tape.output]
            assert fast == reference
            assert isinstance(fast, Fraction)

    def test_fallback_on_oversized_denominator(self):
        tid = complete_tid(3, 2, 2)
        compiled = compile_lineage(q9(), tid.instance)
        tape = tape_for(compiled.circuit)
        prob = tid.probability_map()
        some = next(iter(prob))
        prob[some] = Fraction(1, (1 << 80) + 1)  # lcm blows past 64 bits
        assert tape._evaluate_common_denominator(prob) is None
        reference = tape._interpret(prob, tape.live)[tape.output]
        assert tape.evaluate(prob) == reference

    def test_float_maps_keep_float_semantics(self):
        tid = complete_tid(3, 2, 2)
        compiled = compile_lineage(q9(), tid.instance)
        tape = tape_for(compiled.circuit)
        prob = {t: 0.5 for t in tid.instance.tuple_ids()}
        assert isinstance(tape.evaluate(prob), float)

    def test_mixed_int_and_fraction_values(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        compiled = compile_lineage(q9(), tid.instance)
        tape = tape_for(compiled.circuit)
        prob = tid.probability_map()
        for i, key in enumerate(list(prob)):
            if i % 3 == 0:
                prob[key] = 1  # deterministic tuple, as plain int
        fast = tape.evaluate(prob)
        reference = tape._interpret(prob, tape.live)[tape.output]
        assert fast == reference


class TestEngineConcurrencyAndBatch:
    def test_concurrent_evaluate_keeps_cache_consistent(self):
        clear_compilation_cache()
        tid = complete_tid(3, 3, 3)
        errors = []

        def worker():
            try:
                for _ in range(5):
                    result = evaluate(q9(), tid, method="intensional")
                    assert result.probability is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = compilation_cache_stats()
        assert stats.hits + stats.misses == 40
        # At most a few racing compiles; every later call must hit.
        assert stats.hits >= 40 - 8

    def test_concurrent_compiles_on_one_instance_stay_exact(self):
        # Regression: compiling mutates instance-shared derivations (the
        # side OBDD managers grow while templates are plugged), so two
        # compilers racing over one instance — exactly what replicated
        # serving does, with a separate CompilationCache per replica
        # shard — used to corrupt the shared manager and make *both*
        # emit a circuit computing the wrong probability.  The
        # per-instance derivation lock must keep every concurrently
        # compiled tape bit-identical to the single-threaded value.
        from repro.pqe.engine import CompilationCache

        rng = random.Random(0xD1CE)
        while True:
            phi = BooleanFunction.random(4, rng)
            if phi.euler_characteristic() == 0 and not phi.is_monotone():
                break
        query = HQuery(3, phi)
        reference = evaluate(
            query, complete_tid(3, 3, 3), method="intensional"
        ).probability
        for _ in range(8):
            tid = complete_tid(3, 3, 3)
            caches = [CompilationCache() for _ in range(3)]
            results: list[float | None] = [None] * len(caches)
            barrier = threading.Barrier(len(caches))

            def worker(slot: int) -> None:
                barrier.wait()
                compiled, _ = caches[slot].get_or_compile(
                    query, tid.instance
                )
                tape = compiled.tape
                vector = tape.probability_vector(tid.probability_map())
                results[slot] = tape.evaluate_vectors([vector])[0]

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(len(caches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == [reference] * len(caches)

    def test_batch_fallback_reports_per_tid_engines(self):
        def full_disjunction(k):
            phi = BooleanFunction.bottom(k + 1)
            for i in range(k + 1):
                phi = phi | BooleanFunction.variable(i, k + 1)
            return phi

        query = HQuery(3, full_disjunction(3))
        tids = [complete_tid(3, 1, 1) for _ in range(3)]
        result = evaluate_batch(query, tids)
        assert result.engine == "brute_force"
        assert result.engines == ["brute_force"] * 3

    def test_batch_intensional_keeps_single_label(self):
        tids = [complete_tid(3, 2, 2) for _ in range(2)]
        result = evaluate_batch(q9(), tids, method="intensional")
        assert result.engine == "intensional"
        assert result.engines is None
