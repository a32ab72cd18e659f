"""The compiled evaluation layer: tapes, float/batch backends, caches.

Property tests pin the new fast path to the semantics of the seed
implementation: the tape backends must agree with the historical per-gate
``Gate``-object loop (reproduced verbatim below as the reference oracle)
on randomly generated validated d-Ds, exactly for ``Fraction`` maps and to
float precision for the float/batch backends.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.circuits import evaluator
from repro.circuits.circuit import Circuit, GateKind
from repro.circuits.evaluator import EvaluationTape, tape_for
from repro.circuits.probability import (
    gate_probabilities,
    probability,
    sample_model,
)
from repro.circuits.validation import (
    check_determinism_by_enumeration,
    is_decomposable,
)
from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.pqe.engine import (
    clear_compilation_cache,
    compilation_cache_stats,
    evaluate,
    evaluate_batch,
)
from repro.pqe.extensional import probability as extensional_probability
from repro.pqe.intensional import compile_lineage
from repro.queries.hqueries import HQuery, q9


def reference_gate_probabilities(circuit, prob):
    """The seed per-gate loop, kept verbatim as the semantic oracle."""
    one = _reference_one_like(prob)
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


def _reference_one_like(prob):
    for value in prob.values():
        if isinstance(value, Fraction):
            return Fraction(1)
        return 1.0
    return Fraction(1)


def random_dd(rng: random.Random, labels: list[str]) -> Circuit:
    """A random validated d-D over (a subset of) ``labels``.

    Decomposable ∧-gates split the variable set; deterministic ∨-gates are
    Shannon expansions on one variable, so their branches are disjoint by
    construction.
    """
    circuit = Circuit()

    def build(variables: list[str]) -> int:
        if not variables:
            return circuit.add_const(rng.random() < 0.7)
        if len(variables) == 1 or rng.random() < 0.15:
            gate = circuit.add_var(variables[0])
            if rng.random() < 0.3:
                gate = circuit.add_not(gate)
            return gate
        if rng.random() < 0.45:
            cut = rng.randrange(1, len(variables))
            return circuit.add_and(
                [build(variables[:cut]), build(variables[cut:])]
            )
        pivot, rest = variables[0], variables[1:]
        positive = circuit.add_and(
            [circuit.add_var(pivot), build(rest)]
        )
        negative = circuit.add_and(
            [circuit.add_not(circuit.add_var(pivot)), build(rest)]
        )
        gate = circuit.add_or([positive, negative])
        if rng.random() < 0.1:
            gate = circuit.add_not(gate)
        return gate

    circuit.set_output(build(labels))
    return circuit


def random_prob_map(rng: random.Random, circuit: Circuit, exact: bool):
    prob = {}
    for label in circuit.variables():
        if rng.random() < 0.15:
            continue  # Exercise the missing-label-defaults-to-0 path.
        if exact:
            prob[label] = Fraction(rng.randrange(0, 11), 10)
        else:
            prob[label] = rng.random()
    return prob


class TestTapeAgainstReference:
    def test_random_dds_are_valid(self):
        rng = random.Random(7)
        for _ in range(10):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e"])
            assert is_decomposable(circuit)
            assert check_determinism_by_enumeration(circuit)

    def test_exact_gate_values_bit_identical(self):
        rng = random.Random(11)
        for _ in range(40):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e", "f"])
            prob = random_prob_map(rng, circuit, exact=True)
            tape = tape_for(circuit)
            assert tape.gate_values(prob) == reference_gate_probabilities(
                circuit, prob
            )
            assert tape.evaluate(prob) == reference_gate_probabilities(
                circuit, prob
            )[circuit.output]

    def test_gate_probabilities_entry_point_matches_reference(self):
        rng = random.Random(13)
        for _ in range(20):
            circuit = random_dd(rng, ["a", "b", "c", "d"])
            prob = random_prob_map(rng, circuit, exact=True)
            assert gate_probabilities(
                circuit, prob
            ) == reference_gate_probabilities(circuit, prob)

    def test_float_backend_close_to_reference(self):
        rng = random.Random(17)
        for _ in range(40):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e"])
            prob = random_prob_map(rng, circuit, exact=False)
            expected = reference_gate_probabilities(circuit, prob)[
                circuit.output
            ]
            got = tape_for(circuit).evaluate_floats(prob)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_batched_matches_single(self):
        rng = random.Random(19)
        for _ in range(10):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e"])
            tape = tape_for(circuit)
            maps = [
                random_prob_map(rng, circuit, exact=False)
                for _ in range(9)
            ]
            batch = tape.evaluate_batch(maps)
            singles = [tape.evaluate_floats(m) for m in maps]
            assert batch == singles

    def test_batch_rejects_conflicting_arguments(self):
        circuit = random_dd(random.Random(1), ["a", "b"])
        tape = tape_for(circuit)
        with pytest.raises(ValueError):
            tape.evaluate_batch([{}], matrix=[[0.5]])
        with pytest.raises(ValueError):
            tape.evaluate_batch()

    def test_empty_batch(self):
        circuit = random_dd(random.Random(2), ["a", "b"])
        assert tape_for(circuit).evaluate_batch([]) == []

    def test_constant_tape_batch(self):
        circuit = Circuit()
        circuit.set_output(circuit.add_const(True))
        tape = tape_for(circuit)
        assert tape.evaluate_batch([{}, {}, {}]) == [1.0, 1.0, 1.0]
        # The matrix layout has no way to carry a batch size here.
        with pytest.raises(ValueError, match="no variable slots"):
            tape.evaluate_batch(matrix=[])


def assert_members_bit_identical(tape, maps):
    """Each member of one numpy sweep (two or more maps) equals, bit for
    bit, every batch-of-one entry and the scalar backend on that map."""
    assert len(maps) >= 2
    batch = tape.evaluate_batch(maps)
    for prob, swept in zip(maps, batch):
        singles = {
            "evaluate_batch": tape.evaluate_batch([prob])[0],
            "evaluate_vectors": tape.evaluate_vectors(
                [tape.probability_vector(prob)]
            )[0],
            "evaluate_floats": tape.evaluate_floats(prob),
        }
        for name, single in singles.items():
            assert single == swept, (
                f"{name} gave {single.hex()}, the numpy sweep "
                f"{swept.hex()}"
            )


class TestScalarSweep:
    """A batch of one runs the generated function on Python floats; two
    or more members run it on numpy rows.  Both round every ``+``, ``*``
    and ``1.0 -`` correctly in binary64, so they return the same bits."""

    def test_random_dds(self):
        rng = random.Random(23)
        for _ in range(40):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e", "f"])
            maps = [
                random_prob_map(rng, circuit, exact=rng.random() < 0.5)
                for _ in range(rng.randrange(2, 6))
            ]
            assert_members_bit_identical(tape_for(circuit), maps)

    def test_compiled_zero_euler_lineage(self):
        rng = random.Random(29)
        query = HQuery(3, BooleanFunction(4, 9369))  # e(phi) = 0
        tids = [complete_tid(3, 2, 3) for _ in range(4)]
        for tid in tids:
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(0, 98), 97))
        compiled = compile_lineage(query, tids[0].instance)
        assert_members_bit_identical(
            compiled.tape, [tid.probability_map() for tid in tids]
        )
        batch = compiled.probability_batch(tids)
        for tid, swept in zip(tids, batch):
            assert compiled.probability_float(tid) == swept
            assert compiled.probability_batch([tid]) == [swept]
            assert swept == pytest.approx(
                float(compiled.probability(tid)), abs=1e-12
            )

    def test_constant_output_tape(self):
        for value in (True, False):
            circuit = Circuit()
            circuit.add_var("unused")
            circuit.set_output(circuit.add_const(value))
            tape = tape_for(circuit)
            maps = [{"unused": 0.25}, {}, {"unused": 1.0}]
            assert tape.evaluate_batch(maps) == [float(value)] * 3
            assert_members_bit_identical(tape, maps)

    def test_interpreted_fallback(self, monkeypatch):
        rng = random.Random(37)
        monkeypatch.setattr(evaluator, "CODEGEN_GATE_LIMIT", 0)
        for _ in range(20):
            circuit = random_dd(rng, ["a", "b", "c", "d", "e"])
            maps = [
                random_prob_map(rng, circuit, exact=False)
                for _ in range(3)
            ]
            # A fresh tape: the memoized one may already hold generated
            # code from an earlier test.
            interpreted = EvaluationTape.from_circuit(circuit)
            assert_members_bit_identical(interpreted, maps)
            assert interpreted._compiled().__name__ == "run"
            assert interpreted.evaluate_batch(maps) == tape_for(
                circuit
            ).evaluate_batch(maps)


class TestTapeCache:
    def test_tape_is_memoized_per_circuit(self):
        circuit = random_dd(random.Random(3), ["a", "b", "c"])
        assert tape_for(circuit) is tape_for(circuit)

    def test_growing_the_circuit_invalidates_the_tape(self):
        circuit = random_dd(random.Random(5), ["a", "b", "c"])
        before = tape_for(circuit)
        circuit.set_output(circuit.add_not(circuit.output))
        after = tape_for(circuit)
        assert after is not before
        prob = {label: Fraction(1, 3) for label in circuit.variables()}
        assert probability(circuit, prob) == 1 - before.evaluate(prob)

    def test_tape_without_output_supports_gate_values_only(self):
        circuit = Circuit()
        gate = circuit.add_var("x")
        circuit.add_not(gate)
        tape = EvaluationTape.from_circuit(circuit)
        values = tape.gate_values({"x": Fraction(1, 4)})
        assert values == [Fraction(1, 4), Fraction(3, 4)]
        with pytest.raises(ValueError):
            tape.evaluate({"x": Fraction(1, 4)})


class TestCompiledLineageBatch:
    def test_probability_batch_matches_exact(self):
        rng = random.Random(31)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        compiled = compile_lineage(q9(), tid.instance)
        maps = []
        for _ in range(8):
            maps.append(
                {
                    t: Fraction(rng.randrange(0, 11), 10)
                    for t in tid.instance.tuple_ids()
                }
            )
        batch = compiled.probability_batch(maps)
        exact = [float(probability(compiled.circuit, m)) for m in maps]
        assert batch == pytest.approx(exact, abs=1e-10)

    def test_probability_batch_accepts_tids(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        compiled = compile_lineage(q9(), tid.instance)
        batch = compiled.probability_batch([tid, tid])
        expected = float(compiled.probability(tid))
        assert batch == pytest.approx([expected, expected], abs=1e-12)

    def test_tape_cached_on_compiled_object(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        compiled = compile_lineage(q9(), tid.instance)
        assert compiled.tape is compiled.tape

    def test_exact_probability_agrees_with_extensional(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(2, 5))
        compiled = compile_lineage(q9(), tid.instance)
        assert compiled.probability(tid) == extensional_probability(
            q9(), tid
        )


class TestEngineCompilationCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_compilation_cache()
        yield
        clear_compilation_cache()

    def test_second_evaluate_reuses_compiled_circuit(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        first = evaluate(q9(), tid, method="intensional")
        second = evaluate(q9(), tid, method="intensional")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.compiled is first.compiled
        assert second.probability == first.probability
        stats = compilation_cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_cached_circuit_is_frozen_against_mutation(self):
        # The cached CompiledLineage is shared among all holders; a caller
        # trying to grow it (previously safe, when every evaluate()
        # compiled privately) must fail loudly instead of corrupting
        # other holders' results.
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        first = evaluate(q9(), tid, method="intensional")
        circuit = first.compiled.circuit
        with pytest.raises(ValueError, match="frozen"):
            circuit.add_not(circuit.output)
        with pytest.raises(ValueError, match="frozen"):
            circuit.set_output(0)
        second = evaluate(q9(), tid, method="intensional")
        assert second.cache_hit
        assert second.probability == first.probability

    def test_instance_mutation_misses_the_cache(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        evaluate(q9(), tid, method="intensional")
        tid.add("R", ("extra",), Fraction(1, 2))
        result = evaluate(q9(), tid, method="intensional")
        assert not result.cache_hit
        assert compilation_cache_stats().misses == 2

    def test_evaluate_batch_shares_one_compilation(self):
        rng = random.Random(37)
        tids = []
        for _ in range(5):
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(0, 11), 10))
            tids.append(tid)
        result = evaluate_batch(q9(), tids, method="intensional")
        assert result.engine == "intensional"
        per_tid = [
            float(evaluate(q9(), t, method="intensional").probability)
            for t in tids
        ]
        assert result.probabilities == pytest.approx(per_tid, abs=1e-10)
        # All five TIDs share one instance fingerprint: one compilation.
        assert compilation_cache_stats().misses == 1

    def test_evaluate_batch_rejects_unknown_method(self):
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 2))
        with pytest.raises(ValueError):
            evaluate_batch(q9(), [tid], method="brute_force")


class TestSampleModelExactDraw:
    def test_samples_satisfy_circuit(self):
        rng = random.Random(41)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        compiled = compile_lineage(q9(), tid.instance)
        prob = tid.probability_map()
        for _ in range(25):
            world = sample_model(compiled.circuit, prob, rng)
            assert compiled.circuit.evaluate(world)

    def test_underflowing_branch_mass_still_selected_exactly(self):
        # The whole ∨-gate mass underflows float (2^-1100): a float
        # cumulative-sum draw sees total = 0.0, never enters any branch and
        # falls through to the *last* input — here the branch of exact
        # probability zero.  The exact draw must pick the live branch.
        tiny = Fraction(1, 2**1100)
        assert float(tiny) == 0.0
        circuit = Circuit()
        x, y, z = (circuit.add_var(v) for v in "xyz")
        live = circuit.add_and([x, y])
        dead = circuit.add_and([circuit.add_not(x), z])
        circuit.set_output(circuit.add_or([live, dead]))
        prob = {"x": tiny, "y": Fraction(1), "z": Fraction(0)}
        rng = random.Random(43)
        for _ in range(25):
            world = sample_model(circuit, prob, rng)
            assert world == {"x": True, "y": True, "z": False}
