"""Tests for the circuit substrate: structure, validation, probability,
and the knowledge-compilation reuse tasks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from repro.circuits import (
    Circuit,
    GateKind,
    assert_d_d,
    check_determinism_by_enumeration,
    check_determinism_by_sampling,
    circuit_to_boolean_function,
    conditioned_probability,
    copy_into,
    find_nondecomposable_gate,
    is_decomposable,
    model_count,
    most_probable_model,
    negate,
    probability,
    sample_model,
    to_nnf,
)
from repro.circuits import evaluator
from repro.circuits.validation import EXHAUSTIVE_LIMIT, CircuitPropertyError
from repro.core.boolean_function import BooleanFunction


def xor_dd() -> Circuit:
    """A tiny d-D computing x XOR y: (x ∧ ¬y) ∨ (¬x ∧ y)."""
    circuit = Circuit()
    x, y = circuit.add_var("x"), circuit.add_var("y")
    left = circuit.add_and([x, circuit.add_not(y)])
    right = circuit.add_and([circuit.add_not(x), y])
    circuit.set_output(circuit.add_or([left, right]))
    return circuit


def reference_values(circuit: Circuit, assignment) -> list[bool]:
    """Per-world reference evaluator: every gate's value in one world."""
    values: list[bool] = []
    for _, gate in circuit.gates():
        if gate.kind is GateKind.VAR:
            values.append(bool(assignment.get(gate.payload, False)))
        elif gate.kind is GateKind.CONST:
            values.append(bool(gate.payload))
        elif gate.kind is GateKind.NOT:
            values.append(not values[gate.inputs[0]])
        elif gate.kind is GateKind.AND:
            values.append(all(values[i] for i in gate.inputs))
        else:
            values.append(any(values[i] for i in gate.inputs))
    return values


def reference_overlap(circuit: Circuit, values: list[bool]) -> bool:
    """Whether some ∨-gate has two true inputs in the world of ``values``."""
    return any(
        gate.kind is GateKind.OR and sum(values[i] for i in gate.inputs) > 1
        for _, gate in circuit.gates()
    )


def random_circuit(rng: random.Random) -> Circuit:
    """0–7 variables (added in shuffled order) and 1–25 further gates,
    hash-consed or not: constants, ¬ over any gate, ∧/∨ with repeated
    inputs, gates left unreachable from a randomly chosen output, and
    sometimes no output."""
    circuit = Circuit(dedup=rng.random() < 0.5)
    labels = [f"x{i}" for i in range(rng.randint(0, 7))]
    ids = [circuit.add_var(label) for label in rng.sample(labels, len(labels))]
    for _ in range(rng.randint(1, 25)):
        roll = rng.random()
        if roll < 0.1 or not ids:
            ids.append(circuit.add_const(rng.random() < 0.5))
        elif roll < 0.3:
            ids.append(circuit.add_not(rng.choice(ids)))
        else:
            inputs = [rng.choice(ids) for _ in range(rng.randint(2, 4))]
            add = circuit.add_and if roll < 0.65 else circuit.add_or
            ids.append(add(inputs))
    if rng.random() < 0.9:
        circuit.set_output(rng.choice(ids))
    return circuit


def assert_boolean_pass_matches_reference(
    circuit: Circuit, rng: random.Random
) -> None:
    """Every consumer of the tape's Boolean pass agrees with the per-world
    reference on ``circuit``."""
    labels = sorted(circuit.variables(), key=repr)
    worlds = [
        dict(zip(labels, bits))
        for bits in itertools.product([False, True], repeat=len(labels))
    ]
    per_world = [reference_values(circuit, world) for world in worlds]
    assert check_determinism_by_enumeration(circuit) == (
        not any(reference_overlap(circuit, v) for v in per_world)
    )
    # Few samples make the verdict depend on exactly which worlds are
    # drawn, so the draw order is checked too.
    seed, samples = rng.randrange(1 << 32), rng.choice([1, 2, 3, 5, 200])
    sampler, sampled_verdict = random.Random(seed), True
    for _ in range(samples):
        world = {label: sampler.random() < 0.5 for label in labels}
        if reference_overlap(circuit, reference_values(circuit, world)):
            sampled_verdict = False
            break
    assert (
        check_determinism_by_sampling(circuit, random.Random(seed), samples)
        == sampled_verdict
    )
    try:
        output = circuit.output
    except ValueError:
        with pytest.raises(ValueError):
            circuit.evaluate({})
        return
    assert list(circuit.models_by_enumeration()) == [
        frozenset(label for label in labels if world[label])
        for world, values in zip(worlds, per_world)
        if values[output]
    ]
    order = rng.sample(labels, len(labels))[1:]  # shuffled, one dropped
    table = 0
    for mask in range(1 << len(order)):
        world = {label: bool(mask >> i & 1) for i, label in enumerate(order)}
        if reference_values(circuit, world)[output]:
            table |= 1 << mask
    assert circuit_to_boolean_function(circuit, order) == BooleanFunction(
        len(order), table
    )
    for _ in range(4):  # labels left out default to False
        world = {
            label: rng.random() < 0.5 for label in labels if rng.random() < 0.7
        }
        expected = reference_values(circuit, world)[output]
        assert circuit.evaluate(world) == expected


class TestConstruction:
    def test_var_hash_consing(self):
        circuit = Circuit()
        assert circuit.add_var("x") == circuit.add_var("x")

    def test_const_hash_consing(self):
        circuit = Circuit()
        assert circuit.add_const(True) == circuit.add_const(True)
        assert circuit.add_const(True) != circuit.add_const(False)

    def test_empty_and_is_true(self):
        circuit = Circuit()
        gate = circuit.add_and([])
        circuit.set_output(gate)
        assert circuit.evaluate({})

    def test_empty_or_is_false(self):
        circuit = Circuit()
        circuit.set_output(circuit.add_or([]))
        assert not circuit.evaluate({})

    def test_singleton_gates_collapse(self):
        circuit = Circuit()
        x = circuit.add_var("x")
        assert circuit.add_and([x]) == x
        assert circuit.add_or([x]) == x

    def test_unknown_gate_id(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.add_not(5)

    def test_output_required(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            _ = circuit.output

    def test_stats(self):
        circuit = xor_dd()
        stats = circuit.stats()
        assert stats["VAR"] == 2
        assert stats["AND"] == 2
        assert stats["OR"] == 1
        assert stats["NOT"] == 2


class TestEvaluation:
    def test_xor_semantics(self):
        circuit = xor_dd()
        assert not circuit.evaluate({"x": False, "y": False})
        assert circuit.evaluate({"x": True, "y": False})
        assert circuit.evaluate({"x": False, "y": True})
        assert not circuit.evaluate({"x": True, "y": True})

    def test_missing_variables_default_false(self):
        circuit = xor_dd()
        assert not circuit.evaluate({})
        assert circuit.evaluate({"x": True})

    def test_models_by_enumeration(self):
        models = set(xor_dd().models_by_enumeration())
        assert models == {frozenset({"x"}), frozenset({"y"})}

    def test_gate_variable_sets(self):
        circuit = xor_dd()
        sets = circuit.gate_variable_sets()
        assert sets[circuit.output] == frozenset({"x", "y"})

    def test_circuit_to_boolean_function(self):
        phi = circuit_to_boolean_function(xor_dd(), ["x", "y"])
        assert phi.sat_count() == 2
        assert phi({0}) and phi({1}) and not phi({0, 1})


class TestValidation:
    def test_xor_is_d_d(self):
        assert_d_d(xor_dd())

    def test_nondecomposable_detected(self):
        circuit = Circuit()
        x = circuit.add_var("x")
        bad = circuit.add_and([x, x and circuit.add_not(x)])
        circuit.set_output(bad)
        assert not is_decomposable(circuit)
        assert find_nondecomposable_gate(circuit) is not None
        with pytest.raises(CircuitPropertyError):
            assert_d_d(circuit)

    def test_nondeterministic_detected(self):
        circuit = Circuit()
        x, y = circuit.add_var("x"), circuit.add_var("y")
        circuit.set_output(circuit.add_or([x, y]))  # overlap at x=y=1
        assert is_decomposable(circuit)
        assert not check_determinism_by_enumeration(circuit)
        with pytest.raises(CircuitPropertyError):
            assert_d_d(circuit)

    @pytest.mark.parametrize("chunk", [evaluator.WORLD_CHUNK, 2])
    def test_boolean_pass_matches_per_world_reference(
        self, chunk, monkeypatch
    ):
        # Chunks of two worlds put every chunk boundary to the test.
        monkeypatch.setattr(evaluator, "WORLD_CHUNK", chunk)
        rng = random.Random(0xB001)
        for _ in range(400):
            assert_boolean_pass_matches_reference(random_circuit(rng), rng)

    @pytest.mark.parametrize("nvars", [16, EXHAUSTIVE_LIMIT])
    def test_overlap_in_a_single_world_is_proved(self, nvars):
        # a ∨ a overlaps only in the world where all of a's variables are
        # true: 200 sampled worlds miss it, an exhaustive proof cannot.
        circuit = Circuit()
        a = circuit.add_and([circuit.add_var(i) for i in range(nvars)])
        circuit.set_output(circuit.add_or([a, a]))
        with pytest.raises(CircuitPropertyError):
            assert_d_d(circuit)


class TestProbability:
    def test_xor_probability(self):
        p = {"x": Fraction(1, 2), "y": Fraction(1, 3)}
        # P(x xor y) = 1/2*2/3 + 1/2*1/3 = 1/2.
        assert probability(xor_dd(), p) == Fraction(1, 2)

    def test_probability_matches_enumeration(self):
        rng = random.Random(13)
        circuit = xor_dd()
        for _ in range(5):
            p = {
                "x": Fraction(rng.randint(0, 4), 4),
                "y": Fraction(rng.randint(0, 4), 4),
            }
            expected = Fraction(0)
            for mx in (False, True):
                for my in (False, True):
                    if circuit.evaluate({"x": mx, "y": my}):
                        w = (p["x"] if mx else 1 - p["x"]) * (
                            p["y"] if my else 1 - p["y"]
                        )
                        expected += w
            assert probability(circuit, p) == expected

    def test_model_count(self):
        assert model_count(xor_dd()) == 2

    def test_conditioning(self):
        p = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        assert conditioned_probability(xor_dd(), p, {"x": True}) == Fraction(
            1, 2
        )
        assert conditioned_probability(
            xor_dd(), p, {"x": True, "y": True}
        ) == Fraction(0)


class TestMpe:
    def test_mpe_simple(self):
        p = {"x": Fraction(9, 10), "y": Fraction(1, 10)}
        value, world = most_probable_model(xor_dd(), p)
        assert world == {"x": True, "y": False}
        assert value == Fraction(9, 10) * Fraction(9, 10)

    def test_mpe_unsat(self):
        circuit = Circuit()
        circuit.set_output(circuit.add_const(False))
        with pytest.raises(ValueError):
            most_probable_model(circuit, {})

    def test_mpe_matches_enumeration(self):
        rng = random.Random(17)
        circuit = xor_dd()
        for _ in range(10):
            p = {
                "x": Fraction(rng.randint(1, 7), 8),
                "y": Fraction(rng.randint(1, 7), 8),
            }
            value, world = most_probable_model(circuit, p)
            assert circuit.evaluate(world)
            # Compare against all satisfying worlds.
            best = Fraction(0)
            for mx in (False, True):
                for my in (False, True):
                    if not circuit.evaluate({"x": mx, "y": my}):
                        continue
                    w = (p["x"] if mx else 1 - p["x"]) * (
                        p["y"] if my else 1 - p["y"]
                    )
                    best = max(best, w)
            assert value == best


class TestSampling:
    def test_samples_satisfy(self):
        rng = random.Random(23)
        p = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        circuit = xor_dd()
        for _ in range(50):
            world = sample_model(circuit, p, rng)
            assert circuit.evaluate(world)

    def test_sampling_zero_probability(self):
        circuit = Circuit()
        circuit.set_output(circuit.add_const(False))
        with pytest.raises(ValueError):
            sample_model(circuit, {}, random.Random(0))

    def test_sampling_distribution(self):
        # x xor y with p = 1/2: conditioned on sat, each model has mass 1/2.
        rng = random.Random(29)
        p = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        circuit = xor_dd()
        hits = 0
        n = 400
        for _ in range(n):
            world = sample_model(circuit, p, rng)
            if world["x"]:
                hits += 1
        assert 0.35 < hits / n < 0.65


class TestOperations:
    def test_copy_into_with_rename(self):
        source = xor_dd()
        target = Circuit()
        out = copy_into(source, target, rename={"x": "a", "y": "b"})
        target.set_output(out)
        assert target.evaluate({"a": True, "b": False})
        assert target.variables() == frozenset({"a", "b"})

    def test_negate(self):
        circuit = negate(xor_dd())
        assert circuit.evaluate({"x": True, "y": True})
        assert not circuit.evaluate({"x": True, "y": False})

    def test_to_nnf_preserves_semantics(self):
        circuit = negate(xor_dd())  # has a top-level ¬ over an ∨
        nnf = to_nnf(circuit)
        assert nnf.is_nnf()
        for mx in (False, True):
            for my in (False, True):
                assignment = {"x": mx, "y": my}
                assert nnf.evaluate(assignment) == circuit.evaluate(assignment)

    def test_to_nnf_on_negated_and(self):
        circuit = Circuit()
        x, y = circuit.add_var("x"), circuit.add_var("y")
        circuit.set_output(circuit.add_not(circuit.add_and([x, y])))
        nnf = to_nnf(circuit)
        assert nnf.is_nnf()
        assert_d_d(nnf)
        for mx in (False, True):
            for my in (False, True):
                assignment = {"x": mx, "y": my}
                assert nnf.evaluate(assignment) == circuit.evaluate(assignment)
