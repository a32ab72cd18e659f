"""Structural validation of circuits: decomposability and determinism.

Section 2 of the paper: an ∧-gate is *decomposable* when its inputs mention
pairwise-disjoint variable sets, and an ∨-gate is *deterministic* when its
inputs capture pairwise-disjoint Boolean functions.  A circuit is a d-D when
every ∧-gate is decomposable and every ∨-gate is deterministic.

Decomposability is purely syntactic and checked exactly here.  Determinism
is a semantic property (coNP-hard in general); this module offers

* :func:`check_determinism_by_enumeration` — exact, exponential in the number
  of variables, for tests on small lineages; and
* :func:`check_determinism_by_sampling` — randomized refutation for larger
  circuits (any two inputs of an ∨-gate simultaneously true under a sampled
  assignment disproves determinism).

**Boolean backend.**  Both checks run on the evaluation tape's bitmask
pass, :meth:`~repro.circuits.evaluator.EvaluationTape.world_masks`, the
one Boolean evaluator of :mod:`repro.circuits` (sampled worlds, single
assignments, truth tables and model enumeration use it too).  Each gate's
truth over a batch of worlds is one big int, bit ``s`` for world ``s``,
and an ∨-gate is non-deterministic exactly when some input's mask meets
the union of its earlier inputs' masks.  Enumeration feeds the pass all
``2**n`` worlds in chunks of ``2**16``
(:func:`~repro.circuits.evaluator.world_chunks`), so each gate mask stays
within 8 KiB; sampling packs its 200 draws into 200-bit masks and makes
one pass.  :func:`assert_d_d` therefore proves determinism exhaustively
up to :data:`EXHAUSTIVE_LIMIT` = 22 variables.  On a 2-vCPU VM a
14-variable proof over a 208–491-gate lineage takes 1–2 ms, against
4–8 s on the per-world interpreter it replaced, and a 22-variable proof
over a 173–186-gate compiled lineage takes 45–55 ms.  A 23-variable q9
lineage (508–529 gates) takes about 0.3 s and every further variable
doubles the cost, which is where sampling takes over.

The compilation pipelines of :mod:`repro.pqe.intensional` produce circuits
that are deterministic *by construction* (the paper's Propositions 4.4/5.8);
the tests re-verify this with the checkers below.
"""

from __future__ import annotations

import random
from collections.abc import Hashable

from repro.circuits.circuit import Circuit, GateKind
from repro.circuits.evaluator import (
    OP_OR,
    EvaluationTape,
    tape_for,
    world_chunks,
)


class CircuitPropertyError(AssertionError):
    """Raised when a circuit fails a claimed structural property."""


def is_decomposable(circuit: Circuit) -> bool:
    """Whether every ∧-gate has inputs over pairwise-disjoint variable sets."""
    return find_nondecomposable_gate(circuit) is None


def find_nondecomposable_gate(circuit: Circuit) -> int | None:
    """Return the id of some non-decomposable ∧-gate, or None."""
    var_sets = circuit.gate_variable_sets()
    for gate_id, gate in circuit.gates():
        if gate.kind is not GateKind.AND:
            continue
        seen: set[Hashable] = set()
        for input_id in gate.inputs:
            input_vars = var_sets[input_id]
            if seen & input_vars:
                return gate_id
            seen |= input_vars
    return None


def check_determinism_by_enumeration(circuit: Circuit) -> bool:
    """Exact determinism check by enumerating all variable assignments.

    For every assignment and every ∨-gate, at most one input may evaluate to
    True.  Exponential in ``|variables|``; reserved for validation on small
    instances.  One tape pass over the whole arena per chunk of
    :func:`~repro.circuits.evaluator.world_chunks`.
    """
    tape = tape_for(circuit)
    arena = range(len(tape))
    return not any(
        _some_or_overlaps(tape, tape.world_masks(masks, full, arena))
        for masks, full, _ in world_chunks(len(tape.var_labels))
    )


def check_determinism_by_sampling(
    circuit: Circuit, rng: random.Random, samples: int = 200
) -> bool:
    """Randomized determinism refuter: sample assignments and report False
    when two inputs of one ∨-gate are simultaneously true in one of them.
    A True result is evidence, not proof.

    Sample ``s`` draws ``rng.random() < 0.5`` for each label in ``repr``
    order; the samples become bit ``s`` of one mask per label, and one
    tape pass covers them all.
    """
    tape = tape_for(circuit)
    slot_of = {label: slot for slot, label in enumerate(tape.var_labels)}
    labels = sorted(circuit.variables(), key=repr)
    masks = [0] * len(slot_of)
    for s in range(samples):
        for label in labels:
            if rng.random() < 0.5:
                masks[slot_of[label]] |= 1 << s
    values = tape.world_masks(masks, (1 << samples) - 1, range(len(tape)))
    return not _some_or_overlaps(tape, values)


def _some_or_overlaps(tape: EvaluationTape, values: list[int]) -> bool:
    """Whether some ∨-gate has two inputs true in one world: an input's
    mask meets the union of the masks of its earlier inputs."""
    operands, arity, args = tape.operands, tape.arity, tape.args
    for i, op in enumerate(tape.opcodes):
        if op != OP_OR:
            continue
        union = 0
        for j in range(operands[i], operands[i] + arity[i]):
            mask = values[args[j]]
            if mask & union:
                return True
            union |= mask
    return False


#: Up to this many variables :func:`assert_d_d` proves determinism over
#: every world; above it, it samples.  The limit only ever moves up.
EXHAUSTIVE_LIMIT = 22


def assert_d_d(circuit: Circuit) -> None:
    """Assert the circuit is a d-D: decomposable, and deterministic
    (exactly if it has at most :data:`EXHAUSTIVE_LIMIT` variables, by
    sampling otherwise).

    :raises CircuitPropertyError: if a violation is found.
    """
    bad_gate = find_nondecomposable_gate(circuit)
    if bad_gate is not None:
        raise CircuitPropertyError(
            f"∧-gate {bad_gate} is not decomposable: "
            f"{circuit.gate(bad_gate)!r}"
        )
    if len(circuit.variables()) <= EXHAUSTIVE_LIMIT:
        if not check_determinism_by_enumeration(circuit):
            raise CircuitPropertyError("some ∨-gate is not deterministic")
    else:
        rng = random.Random(0xD5EED)
        if not check_determinism_by_sampling(circuit, rng):
            raise CircuitPropertyError(
                "some ∨-gate is not deterministic (found by sampling)"
            )


def is_dldd_shaped(circuit: Circuit) -> bool:
    """Whether every ∨-gate has the restricted *decision* shape of DLDDs
    ([6], discussed under Proposition 3.7): two inputs of the form
    ``(v ∧ g) ∨ (¬v ∧ g')`` for a common variable ``v``.

    Used by tests to confirm that the paper's d-D constructions genuinely
    leave the DLDD fragment (where the exponential lower bounds of [6] live)
    at the template gates, while OBDD-derived subcircuits stay inside it.
    """
    for _, gate in circuit.gates():
        if gate.kind is not GateKind.OR:
            continue
        if not _is_decision_or(circuit, gate.inputs):
            return False
    return True


def _is_decision_or(circuit: Circuit, inputs: tuple[int, ...]) -> bool:
    if len(inputs) != 2:
        return False
    # Collect, per branch, every literal-shaped operand of its top ∧-gate;
    # the gate is a decision iff some variable appears as a positive
    # literal in one branch and a negative literal in the other (operands
    # that are themselves variables may play either the literal or the
    # sub-circuit role, so we must consider all candidates).
    branch_literals: list[set[tuple[Hashable, bool]]] = []
    for input_id in inputs:
        gate = circuit.gate(input_id)
        if gate.kind is not GateKind.AND or len(gate.inputs) != 2:
            return False
        literals: set[tuple[Hashable, bool]] = set()
        for operand in gate.inputs:
            operand_gate = circuit.gate(operand)
            if operand_gate.kind is GateKind.VAR:
                literals.add((operand_gate.payload, True))
            elif (
                operand_gate.kind is GateKind.NOT
                and circuit.gate(operand_gate.inputs[0]).kind is GateKind.VAR
            ):
                literals.add(
                    (circuit.gate(operand_gate.inputs[0]).payload, False)
                )
        if not literals:
            return False
        branch_literals.append(literals)
    first, second = branch_literals
    return any(
        (variable, not polarity) in second for variable, polarity in first
    )
