"""Hierarchical self-join-free conjunctive queries.

The paper's introduction situates the H-queries against the classical
small-query landscape: UCQs whose lineages admit polynomial read-once
formulas are exactly the hierarchical-read-once UCQs [24, 28], and for
self-join-free Boolean CQs the safe/#P-hard frontier of [12] coincides
with being *hierarchical*: for every two query variables ``x, y``, the atom
sets ``at(x)`` and ``at(y)`` are nested or disjoint.

This module implements that baseline fragment end to end, because the
H-queries' building blocks live inside it (each ``h_{k,i}`` is hierarchical
and self-join-free) and because it exhibits the read-once extreme of the
knowledge-compilation spectrum the paper maps:

* :func:`is_hierarchical` — the syntactic dichotomy test;
* :func:`safe_plan_probability` — the lifted plan: independent project on a
  root variable, independent join across connected components, ground out
  constants (exact Fractions, polynomial data complexity);
* :func:`read_once_lineage` — the same plan grounded into the lineage as
  a read-once circuit (every tuple variable appears exactly once), whose
  probability therefore also falls out of one bottom-up pass with no
  determinism side conditions at all.

On this fragment the general safe-plan search of :mod:`repro.pqe.lift`
finds exactly that plan, so both functions check the fragment and then
run :func:`~repro.pqe.lift.lift_query`'s plan, lifted once per query by
the default extensional plan cache, through lift's walker: its exact
arithmetic, and its grounding.
"""

from __future__ import annotations

from fractions import Fraction

from repro.circuits.circuit import Circuit, GateKind
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.extensional import plan_for
from repro.pqe.lift import LiftPlan, evaluate_plan, ground_circuit
from repro.queries.cq import ConjunctiveQuery


class NotHierarchicalError(ValueError):
    """Raised when a safe-plan is requested for a non-hierarchical query
    (the #P-hard side of the self-join-free CQ dichotomy)."""


class NotSelfJoinFreeError(ValueError):
    """Raised when a query repeats a relation name (the dichotomy and the
    plan below assume self-join-freeness)."""


def atom_sets(query: ConjunctiveQuery) -> dict[str, frozenset[int]]:
    """``at(x)``: for each variable, the indices of the atoms containing
    it."""
    result: dict[str, set[int]] = {}
    for index, atom in enumerate(query.atoms):
        for variable in atom.variables():
            result.setdefault(variable, set()).add(index)
    return {v: frozenset(s) for v, s in result.items()}


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """Whether every two variables have nested-or-disjoint atom sets."""
    sets = list(atom_sets(query).values())
    for i, first in enumerate(sets):
        for second in sets[i + 1 :]:
            if first & second and not (first <= second or second <= first):
                return False
    return True


def _lifted_plan(query: ConjunctiveQuery, refusal: str) -> LiftPlan:
    """The lifted plan of a hierarchical self-join-free CQ, after the
    fragment's checks (self-joins first, then the hierarchy)."""
    names = [atom.relation for atom in query.atoms]
    if len(names) != len(set(names)):
        raise NotSelfJoinFreeError(
            f"query repeats a relation: {sorted(names)}"
        )
    if not is_hierarchical(query):
        raise NotHierarchicalError(refusal)
    return plan_for(query)[0]


def safe_plan_probability(
    query: ConjunctiveQuery, tid: TupleIndependentDatabase
) -> Fraction:
    """Exact ``Pr(query)`` for a hierarchical self-join-free Boolean CQ.

    The query's lifted plan (:func:`repro.pqe.lift.lift_query`) is the
    classical one: ground atoms over distinct relations multiply; so do
    connected components, which share no variables *and* (by
    self-join-freeness) no relations; a connected query has a root
    variable ``x`` (hierarchical + connected guarantees it), whose
    values give independent events, so ``Pr = 1 - prod over domain
    values a of (1 - Pr(query[x := a]))``.

    :raises NotSelfJoinFreeError: on a self-join.
    :raises NotHierarchicalError: on a non-hierarchical query.
    """
    plan = _lifted_plan(
        query, "non-hierarchical self-join-free CQs are #P-hard [12]"
    )
    return evaluate_plan(plan, tid)


def read_once_lineage(
    query: ConjunctiveQuery, tid: TupleIndependentDatabase
) -> Circuit:
    """The lineage of a hierarchical self-join-free CQ as a *read-once*
    circuit: the plan of :func:`safe_plan_probability` grounded into
    gates (:func:`repro.pqe.lift.ground_circuit`, with no gate limit),
    live gates only.  Every tuple variable feeds exactly one wire, so
    the circuit is trivially decomposable and its independent-or gates
    come out as ¬∧¬, the shape the standard d-D pass evaluates exactly.

    :raises NotSelfJoinFreeError: / :raises NotHierarchicalError: as above.
    """
    plan = _lifted_plan(
        query,
        "non-hierarchical self-join-free CQs have no read-once lineage "
        "in general",
    )
    grounded, _ = ground_circuit(plan, tid.instance)
    return _live_part(grounded)


def _live_part(circuit: Circuit) -> Circuit:
    """The gates ``circuit``'s output reaches: an absent tuple's false
    leaves its ∧'s other inputs' gates outside the lineage."""
    live = Circuit()
    copied: dict[int, int] = {}
    for gate_id in sorted(circuit.reachable_from_output()):
        gate = circuit.gate(gate_id)
        inputs = [copied[i] for i in gate.inputs]
        if gate.kind is GateKind.VAR:
            copied[gate_id] = live.add_var(gate.payload)
        elif gate.kind is GateKind.CONST:
            copied[gate_id] = live.add_const(gate.payload)
        elif gate.kind is GateKind.NOT:
            copied[gate_id] = live.add_not(inputs[0])
        elif gate.kind is GateKind.AND:
            copied[gate_id] = live.add_and(inputs)
        else:
            copied[gate_id] = live.add_or(inputs)
    live.set_output(copied[circuit.output])
    return live


def is_read_once_circuit(circuit: Circuit) -> bool:
    """Whether every variable gate feeds exactly one wire — the read-once
    property of the produced lineages."""
    fanout: dict[int, int] = {}
    for _, gate in circuit.gates():
        for input_id in gate.inputs:
            fanout[input_id] = fanout.get(input_id, 0) + 1
    for gate_id, gate in circuit.gates():
        if gate.kind is GateKind.VAR and fanout.get(gate_id, 0) > 1:
            return False
    return True
