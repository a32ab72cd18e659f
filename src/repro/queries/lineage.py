"""Lineage computation for queries on relational instances.

The lineage ``Lin(Q, D)`` (Section 2, [18]) is the Boolean function on the
facts of ``D`` mapping each sub-instance to whether it satisfies ``Q``.
For a UCQ the lineage is monotone and its DNF is the union of grounding
sets; for a general Boolean combination of CQs the lineage is the same
combination of the component lineages.

This module provides the *polynomial-time but untamed* representations:

* :func:`cq_lineage_circuit` — the monotone DNF circuit of one CQ (neither
  deterministic nor decomposable in general);
* :func:`hquery_lineage_circuit_naive` — the Boolean-combination circuit of
  an H-query built from per-``h_{k,i}`` DNFs.

These are the inputs a general-purpose weighted model counter would start
from; the point of the paper (and of :mod:`repro.pqe.intensional`) is to
produce *d-D* lineage circuits instead, on which probability is linear.
The naive circuits serve as semantic baselines in tests (same models) and
as the DNF baseline the paper mentions when discussing lower bounds
(Section 6: "the lineage of any UCQ ... can always be computed in PTIME as
a DNF").
"""

from __future__ import annotations

import itertools

from repro.circuits.circuit import Circuit
from repro.circuits.operations import circuit_to_boolean_function, copy_into
from repro.core.boolean_function import BooleanFunction
from repro.db.relation import Instance
from repro.queries.cq import ConjunctiveQuery
from repro.queries.hqueries import HQuery


def cq_lineage_circuit(query: ConjunctiveQuery, db: Instance) -> Circuit:
    """The monotone DNF lineage circuit of a CQ: one ∧-gate per match, one
    top ∨-gate.  Polynomial in ``|D|`` for a fixed query."""
    circuit = Circuit()
    clauses = []
    for witness in sorted(query.grounding_sets(db), key=repr):
        clauses.append(
            circuit.add_and([circuit.add_var(t) for t in sorted(witness)])
        )
    circuit.set_output(circuit.add_or(clauses))
    return circuit


def hquery_lineage_circuit_naive(query: HQuery, db: Instance) -> Circuit:
    """The lineage of ``Q_phi`` as the literal Boolean combination of the
    per-``h_{k,i}`` DNF lineages, with ``phi`` expanded in (non-minimized)
    DNF over its satisfying valuations:

    ``Lin(Q_phi) = ∨_{nu |= phi} [ ∧_{i in nu} Lin(h_i) ∧ ∧_{i not in nu} ¬Lin(h_i) ]``

    The top ∨ *is* deterministic (distinct h-patterns are exclusive events)
    but the ∧-gates are massively non-decomposable — this is the formal
    sense in which the naive lineage is not a d-D.  Tests use it as a
    semantic oracle; benches use it as the "what knowledge compilation must
    beat" baseline.
    """
    circuit = Circuit()
    sub_outputs = []
    for i in range(query.k + 1):
        sub_circuit = cq_lineage_circuit(query.subquery(i), db)
        sub_outputs.append(copy_into(sub_circuit, circuit))
    branches = []
    for mask in query.phi.satisfying_masks():
        literals = []
        for i in range(query.k + 1):
            if mask >> i & 1:
                literals.append(sub_outputs[i])
            else:
                literals.append(circuit.add_not(sub_outputs[i]))
        branches.append(circuit.add_and(literals))
    circuit.set_output(circuit.add_or(branches))
    return circuit


def ucq_lineage_dnf_circuit(query: HQuery, db: Instance) -> Circuit:
    """For a monotone ``phi`` (H+-query): the pure positive-DNF lineage,
    one clause per union-of-witnesses across the minimized DNF of ``phi``.

    This is the PTIME DNF representation the paper invokes when relating
    d-D lower bounds to the DNF-vs-d-DNNF separation problem.

    :raises ValueError: if the query is not a UCQ.
    """
    if not query.is_ucq():
        raise ValueError("positive DNF lineage requires a monotone phi")
    circuit = Circuit()
    clauses = []
    for clause in query.phi.minimized_dnf():
        # The UCQ disjunct for this clause is the conjunction of the h_i,
        # i in clause; its witnesses are products of per-h_i witnesses.
        witness_sets = [
            sorted(query.subquery(i).grounding_sets(db), key=repr)
            for i in sorted(clause)
        ]
        clauses.extend(
            circuit.add_and(
                [circuit.add_var(t) for t in sorted(frozenset().union(*combo))]
            )
            for combo in _product(witness_sets)
        )
    circuit.set_output(circuit.add_or(clauses))
    return circuit


def _product(witness_sets: list[list[frozenset]]) -> list[tuple[frozenset, ...]]:
    if not witness_sets:
        return []
    return list(itertools.product(*witness_sets))


def lineage_equivalent(
    circuit_a: Circuit, circuit_b: Circuit, db: Instance
) -> bool:
    """Whether two lineage circuits over the facts of ``db`` agree on every
    sub-instance (exponential; for tests)."""
    tuple_ids = db.tuple_ids()
    if len(tuple_ids) > 20:
        raise ValueError("equivalence check limited to 20 tuples")
    table_a = circuit_to_boolean_function(circuit_a, tuple_ids)
    return table_a == circuit_to_boolean_function(circuit_b, tuple_ids)


def lineage_truth_table_of_circuit(
    circuit: Circuit, db: Instance
) -> tuple[list, BooleanFunction]:
    """Tabulate a lineage circuit over the facts of ``db`` into a
    :class:`BooleanFunction` (variable ``j`` = fact ``j`` of the returned
    list); exponential, for tests."""
    tuple_ids = db.tuple_ids()
    if len(tuple_ids) > 22:
        raise ValueError("truth table limited to 22 tuples")
    return tuple_ids, circuit_to_boolean_function(circuit, tuple_ids)
