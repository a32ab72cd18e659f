"""Intensional evaluation: the paper's d-D compilation pipeline.

This module assembles the paper's main result (Theorem 5.2): for any
H-query ``Q_phi`` with ``e(phi) = 0`` — in particular every safe H+-query
(Corollary 5.3) — a deterministic decomposable circuit for the lineage
``Lin(Q_phi, D)`` is built in polynomial time (data complexity), and the
probability then falls out of one linear bottom-up pass.  The stages:

1. ``e(phi) = 0``  →  a ≃-derivation ``phi ~> ⊥``
   (:func:`repro.core.transformation.reduce_to_bottom`, Prop. 5.9);
2. the inverted derivation  →  a ¬-∨-template with degenerate pair-function
   leaves (:func:`repro.core.fragmentation.fragment`, Prop. 5.8);
3. each leaf  →  a d-D lineage circuit via the Appendix-B.1 OBDDs
   (:mod:`repro.pqe.degenerate`, Prop. 3.7);
4. plug the leaf circuits into the template's ¬/∨ gates (Prop. 4.4): the
   ∨-gates stay deterministic because distinct h-patterns are disjoint
   events, and no new ∧-gates are introduced.

The same plumbing also provides the Section-7 d-DNNF special case (when
the colored subgraph of ``G_V[phi]`` has a perfect matching, the template
needs no ¬-gates) and the Theorem-6.2(b) *transfer*: a d-D for ``Q_phi``
yields one for any ``Q_phi'`` with ``e(phi') = e(phi)``.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.circuits.circuit import Circuit
from repro.circuits.evaluator import EvaluationTape, tape_for
from repro.circuits.operations import copy_into
from repro.core.boolean_function import BooleanFunction
from repro.core.fragmentation import (
    Fragmentation,
    Hole,
    NotNode,
    OrNode,
    fragment,
    fragment_via_matching,
)
from repro.core.transformation import transform
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.matching.perfect_matching import colored_matching
from repro.pqe.degenerate import (
    degenerate_lineage_circuit,
    pair_query_circuit,
    prefetch_pair_queries,
)
from repro.queries.hqueries import HQuery


class NotCompilableError(ValueError):
    """Raised for queries outside the technique's reach: ``e(phi) != 0``
    (by Corollary 5.4 no fragmentation exists, and by Section 6 such
    queries are #P-hard or conjectured hard)."""


@dataclass
class CompiledLineage:
    """The result of compiling ``Lin(Q_phi, D)``: the d-D circuit plus the
    fragmentation certificate it was built from.

    The circuit's evaluation tape (:mod:`repro.circuits.evaluator`) is
    cached on the object, so re-evaluation after probability updates — the
    paper's motivating reuse scenario — never re-walks the gate arena.

    ``compile_ms`` is the wall-clock cost of building the circuit and
    ``gates_saved`` the number of gate constructions served from the
    arena's hash-cons table (template gates and the ``¬v`` gates shared
    across side managers).  It *underestimates* total sharing: reuse
    inside the precompiled gate programs never requests a gate in the
    first place and shows up only in the gate counts themselves (compare
    the benchmark's seed vs. fast-path sizes).
    """

    query: HQuery
    circuit: Circuit
    fragmentation: Fragmentation
    is_nnf: bool
    compile_ms: float = 0.0
    gates_saved: int = 0

    @property
    def tape(self) -> EvaluationTape:
        """The memoized evaluation tape of the compiled circuit (shared
        with :func:`repro.circuits.probability.gate_probabilities` through
        :func:`repro.circuits.evaluator.tape_for`)."""
        return tape_for(self.circuit)

    def probability(self, tid: TupleIndependentDatabase) -> Fraction:
        """One linear bottom-up pass (the d-D payoff); exact."""
        return self.tape.evaluate(tid.probability_map())

    def probability_float(self, tid: TupleIndependentDatabase) -> float:
        """One pass on the compiled ``float`` backend, over the TID's
        memoized slot vector."""
        tape = self.tape
        return tape.evaluate_floats(tid.slot_vector(tape))

    def probability_batch(
        self,
        probs: Sequence[
            TupleIndependentDatabase | Mapping[Hashable, Fraction | float]
        ],
    ) -> list[float]:
        """``Pr(Q_phi)`` for a batch of probability maps in one vectorized
        sweep of the tape's float backend.

        Each batch member is a TID over the compiled instance (read
        through its memoized slot vector) or a bare probability map;
        tuples absent from a map default to probability 0.
        """
        tape = self.tape
        return tape.evaluate_vectors([
            p.slot_vector(tape)
            if isinstance(p, TupleIndependentDatabase)
            else tape.probability_vector(p)
            for p in probs
        ])

    def size(self) -> int:
        """Gate count of the circuit."""
        return len(self.circuit)


def _pair_of(leaf: BooleanFunction) -> tuple[int, int] | None:
    """``(flip variable, pattern)`` when the leaf is a pair function (the
    Proposition 5.8 leaves): exactly two models differing in one bit."""
    models = list(leaf.satisfying_masks())
    if len(models) == 2 and (models[0] ^ models[1]).bit_count() == 1:
        return (models[0] ^ models[1]).bit_length() - 1, models[0]
    return None


def _leaf_circuit(
    leaf: BooleanFunction, k: int, db: Instance, circuit: Circuit
) -> int:
    """A d-D gate computing ``Lin(Q_leaf, D)`` for a degenerate leaf.

    Pair functions (the Proposition 5.8 leaves) go straight to one
    pair-query circuit; ``⊥`` (the base leaf) is the constant False; any
    other degenerate function falls back to the general Proposition-3.7
    construction, merged into the shared arena.
    """
    if leaf.is_bottom():
        return circuit.add_const(False)
    pair = _pair_of(leaf)
    if pair is not None:
        return pair_query_circuit(k, pair[0], pair[1], db, circuit)
    sub = degenerate_lineage_circuit(leaf, db)
    return copy_into(sub, circuit)


def _plug_template(
    fragmentation: Fragmentation, k: int, db: Instance
) -> Circuit:
    """Proposition 4.4: materialize ``T[C_0, ..., C_n]`` as one circuit.

    The arena hash-conses its gates, so leaves sharing pair-query
    structure (and the template's repeated ¬/∨ shapes) are built once;
    the pair leaves' OBDD families are prefetched in one sweep per side.
    """
    circuit = Circuit(dedup=True)
    prefetch_pair_queries(
        k,
        (
            pair
            for leaf in fragmentation.leaves
            if not leaf.is_bottom() and (pair := _pair_of(leaf)) is not None
        ),
        db,
    )
    leaf_gates = [
        _leaf_circuit(leaf, k, db, circuit)
        for leaf in fragmentation.leaves
    ]

    def build(node) -> int:
        if isinstance(node, Hole):
            return leaf_gates[node.index]
        if isinstance(node, NotNode):
            return circuit.add_not(build(node.child))
        assert isinstance(node, OrNode)
        return circuit.add_or([build(child) for child in node.children])

    circuit.set_output(build(fragmentation.template.root))
    return circuit


def compile_lineage(query: HQuery, db: Instance) -> CompiledLineage:
    """Theorem 5.2: compile ``Lin(Q_phi, D)`` into a d-D, for any ``phi``
    with ``e(phi) = 0``.

    Degenerate ``phi`` short-circuits to the Proposition-3.7 construction;
    otherwise the ⊥-derivation template drives the build.  When the colored
    subgraph of ``G_V[phi]`` happens to have a perfect matching, the
    negation-free template is preferred (Section 7), yielding a d-DNNF.

    :raises NotCompilableError: if ``e(phi) != 0``.
    """
    phi = query.phi
    euler = phi.euler_characteristic()
    if euler != 0:
        raise NotCompilableError(
            f"e(phi) = {euler} != 0: no fragmentation "
            "exists (Corollary 5.4); the query is #P-hard or conjectured so"
        )
    started = time.perf_counter()
    if phi.is_degenerate():
        fragmentation = fragment(phi)  # single-hole template
        circuit = degenerate_lineage_circuit(phi, db)
    else:
        matching = colored_matching(phi)
        if matching is not None:
            fragmentation = fragment_via_matching(phi, matching)
        else:
            fragmentation = fragment(phi)
        circuit = _plug_template(fragmentation, query.k, db)
    return CompiledLineage(
        query,
        circuit,
        fragmentation,
        circuit.is_nnf(),
        compile_ms=(time.perf_counter() - started) * 1e3,
        gates_saved=circuit.dedup_hits,
    )


def compile_lineage_ddnnf(query: HQuery, db: Instance) -> CompiledLineage:
    """Section 7: the d-DNNF-only compilation, available exactly when
    ``phi ∼−* ⊥`` — i.e. the colored subgraph of ``G_V[phi]`` has a perfect
    matching.  The resulting circuit contains ¬ only on variables.

    :raises NotCompilableError: if no colored perfect matching exists.
    """
    phi = query.phi
    matching = colored_matching(phi)
    if matching is None:
        raise NotCompilableError(
            "the colored subgraph of G_V[phi] has no perfect matching; "
            "phi is not ∼−*-reducible to ⊥"
        )
    started = time.perf_counter()
    fragmentation = fragment_via_matching(phi, matching)
    circuit = _plug_template(fragmentation, query.k, db)
    if not circuit.is_nnf():
        raise AssertionError("matching template produced a non-NNF circuit")
    return CompiledLineage(
        query,
        circuit,
        fragmentation,
        True,
        compile_ms=(time.perf_counter() - started) * 1e3,
        gates_saved=circuit.dedup_hits,
    )


def probability(query: HQuery, tid: TupleIndependentDatabase) -> Fraction:
    """``Pr(Q_phi)`` through the intensional pipeline: compile the lineage
    on ``tid``'s instance, then one bottom-up pass.

    :raises NotCompilableError: if ``e(phi) != 0``.
    """
    return compile_lineage(query, tid.instance).probability(tid)


def transfer_lineage(
    compiled: CompiledLineage, target: HQuery, db: Instance
) -> CompiledLineage:
    """Theorem 6.2(b), constructively: given a compiled d-D for ``Q_phi``
    and a target ``Q_phi'`` with ``e(phi') = e(phi)``, extend the circuit
    along a ≃-derivation ``phi ~> phi'``: each ``+`` step ∨-joins a fresh
    pair-query circuit, each ``-`` step wraps ``¬(¬ · ∨ pair)``.  The
    result is a d-D for ``Lin(Q_phi', D)`` of polynomially larger size.

    :raises ValueError: if the Euler characteristics differ.
    """
    source_phi = compiled.query.phi
    target_phi = target.phi
    if source_phi.euler_characteristic() != target_phi.euler_characteristic():
        raise ValueError("transfer requires equal Euler characteristics")
    started = time.perf_counter()
    steps = transform(source_phi, target_phi)
    circuit = Circuit(dedup=True)
    current = copy_into(compiled.circuit, circuit)
    for step in steps:
        # Pair-query OBDDs come from the instance's shared side managers
        # (a cache keyed by (k, l, mask, instance content)), so repeated
        # steps over the same pair reuse both the OBDD and — through the
        # arena's cons table — its gates.
        leaf_gate = pair_query_circuit(
            target.k, step.variable, step.valuation, db, circuit
        )
        if step.sign > 0:
            current = circuit.add_or([current, leaf_gate])
        else:
            current = circuit.add_not(
                circuit.add_or([circuit.add_not(current), leaf_gate])
            )
    circuit.set_output(current)
    return CompiledLineage(
        target,
        circuit,
        compiled.fragmentation,
        circuit.is_nnf(),
        compile_ms=(time.perf_counter() - started) * 1e3,
        gates_saved=circuit.dedup_hits,
    )
