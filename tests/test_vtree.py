"""Tests for v-trees and structured decomposability."""

from __future__ import annotations

import random

import pytest

from repro.circuits import Circuit
from repro.circuits.vtree import (
    VtreeLeaf,
    VtreeNode,
    respects_vtree,
    right_linear_vtree,
    validate_vtree,
    vtree_of_read_once,
    vtree_variables,
)


def split_circuit() -> Circuit:
    """(a ∧ b) ∨ (¬a ∧ c) — a small decomposable circuit."""
    circuit = Circuit()
    a, b, c = (circuit.add_var(v) for v in "abc")
    left = circuit.add_and([a, b])
    right = circuit.add_and([circuit.add_not(a), c])
    circuit.set_output(circuit.add_or([left, right]))
    return circuit


class TestVtreeStructure:
    def test_variables(self):
        tree = right_linear_vtree(["a", "b", "c"])
        assert vtree_variables(tree) == frozenset("abc")

    def test_validate_rejects_duplicates(self):
        tree = VtreeNode(VtreeLeaf("a"), VtreeLeaf("a"))
        with pytest.raises(ValueError):
            validate_vtree(tree)

    def test_right_linear_shape(self):
        tree = right_linear_vtree(["a", "b", "c"])
        assert isinstance(tree, VtreeNode)
        assert tree.left == VtreeLeaf("a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            right_linear_vtree([])


class TestRespects:
    def test_split_circuit_respects_matching_tree(self):
        # a | (b, c): the ∧-gates split {a}×{b} and {a}×{c}.
        tree = VtreeNode(
            VtreeLeaf("a"), VtreeNode(VtreeLeaf("b"), VtreeLeaf("c"))
        )
        assert respects_vtree(split_circuit(), tree)

    def test_split_circuit_rejects_wrong_tree(self):
        # (a, b) | c separates {a,b} from {c}: the gate (¬a ∧ c) crosses it,
        # but {a} vs {c} fits under the root... construct a genuinely
        # incompatible case instead: ((b | c) | a) forces a-vs-b and a-vs-c
        # splits only at the root; the gate (a ∧ b) needs {a}×{b}, which the
        # root provides only as {b,c}-vs-{a}: {b} ⊆ {b,c} and {a} ⊆ {a} ✓.
        # To get a rejection, use a circuit whose ∧ joins {a,b} with {b}...
        circuit = Circuit()
        a, b, c = (circuit.add_var(v) for v in "abc")
        ab = circuit.add_and([a, b])
        circuit.set_output(circuit.add_and([ab, c]))
        # v-tree (a | (c | b)): the inner fold {a}×{b} is fine (a vs right
        # subtree), but the outer fold {a,b}×{c} is not separable: {a,b}
        # is not contained in any single side together against {c}.
        tree = VtreeNode(
            VtreeLeaf("a"), VtreeNode(VtreeLeaf("c"), VtreeLeaf("b"))
        )
        assert not respects_vtree(circuit, tree)

    def test_constants_unconstrained(self):
        circuit = Circuit()
        a = circuit.add_var("a")
        circuit.set_output(circuit.add_and([a, circuit.add_const(True)]))
        assert respects_vtree(circuit, VtreeLeaf("a"))

    def test_nary_and_folds(self):
        circuit = Circuit()
        a, b, c = (circuit.add_var(v) for v in "abc")
        circuit.set_output(circuit.add_and([a, b, c]))
        tree = VtreeNode(
            VtreeNode(VtreeLeaf("a"), VtreeLeaf("b")), VtreeLeaf("c")
        )
        assert respects_vtree(circuit, tree)


class TestInducedVtree:
    def test_read_once_circuit_respects_own_vtree(self):
        from repro.db.tid import TupleIndependentDatabase
        from repro.queries.cq import Atom, ConjunctiveQuery
        from repro.queries.hierarchical import read_once_lineage

        rng = random.Random(5)
        tid = TupleIndependentDatabase()
        from fractions import Fraction

        for x in ("a", "b"):
            tid.add("R", (x,), Fraction(1, 2))
            for y in ("c", "d"):
                if rng.random() < 0.8:
                    tid.add("S", (x, y), Fraction(1, 2))
        query = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("S", ("x", "y")))
        )
        circuit = read_once_lineage(query, tid)
        tree = vtree_of_read_once(circuit)
        assert respects_vtree(circuit, tree)

        # Instances that also drop R and T tuples: an absent tuple folds
        # its ∧ to false, and the gates already built for that ∧'s other
        # inputs must stay out of the lineage, where no v-tree of the
        # lineage places their variables.
        queries = [
            query,
            ConjunctiveQuery(
                (Atom("R", ("x",)), Atom("S", ("x", "y")), Atom("T", ("z",)))
            ),
        ]
        checked = 0
        for _ in range(40):
            tid = TupleIndependentDatabase()
            for x in ("a", "b"):
                for relation in ("R", "T"):
                    if rng.random() < 0.8:
                        tid.add(relation, (x,), Fraction(1, 2))
                for y in ("c", "d"):
                    if rng.random() < 0.8:
                        tid.add("S", (x, y), Fraction(1, 2))
            for relation, arity in (("R", 1), ("S", 2), ("T", 1)):
                tid.instance.declare(relation, arity)
            for query in queries:
                circuit = read_once_lineage(query, tid)
                if circuit.gate_variable_sets()[circuit.output]:
                    assert respects_vtree(circuit, vtree_of_read_once(circuit))
                    checked += 1
        assert checked >= 60

    def test_constant_circuit_rejected(self):
        circuit = Circuit()
        circuit.set_output(circuit.add_const(True))
        with pytest.raises(ValueError):
            vtree_of_read_once(circuit)

    def test_compiled_hquery_lineage_not_structured_by_linear_tree(self):
        # The d-Ds compiled for nondegenerate H-queries are not expected to
        # be structured by an arbitrary (right-linear) v-tree — consistent
        # with the d-SDNNF lower bound of [9] that motivated the paper's
        # move to unrestricted d-Ds.  (Not a lower-bound proof, just the
        # observable shape.)
        from repro.db.generator import complete_tid
        from repro.pqe.intensional import compile_lineage
        from repro.queries.hqueries import q9

        tid = complete_tid(3, 2, 2)
        compiled = compile_lineage(q9(), tid.instance)
        labels = sorted(compiled.circuit.variables(), key=repr)
        tree = right_linear_vtree(labels)
        assert not respects_vtree(compiled.circuit, tree)
