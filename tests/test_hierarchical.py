"""Tests for the hierarchical self-join-free CQ fragment."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from repro.circuits import is_decomposable, probability as circuit_probability
from repro.db.generator import complete_tid
from repro.db.tid import TupleIndependentDatabase
from repro.pqe import lift
from repro.pqe.extensional import (
    clear_extensional_plan_cache,
    extensional_plan_stats,
)
from repro.pqe.lift import lift_query
from repro.queries.cq import Atom, ConjunctiveQuery, Constant
from repro.queries.hqueries import h_query
from repro.queries.hierarchical import (
    NotHierarchicalError,
    NotSelfJoinFreeError,
    is_hierarchical,
    is_read_once_circuit,
    read_once_lineage,
    safe_plan_probability,
)


def brute_force(query: ConjunctiveQuery, tid: TupleIndependentDatabase):
    tuple_ids = tid.instance.tuple_ids()
    total = Fraction(0)
    for picks in itertools.product([False, True], repeat=len(tuple_ids)):
        present = frozenset(t for t, k in zip(tuple_ids, picks) if k)
        world = tid.instance.restrict_to(present)
        if query.holds_in(world):
            total += tid.world_probability(present)
    return total


def hk0() -> ConjunctiveQuery:
    return ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))


def hard_query() -> ConjunctiveQuery:
    """The classical non-hierarchical query R(x), S(x,y), T(y)."""
    return ConjunctiveQuery(
        (Atom("R", ("x",)), Atom("S", ("x", "y")), Atom("T", ("y",)))
    )


def random_tid(rng: random.Random) -> TupleIndependentDatabase:
    tid = TupleIndependentDatabase()
    for x in ("a", "b"):
        if rng.random() < 0.8:
            tid.add("R", (x,), Fraction(rng.randint(0, 4), 4))
        if rng.random() < 0.8:
            tid.add("T", (x,), Fraction(rng.randint(0, 4), 4))
    for x in ("a", "b"):
        for y in ("a", "b"):
            if rng.random() < 0.8:
                tid.add("S", (x, y), Fraction(rng.randint(0, 4), 4))
    tid.instance.declare("R", 1)
    tid.instance.declare("S", 2)
    tid.instance.declare("T", 1)
    return tid


class TestHierarchyTest:
    def test_hk0_is_hierarchical(self):
        assert is_hierarchical(hk0())

    def test_rst_is_not(self):
        assert not is_hierarchical(hard_query())

    def test_single_atom(self):
        assert is_hierarchical(ConjunctiveQuery((Atom("R", ("x",)),)))

    def test_disjoint_components_hierarchical(self):
        query = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("T", ("y",)))
        )
        assert is_hierarchical(query)

    def test_every_h_building_block_is_hierarchical(self):
        from repro.queries.hqueries import h_query

        for i in range(4):
            assert is_hierarchical(h_query(3, i))


class TestSafePlan:
    def test_rejects_non_hierarchical(self):
        tid = random_tid(random.Random(1))
        with pytest.raises(NotHierarchicalError):
            safe_plan_probability(hard_query(), tid)

    def test_rejects_self_join(self):
        query = ConjunctiveQuery(
            (Atom("S", ("x", "y")), Atom("S", ("y", "z")))
        )
        tid = random_tid(random.Random(2))
        with pytest.raises(NotSelfJoinFreeError):
            safe_plan_probability(query, tid)

    def test_hk0_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(5):
            tid = random_tid(rng)
            if len(tid) > 10:
                continue
            assert safe_plan_probability(hk0(), tid) == brute_force(
                hk0(), tid
            )

    def test_two_component_query(self):
        query = ConjunctiveQuery((Atom("R", ("x",)), Atom("T", ("y",))))
        rng = random.Random(4)
        for _ in range(4):
            tid = random_tid(rng)
            if len(tid) > 10:
                continue
            assert safe_plan_probability(query, tid) == brute_force(
                query, tid
            )

    def test_three_level_hierarchy(self):
        # U(x), S(x,y): at(y) ⊂ at(x) — strictly nested.
        query = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("S", ("x", "y")))
        )
        rng = random.Random(5)
        tid = random_tid(rng)
        assert safe_plan_probability(query, tid) == brute_force(query, tid)

    @pytest.mark.parametrize(
        "atom, facts",
        [
            (Atom("S", ("x",)), [("a", "b"), ("a", "c"), ("b", "b")]),
            (Atom("S", (Constant("a"), "x")), [("a",), ("b",)]),
        ],
        ids=["unary-atom-binary-relation", "binary-atom-unary-relation"],
    )
    def test_atom_of_another_arity_matches_no_fact(self, atom, facts):
        # No fact unifies with an atom of another arity, so every route
        # gives the world enumeration's 0, the projection's columnar
        # group path included.
        tid = TupleIndependentDatabase()
        for values in facts:
            tid.add("S", values, Fraction(1, 2))
        query = ConjunctiveQuery((atom,))
        plan = lift_query(query)
        assert brute_force(query, tid) == 0
        assert lift.evaluate_plan(plan, tid) == 0
        assert lift.evaluate_plan_float(plan, tid) == 0.0
        assert lift.ground_plan(plan, tid.instance).evaluate(
            tid.probability_map()
        ) == 0
        assert safe_plan_probability(query, tid) == 0
        assert circuit_probability(
            read_once_lineage(query, tid), tid.probability_map()
        ) == 0

    def test_empty_relation_gives_zero(self):
        tid = TupleIndependentDatabase()
        tid.instance.declare("R", 1)
        tid.instance.declare("S", 2)
        assert safe_plan_probability(hk0(), tid) == 0


class TestReadOnceLineage:
    def test_plan_is_lifted_once_per_query(self):
        # Both entry points read the default plan cache, so a query is
        # lifted on its first call only.
        clear_extensional_plan_cache()
        tid = random_tid(random.Random(8))
        safe_plan_probability(hk0(), tid)
        read_once_lineage(hk0(), tid)
        stats = extensional_plan_stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_lineage_is_read_once_and_decomposable(self):
        rng = random.Random(6)
        tid = random_tid(rng)
        circuit = read_once_lineage(hk0(), tid)
        assert is_read_once_circuit(circuit)
        assert is_decomposable(circuit)

    def test_lineage_probability_matches_plan(self):
        rng = random.Random(7)
        for _ in range(5):
            tid = random_tid(rng)
            circuit = read_once_lineage(hk0(), tid)
            assert circuit_probability(
                circuit, tid.probability_map()
            ) == safe_plan_probability(hk0(), tid)

    def test_lineage_semantics(self):
        rng = random.Random(8)
        tid = random_tid(rng)
        if len(tid) <= 10:
            circuit = read_once_lineage(hk0(), tid)
            tuple_ids = tid.instance.tuple_ids()
            for picks in itertools.product(
                [False, True], repeat=len(tuple_ids)
            ):
                assignment = dict(zip(tuple_ids, picks))
                present = frozenset(t for t, k in assignment.items() if k)
                world = tid.instance.restrict_to(present)
                assert circuit.evaluate(assignment) == hk0().holds_in(world)

    def test_rejects_non_hierarchical(self):
        tid = random_tid(random.Random(9))
        with pytest.raises(NotHierarchicalError):
            read_once_lineage(hard_query(), tid)

    def test_lineage_has_no_gate_limit(self, monkeypatch):
        # The lineage is the plan's grounding without a gate limit;
        # only what ground_plan caches for an instance is held to one.
        query = h_query(3, 1)
        tid = complete_tid(3, 4, 4, prob=Fraction(1, 2))
        monkeypatch.setattr(lift, "GROUND_GATE_LIMIT", 5)
        circuit = read_once_lineage(query, tid)
        assert len(circuit) > lift.GROUND_GATE_LIMIT
        assert is_read_once_circuit(circuit)
        assert is_decomposable(circuit)
        assert circuit_probability(
            circuit, tid.probability_map()
        ) == safe_plan_probability(query, tid)
        assert lift.ground_plan(lift_query(query), tid.instance) is None
