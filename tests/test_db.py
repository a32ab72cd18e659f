"""Tests for the relational and TID substrate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.evaluator import tape_for
from repro.db import (
    Instance,
    TupleId,
    TupleIndependentDatabase,
    complete_tid,
    path_tid,
    random_tid,
    relation_names,
    valuation_probability,
)
from repro.db.columnar import (
    h_columns,
    probability_columns,
    relation_probability_columns,
)


class TestInstance:
    def test_add_and_lookup(self):
        db = Instance()
        tid = db.add("R", ("a",))
        assert tid == TupleId("R", ("a",))
        assert db.has("R", ("a",))
        assert not db.has("R", ("b",))

    def test_arity_enforced(self):
        db = Instance()
        db.add("S", ("a", "b"))
        with pytest.raises(ValueError):
            db.add("S", ("a",))

    def test_redeclare_conflicting_arity(self):
        db = Instance()
        db.declare("R", 1)
        with pytest.raises(ValueError):
            db.declare("R", 2)

    def test_set_semantics(self):
        db = Instance()
        db.add("R", ("a",))
        db.add("R", ("a",))
        assert len(db) == 1

    def test_tuple_ids_sorted(self):
        db = Instance()
        db.add("S1", ("b", "c"))
        db.add("R", ("a",))
        ids = db.tuple_ids()
        assert ids == sorted(ids)

    def test_active_domain(self):
        db = Instance()
        db.add("S1", ("a", "b"))
        db.add("R", ("c",))
        assert db.active_domain() == ["a", "b", "c"]

    def test_restrict_to(self):
        db = Instance()
        ta = db.add("R", ("a",))
        db.add("R", ("b",))
        world = db.restrict_to([ta])
        assert world.has("R", ("a",)) and not world.has("R", ("b",))

    def test_tuple_id_str(self):
        assert str(TupleId("S1", ("a", "b"))) == "S1(a,b)"


class TestTid:
    def test_probability_bounds(self):
        tid = TupleIndependentDatabase()
        with pytest.raises(ValueError):
            tid.add("R", ("a",), 2)
        with pytest.raises(ValueError):
            tid.add("R", ("a",), Fraction(-1, 2))

    def test_float_probabilities_exact(self):
        tid = TupleIndependentDatabase()
        t = tid.add("R", ("a",), 0.1)
        assert tid.probability_of(t) == Fraction(1, 10)

    def test_default_probability_one(self):
        tid = TupleIndependentDatabase()
        tid.instance.add("R", ("a",))
        assert tid.probability_of(TupleId("R", ("a",))) == 1

    def test_set_probability(self):
        tid = TupleIndependentDatabase()
        t = tid.add("R", ("a",), Fraction(1, 2))
        tid.set_probability(t, Fraction(1, 4))
        assert tid.probability_of(t) == Fraction(1, 4)
        with pytest.raises(KeyError):
            tid.set_probability(TupleId("R", ("zzz",)), Fraction(1, 2))

    def test_world_probabilities_sum_to_one(self):
        tid = TupleIndependentDatabase()
        tid.add("R", ("a",), Fraction(1, 3))
        tid.add("R", ("b",), Fraction(2, 5))
        tid.add("S1", ("a", "b"), Fraction(1, 2))
        total = sum(p for _, p, _ in tid.possible_worlds())
        assert total == 1

    def test_world_count(self):
        tid = TupleIndependentDatabase()
        tid.add("R", ("a",), Fraction(1, 2))
        tid.add("R", ("b",), Fraction(1, 2))
        assert len(list(tid.possible_worlds())) == 4

    def test_sample_world_respects_zero_one(self):
        tid = TupleIndependentDatabase()
        sure = tid.add("R", ("a",), 1)
        never = tid.add("R", ("b",), 0)
        rng = random.Random(5)
        for _ in range(10):
            world = tid.sample_world(rng)
            assert sure in world and never not in world

    def test_probability_floats_follow_the_fraction_map(self):
        # Every view derived from pi is memoized, and after each kind of
        # mutation equals a fresh TID's view of the same content.
        tid = TupleIndependentDatabase()
        first = tid.add("R", ("a",), Fraction(1, 3))
        tid.add("S1", ("a", "b"), Fraction(2, 7))
        tid.instance.add("T", ("b",))  # never weighted: probability 1
        circuit = Circuit()
        circuit.set_output(circuit.add_or([
            circuit.add_var(TupleId(name, values))
            for name, values in (
                ("R", ("a",)),
                ("S1", ("a", "b")),
                ("T", ("b",)),
                ("R", ("c",)),
                ("S1", ("c", "b")),
            )
        ]))
        tape = tape_for(circuit)

        def h_view(cols):
            return (
                cols.layout,
                cols.denominator,
                cols.r_num,
                cols.t_num,
                cols.s_num,
                cols.r_float.tolist(),
                cols.t_float.tolist(),
                [column.tolist() for column in cols.s_float],
            )

        views = [  # (read, comparable form)
            (TupleIndependentDatabase.probability_floats, dict),
            (lambda t: t.slot_vector(tape), list),
            (TupleIndependentDatabase.probability_fingerprint, tuple),
            (TupleIndependentDatabase.probability_digest, int),
            (probability_columns, lambda columns: columns),
            (lambda t: h_columns(t, 1), h_view),
            (
                lambda t: relation_probability_columns(t, "S1", (0,)),
                lambda groups: {k: v.tolist() for k, v in groups.items()},
            ),
        ]

        def check_views():
            fresh = TupleIndependentDatabase()
            for t, p in tid.probability_map().items():
                fresh.add(t.relation, t.values, p)
            for read, comparable in views:
                view = read(tid)
                assert read(tid) is view  # memoized
                assert comparable(view) == comparable(read(fresh))

        def expected():
            return {t: float(p) for t, p in tid.probability_map().items()}

        floats = tid.probability_floats()
        assert floats == expected()
        assert tid.probability_floats() is floats  # memoized
        check_views()
        tid.set_probability(first, Fraction(5, 9))
        after_set = tid.probability_floats()
        assert after_set == expected()
        assert after_set[first] == float(Fraction(5, 9))
        check_views()
        added = tid.add("R", ("c",), Fraction(3, 11))
        after_add = tid.probability_floats()
        assert after_add == expected()
        assert after_add[added] == float(Fraction(3, 11))
        check_views()
        # An unweighted instance insert bumps no probability version.
        unweighted = tid.instance.add("S1", ("c", "b"))
        assert tid.probability_floats()[unweighted] == 1.0
        check_views()

    def test_valuation_probability(self):
        prob = {
            "x": Fraction(1, 2),
            "y": Fraction(1, 3),
        }
        assert valuation_probability(prob, frozenset({"x"})) == Fraction(
            1, 2
        ) * Fraction(2, 3)


class TestGenerators:
    def test_relation_names(self):
        assert relation_names(3) == ["R", "S1", "S2", "S3", "T"]
        with pytest.raises(ValueError):
            relation_names(0)

    def test_complete_tid_size(self):
        tid = complete_tid(3, 2, 2)
        # 2 R + 2 T + 3 relations * 4 pairs = 16.
        assert len(tid) == 16

    def test_complete_tid_rectangular(self):
        tid = complete_tid(2, 3, 1)
        assert len(tid) == 3 + 1 + 2 * 3

    def test_path_tid_size(self):
        tid = path_tid(2, 3)
        # Per diagonal point: R, T and 2 S-tuples.
        assert len(tid) == 3 * 4

    def test_random_tid_declares_schema(self):
        tid = random_tid(3, 2, 2, random.Random(1), tuple_density=0.1)
        for name in relation_names(3):
            assert tid.instance.relation(name) is not None

    def test_complete_tid_probabilities(self):
        tid = complete_tid(1, 1, 1, prob=Fraction(1, 4))
        for t in tid.instance.tuple_ids():
            assert tid.probability_of(t) == Fraction(1, 4)
