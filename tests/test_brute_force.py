"""The brute-force route against the possible-world oracle.

``probability_by_lineage_enumeration`` serves the ``"brute_force"`` route
of ``evaluate`` and of the serving shards: it tabulates the query's
lineage once per instance content and folds the table against each
probability map.  Seeded differential tests hold it to
``probability_by_world_enumeration`` as an exact ``Fraction`` on random
h-queries (constant and non-monotone ``phi`` included) and random
UCQs/CQs, over instances of up to 12 tuples with empty relations and
probabilities of 0 and 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid, random_tid
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe import brute_force
from repro.pqe.brute_force import (
    probability_by_lineage_enumeration,
    probability_by_world_enumeration,
)
from repro.pqe.engine import CompilationCache, evaluate
from repro.pqe.extensional import ExtensionalPlanCache
from repro.queries.hqueries import HQuery
from repro.queries.ucq import UnionOfCQs
from repro.serving.shard import compute
from tests import test_lifted

pytestmark = pytest.mark.filterwarnings("error")


def random_phis(k: int, rng: random.Random) -> list[BooleanFunction]:
    """Both constants, then random functions on ``k + 1`` variables
    (mostly non-monotone)."""
    nvars = k + 1
    return [
        BooleanFunction.bottom(nvars),
        BooleanFunction.top(nvars),
        *(BooleanFunction.random(nvars, rng) for _ in range(6)),
    ]


def small_h_tid(k: int, rng: random.Random) -> TupleIndependentDatabase:
    """A random h-instance of at most 12 tuples; low densities leave
    relations empty, and probabilities range over ``{0, 1/8, ..., 1}``."""
    while True:
        tid = random_tid(k, 2, 2, rng, tuple_density=rng.choice([0.2, 0.5]))
        if len(tid) <= 12:
            return tid


class TestAgainstWorldEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_h_queries(self, k):
        rng = random.Random(0xB7F0 + k)
        empty_relations = 0
        for phi in random_phis(k, rng):
            query = HQuery(k, phi)
            for _ in range(2):
                tid = small_h_tid(k, rng)
                empty_relations += sum(
                    1 for relation in tid.instance.relations()
                    if len(relation) == 0
                )
                assert probability_by_lineage_enumeration(
                    query, tid
                ) == probability_by_world_enumeration(query, tid)
        assert empty_relations > 0

    def test_random_ucqs_and_cqs(self):
        # The lifted suite's generator: self-joins, safe and unsafe.
        rng = random.Random(0xB7F1)
        generator = test_lifted.TestRandomizedUCQs()
        sizes = []
        for trial in range(40):
            disjuncts = tuple(
                generator.random_cq(rng) for _ in range(rng.randrange(1, 3))
            )
            query = disjuncts[0] if trial % 4 == 0 else UnionOfCQs(disjuncts)
            density = 1.0 if trial % 10 == 0 else rng.choice([0.3, 0.6])
            tid = test_lifted.random_tid(rng, generator.RELS, density=density)
            sizes.append(len(tid))
            assert probability_by_lineage_enumeration(
                query, tid
            ) == probability_by_world_enumeration(query, tid)
        assert max(sizes) == 12

    @pytest.mark.parametrize("certain", [Fraction(0), Fraction(1)])
    def test_certain_probabilities(self, certain):
        # Every tuple at 0, or every tuple at 1, except one at 1/3: the
        # fold's degenerate factors must keep the exact answer.
        rng = random.Random(0xB7F2)
        for phi in random_phis(2, rng):
            query = HQuery(2, phi)
            tid = complete_tid(2, 1, 2, prob=certain)
            tid.set_probability(tid.instance.tuple_ids()[0], Fraction(1, 3))
            assert probability_by_lineage_enumeration(
                query, tid
            ) == probability_by_world_enumeration(query, tid)


class TestRoute:
    def test_evaluate_and_compute_agree(self):
        # One instance, several probability maps: the engine's exact
        # answer and the serving computation's float per map.
        rng = random.Random(0xB7F3)
        query = HQuery(3, BooleanFunction(4, 65534))  # hard, monotone
        instance = complete_tid(3, 1, 2).instance
        tids = []
        for _ in range(4):
            tid = TupleIndependentDatabase(instance)
            for tuple_id in instance.tuple_ids():
                tid.set_probability(tuple_id, Fraction(rng.randint(0, 8), 8))
            tids.append(tid)
        results = [evaluate(query, tid) for tid in tids]
        assert {result.engine for result in results} == {"brute_force"}
        assert not any(result.cache_hit for result in results)
        values, engine, hit, compile_ms = compute(
            CompilationCache(), ExtensionalPlanCache(), "brute_force",
            query, tids, None, None,
        )
        assert (engine, hit, compile_ms) == ("brute_force", False, 0.0)
        assert values == [float(result.probability) for result in results]
        assert [result.probability for result in results] == [
            probability_by_world_enumeration(query, tid) for tid in tids
        ]

    def test_table_built_once_per_instance_content(self, monkeypatch):
        builds = []
        tabulate = brute_force.circuit_to_boolean_function

        def counting(circuit, variable_order):
            builds.append(len(variable_order))
            return tabulate(circuit, variable_order)

        monkeypatch.setattr(
            brute_force, "circuit_to_boolean_function", counting
        )
        query = HQuery(2, BooleanFunction(3, 0b10010110))  # parity
        instance = complete_tid(2, 1, 2).instance
        for numerator in range(5):
            tid = TupleIndependentDatabase(instance)
            for tuple_id in instance.tuple_ids():
                tid.set_probability(tuple_id, Fraction(numerator, 4))
            assert evaluate(query, tid, method="brute_force").probability == (
                probability_by_world_enumeration(query, tid)
            )
        assert builds == [len(instance)]
        # A new fact changes the lineage: the table is rebuilt.
        instance.add("T", ("b9",))
        tid = TupleIndependentDatabase(instance)
        assert evaluate(query, tid, method="brute_force").probability == (
            probability_by_world_enumeration(query, tid)
        )
        assert builds == [len(instance) - 1, len(instance)]

    def test_refuses_more_than_22_tuples(self, monkeypatch):
        monkeypatch.setattr(
            brute_force, "circuit_to_boolean_function", None
        )  # never reached
        instance = Instance()
        for value in range(23):
            instance.add("R", (value,))
        tid = TupleIndependentDatabase(instance)
        query = HQuery(1, BooleanFunction(2, 8))
        message = "brute force refuses 23 tuples"
        with pytest.raises(ValueError, match=message):
            probability_by_lineage_enumeration(query, tid)
        with pytest.raises(ValueError, match=message):
            evaluate(query, tid, method="brute_force")
        with pytest.raises(ValueError, match=message):
            probability_by_world_enumeration(query, tid)
