"""Tests for the general lifted-inference engine (:mod:`repro.pqe.lift`).

The randomized property suite pins the Dalvi–Suciu safe-plan search and
its plan IR against the possible-world oracle on small random UCQs
(self-joins included), checks that every unsafe query is *rejected*
rather than silently answered, and asserts that lifted safety agrees
with :attr:`Classification.extensional_safe` across the whole h-query
family — the two safety notions must coincide where they overlap.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.circuits.validation import assert_d_d
from repro.core.boolean_function import BooleanFunction
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe import lift
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.dichotomy import classify, classify_query
from repro.pqe.engine import HardQueryError, evaluate, evaluate_batch
from repro.pqe.extensional import (
    build_plan,
    extensional_plan_stats,
    lattice_cache_counters,
    plan_for,
)
from repro.pqe.extensional import probability as extensional_probability
from repro.pqe.lift import (
    Complement,
    HRunKernel,
    InclusionExclusion,
    IndependentJoin,
    IndependentUnion,
    LeafAtom,
    LiftPlan,
    UnsafeQueryError,
    describe_plan,
    evaluate_plan,
    evaluate_plan_float,
    ground_circuit,
    ground_plan,
    is_liftable,
    lift_query,
    lifted_probability,
    lifted_probability_float,
)
from repro.queries.cq import Atom, ConjunctiveQuery, Constant
from repro.queries.hqueries import HQuery, q9
from repro.queries.ucq import UnionOfCQs, hquery_to_ucq
from repro.serving.api import decode_query

pytestmark = pytest.mark.filterwarnings("error")


def random_tid(rng, rels, domain=2, density=0.8):
    """A deterministic random TID over the given relation schema."""
    inst = Instance()
    for name, arity in rels.items():
        inst.declare(name, arity)
    tid = TupleIndependentDatabase(inst)
    for name, arity in sorted(rels.items()):
        for values in itertools.product(range(domain), repeat=arity):
            if rng.random() < density:
                t = inst.add(name, values)
                tid.set_probability(t, Fraction(rng.randrange(0, 9), 8))
    return tid


def h_schema(k):
    return {"R": 1, "T": 1, **{f"S{i}": 2 for i in range(1, k + 1)}}


def random_map(tid, rng, denominator=16):
    """A fresh TID over ``tid``'s instance: a random k/``denominator``
    map whose first two tuples are 0 and 1.  k/16 floats are exact, so
    they multiply and add without rounding; k/15 ones round, and only
    they show a gate whose operands are out of the interpreter's order."""
    fresh = TupleIndependentDatabase(tid.instance)
    for i, t in enumerate(tid.instance.tuple_ids()):
        fresh.set_probability(
            t,
            Fraction(i) if i < 2
            else Fraction(rng.randrange(0, denominator + 1), denominator),
        )
    return fresh


def check_grounded(plan, tid, oracle=None, enumerate_worlds=True) -> bool:
    """Check a plan's grounded tape on ``tid`` against the interpreters,
    the oracle (``oracle``, else world enumeration up to 22 tuples) and
    ``assert_d_d``; return whether the plan grounds."""
    tape = ground_plan(plan, tid.instance)
    if tape is None:
        return False
    interpreted = lift._eval_float(plan.root, {}, lift._Evaluation(tid))
    assert evaluate_plan_float(plan, tid).hex() == interpreted.hex()
    exact = evaluate_plan(plan, tid)
    assert tape.evaluate(tid.probability_map()) == exact
    if oracle is None and enumerate_worlds and len(tid) <= 22:
        oracle = probability_by_world_enumeration(plan.query, tid)
    if oracle is not None:
        assert exact == oracle
    # Without inclusion-exclusion the circuit is the plan; with it, the
    # arena holds every term's gates.
    circuit, _ = ground_circuit(plan, tid.instance)
    assert_d_d(circuit)
    return True


class TestSafetyAgreement:
    """``is_liftable`` must agree with the Figure-1 criterion
    (monotone and degenerate-or-zero-Euler) on every h-query."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_exhaustive_small_k(self, k):
        n = k + 1
        for table in range(1, 1 << (1 << n)):
            query = HQuery(k, BooleanFunction(n, table))
            assert is_liftable(query) == classify(query).extensional_safe, (
                f"k={k} table={table}"
            )

    def test_sampled_k3(self):
        rng = random.Random(0x11F7ED)
        for table in rng.sample(range(1, (1 << 16) - 1), 40):
            query = HQuery(3, BooleanFunction(4, table))
            assert is_liftable(query) == classify(query).extensional_safe

    def test_classify_query_on_non_h(self):
        safe = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))
        hard = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("S", ("x", "y")), Atom("T", ("y",)))
        )
        safe_cls = classify_query(safe)
        hard_cls = classify_query(hard)
        assert not safe_cls.h_query and not hard_cls.h_query
        assert safe_cls.extensional_safe and not hard_cls.extensional_safe
        assert hard_cls.known_hard and not safe_cls.known_hard

    def test_classify_query_is_memoized_by_value(self, monkeypatch):
        # The gateway decodes a new query object per request: equal
        # queries must share one safe-plan search, and an unequal one
        # must not reuse it.  The relation names are this test's own,
        # so the process-wide memo has not seen these queries.
        searched = []
        search = lift.lift_query

        def counting_search(query):
            searched.append(query)
            return search(query)

        monkeypatch.setattr(lift, "lift_query", counting_search)
        safe = [["Rmemo", ["x"]], ["Smemo", ["x", "y"]]]
        wire = {"ucq": [safe, [["Tmemo", ["z"]]]]}
        first, second = decode_query(wire), decode_query(wire)
        assert first == second and first is not second
        assert classify_query(first) is classify_query(second)
        assert classify_query(first).extensional_safe
        assert len(searched) == 1
        other = decode_query({"ucq": [safe]})
        assert classify_query(other).extensional_safe
        assert len(searched) == 2

    def test_hard_ucq_h1_rejected(self):
        # The classic hard union R(x)S(x,y) ∨ S(x,y)T(y) (= Q_{h_1} with
        # phi the full disjunction) has no safe plan.
        h1 = UnionOfCQs((
            ConjunctiveQuery((Atom("R", ("x",)), Atom("S1", ("x", "y")))),
            ConjunctiveQuery((Atom("S1", ("x", "y")), Atom("T", ("y",)))),
        ))
        assert not is_liftable(h1)
        with pytest.raises(UnsafeQueryError):
            lift_query(h1)


class TestHQueryParity:
    """The lifted engine on ``hquery_to_ucq(Q)`` must reproduce the
    specialized extensional engine exactly, for every safe monotone
    h-query with k <= 2."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_parity_with_extensional(self, k):
        rng = random.Random(0xB0B5 + k)
        maps = random.Random(0x16 + k)
        ucq_plans = grounded = 0
        n = k + 1
        for table in range(1, (1 << (1 << n)) - 1):
            query = HQuery(k, BooleanFunction(n, table))
            if not query.phi.is_monotone():
                continue
            if not classify(query).extensional_safe:
                continue
            tid = random_tid(rng, h_schema(k))
            lifted = lifted_probability(hquery_to_ucq(query), tid)
            extensional = extensional_probability(query, tid)
            assert lifted == extensional, f"k={k} table={table}"
            # The h-kernel plan grounds; the UCQ plan does unless it has
            # inclusion-exclusion below the root.
            kernel_plan = build_plan(query)
            ucq_plan = lift_query(hquery_to_ucq(query))
            assert check_grounded(kernel_plan, random_map(tid, maps))
            ucq_plans += 1
            grounded += check_grounded(ucq_plan, random_map(tid, maps))
            for plan in (kernel_plan, ucq_plan):
                check_grounded(
                    plan, random_map(tid, maps, 15), enumerate_worlds=False
                )
        assert 0 < grounded <= ucq_plans

    def test_extensional_plan_lowers_onto_ir(self):
        # The h-query fast path evaluates through the IR: q9's plan is an
        # inclusion-exclusion over its seven Möbius terms, each an
        # IndependentUnion of HRunKernel leaves, eleven references to
        # seven distinct kernels.
        plan, _ = plan_for(q9())
        assert isinstance(plan, LiftPlan)
        assert isinstance(plan.root, InclusionExclusion)
        assert len(plan.root.terms) == 7
        kernels = [
            kernel
            for _, union in plan.root.terms
            for kernel in union.parts
        ]
        assert all(isinstance(kernel, HRunKernel) for kernel in kernels)
        assert len(kernels) == 11
        assert len(set(kernels)) == 7
        assert plan.op_count() == 1 + 7 + 7
        rng = random.Random(0xD1CE)
        tid = random_tid(rng, h_schema(3))
        assert evaluate_plan(plan, tid) == extensional_probability(q9(), tid)
        assert evaluate_plan_float(plan, tid) == pytest.approx(
            float(extensional_probability(q9(), tid)), abs=1e-12
        )


class TestRandomizedUCQs:
    """Random small UCQs (self-joins included): every accepted query is
    answered bit-identically to world enumeration; rejections happen and
    never produce a wrong answer."""

    RELS = {"A": 1, "B": 2, "C": 1, "D": 2}
    VARS = ["x", "y", "z"]

    def random_cq(self, rng):
        atoms = []
        for _ in range(rng.randrange(1, 4)):
            rel = rng.choice(sorted(self.RELS))
            terms = tuple(
                rng.choice(self.VARS) for _ in range(self.RELS[rel])
            )
            atoms.append(Atom(rel, terms))
        return ConjunctiveQuery(tuple(atoms))

    def test_random_suite(self):
        rng = random.Random(20260807)
        maps = random.Random(0x16)
        accepted = rejected = grounded = 0
        for _ in range(120):
            query = UnionOfCQs(
                tuple(self.random_cq(rng) for _ in range(rng.randrange(1, 3)))
            )
            tid = random_tid(rng, self.RELS)
            try:
                plan = lift_query(query)
            except UnsafeQueryError:
                rejected += 1
                continue
            accepted += 1
            probability = lifted_probability(query, tid, plan=plan)
            oracle = probability_by_world_enumeration(query, tid)
            assert probability == oracle
            grounded += check_grounded(plan, tid, oracle)
            # On new maps the tape's Fraction is checked against
            # evaluate_plan, which the oracle pins just above.
            for denominator in (16, 15):
                check_grounded(
                    plan,
                    random_map(tid, maps, denominator),
                    enumerate_worlds=False,
                )
        # The generator covers both sides of the dichotomy.
        assert accepted >= 30
        assert rejected >= 5
        # Plans with inclusion-exclusion below the root keep the
        # interpreter; every other plan grounds.
        assert accepted - 10 <= grounded < accepted

    def test_constants_shatter_self_joins(self):
        rng = random.Random(7)
        tid = random_tid(rng, {"B": 2}, domain=3, density=1.0)
        query = ConjunctiveQuery((
            Atom("B", (Constant(0), "x")),
            Atom("B", (Constant(1), "y")),
        ))
        assert is_liftable(query)
        assert lifted_probability(query, tid) == (
            probability_by_world_enumeration(query, tid)
        )

    def test_float_backend_tracks_exact(self):
        rng = random.Random(99)
        tid = random_tid(rng, self.RELS)
        query = UnionOfCQs((
            ConjunctiveQuery((Atom("A", ("x",)), Atom("B", ("x", "y")))),
            ConjunctiveQuery((Atom("C", ("z",)),)),
        ))
        exact = lifted_probability(query, tid)
        approx = lifted_probability_float(query, tid)
        assert approx == pytest.approx(float(exact), abs=1e-12)


class TestPlanIR:
    def test_complement_evaluates(self):
        # Complement is IR surface the search does not currently emit;
        # the evaluators must still honor it (1 - Pr of the child).
        inst = Instance()
        inst.declare("R", 1)
        tid = TupleIndependentDatabase(inst)
        t = inst.add("R", (0,))
        tid.set_probability(t, Fraction(1, 3))
        leaf = LeafAtom("R", (0,))  # leaf terms are raw domain values
        assert evaluate_plan(Complement(leaf), tid) == Fraction(2, 3)
        assert evaluate_plan(
            Complement(IndependentJoin((leaf, Complement(leaf)))), tid
        ) == 1 - Fraction(1, 3) * Fraction(2, 3)
        assert evaluate_plan_float(Complement(leaf), tid) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_trivial_plans(self):
        inst = Instance()
        inst.declare("R", 1)
        tid = TupleIndependentDatabase(inst)
        assert evaluate_plan(IndependentJoin(()), tid) == 1
        assert evaluate_plan(IndependentUnion(()), tid) == 0

    def test_describe_plan_renders(self):
        query = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))
        text = describe_plan(lift_query(query))
        assert "project" in text or "join" in text


class TestEngineRouting:
    def setup_method(self):
        rng = random.Random(0x5AFE)
        self.tid = random_tid(rng, {"R": 1, "S": 2, "T": 1}, density=1.0)
        self.safe = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("S", ("x", "y")))
        )
        self.hard = ConjunctiveQuery(
            (Atom("R", ("x",)), Atom("S", ("x", "y")), Atom("T", ("y",)))
        )

    def test_auto_routes_safe_cq_to_lifted(self):
        result = evaluate(self.safe, self.tid)
        assert result.engine == "lifted"
        assert result.probability == probability_by_world_enumeration(
            self.safe, self.tid
        )

    def test_lifted_method_works_on_h_queries_too(self):
        rng = random.Random(0xFADE)
        tid = random_tid(rng, h_schema(2))
        query = HQuery(2, BooleanFunction.variable(1, 3))
        by_lifted = evaluate(query, tid, method="lifted")
        by_extensional = evaluate(query, tid, method="extensional")
        assert by_lifted.probability == by_extensional.probability
        assert by_lifted.engine == "extensional"

    def test_intensional_refuses_non_h_queries(self):
        with pytest.raises(ValueError, match="lifted"):
            evaluate(self.safe, self.tid, method="intensional")

    def test_hard_cq_falls_back_to_brute_force(self):
        result = evaluate(self.hard, self.tid)
        assert result.engine == "brute_force"
        assert result.probability == probability_by_world_enumeration(
            self.hard, self.tid
        )

    def test_batch_routes_lifted(self):
        rng = random.Random(0xBA7C)
        tids = [
            random_tid(rng, {"R": 1, "S": 2, "T": 1}, density=1.0)
            for _ in range(3)
        ]
        batch = evaluate_batch(self.safe, tids)
        assert batch.engine == "lifted"
        singles = [evaluate_plan_float(lift_query(self.safe), t) for t in tids]
        assert list(batch.probabilities) == singles

    def test_lifted_method_rejects_hard_query(self):
        with pytest.raises((UnsafeQueryError, HardQueryError)):
            evaluate(self.hard, self.tid, method="lifted")


class TestLatticeCacheCounters:
    """Satellite: the bounded lattice/plan caches expose hit/miss
    counters through ``extensional_plan_stats``."""

    def test_counters_shape(self):
        counters = lattice_cache_counters()
        assert set(counters) == {"mobius_terms", "cnf_lattice", "dnf_lattice"}
        for info in counters.values():
            assert set(info) == {"hits", "misses", "size", "limit"}
            assert info["limit"] is not None

    def test_counters_move_and_surface_in_stats(self):
        rng = random.Random(3)
        tid = random_tid(rng, h_schema(1))
        query = HQuery(1, BooleanFunction.variable(1, 2))
        before = lattice_cache_counters()["mobius_terms"]
        extensional_probability(query, tid)
        extensional_probability(query, tid)
        after = lattice_cache_counters()["mobius_terms"]
        assert (
            after["hits"] + after["misses"]
            >= before["hits"] + before["misses"]
        )
        stats = extensional_plan_stats()
        assert stats.lattice_caches["mobius_terms"]["limit"] is not None


class TestServingLiftedRoute:
    """A non-h safe query routes ``engine="lifted"`` end-to-end, and the
    two serving backends agree bit-for-float."""

    def build_workload(self):
        rng = random.Random(0x11F7)
        tid = random_tid(rng, {"R": 1, "S": 2}, domain=3, density=1.0)
        cq = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))
        return cq, tid

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_backend_serves_lifted(self, backend):
        from repro.serving import ShardedService

        cq, tid = self.build_workload()
        reference = evaluate_plan_float(lift_query(cq), tid)
        with ShardedService(shards=2, backend=backend) as service:
            for query in (cq, UnionOfCQs((cq,))):
                response = service.submit(query, tid).result()
                assert response.engine == "lifted"
                assert response.probability == reference

    def test_worker_codec_round_trips_every_query_shape(self):
        # The worker pipe and the gateway share one wire form; every
        # query shape survives it, also through JSON, as its own type.
        import json

        from repro.serving.api import decode_query, encode_query

        h = HQuery(2, BooleanFunction.variable(0, 3))
        cq = ConjunctiveQuery((
            Atom("R", ("x", Constant(7))),
            Atom("S", (Constant((1, (2, 3))), "y")),
        ))
        ucq = UnionOfCQs((cq, ConjunctiveQuery((Atom("T", ("z",)),))))
        for query in (h, cq, ucq):
            wire = encode_query(query)
            for payload in (wire, json.loads(json.dumps(wire))):
                decoded = decode_query(payload)
                assert decoded == query
                assert type(decoded) is type(query)
        with pytest.raises(TypeError):
            encode_query(object())

    def test_gateway_wire_form_decodes_ucqs(self):
        from repro.serving.api import decode_query

        decoded = decode_query(
            {"ucq": [[["R", ["x", {"const": 3}]]], [["S", ["x", "y"]]]]}
        )
        assert decoded == UnionOfCQs((
            ConjunctiveQuery((Atom("R", ("x", Constant(3))),)),
            ConjunctiveQuery((Atom("S", ("x", "y")),)),
        ))
        assert decode_query({"cq": [["S", ["x", "y"]]]}) == (
            ConjunctiveQuery((Atom("S", ("x", "y")),))
        )
        with pytest.raises(ValueError):
            decode_query({"ucq": [[["R", [{"bogus": 1}]]]]})


class TestGroundedPlans:
    """Plans ground into tapes: the selection and the hash seed."""

    SAFE_UCQ = UnionOfCQs((
        ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y")))),
        ConjunctiveQuery((Atom("T", ("z",)),)),
    ))

    def test_plan_over_the_limit_keeps_the_interpreter(self, monkeypatch):
        rng = random.Random(0x1A)
        tid = random_tid(rng, {"R": 1, "S": 2, "T": 1}, domain=2, density=1.0)
        plan = lift_query(self.SAFE_UCQ)
        assert check_grounded(plan, tid)  # under the real limit it grounds
        tid = random_tid(rng, {"R": 1, "S": 2, "T": 1}, domain=2, density=1.0)
        monkeypatch.setattr(lift, "GROUND_GATE_LIMIT", 5)
        interpreted = []
        eval_float = lift._eval_float

        def counting(op, env, ev):
            interpreted.append(op)
            return eval_float(op, env, ev)

        monkeypatch.setattr(lift, "_eval_float", counting)
        assert ground_plan(plan, tid.instance) is None
        value = evaluate_plan_float(plan, tid)
        assert interpreted and interpreted[0] is plan.root
        # The refusal is what the instance caches: no tape, and no
        # second grounding.
        monkeypatch.setattr(
            lift, "ground_circuit", lambda *a: pytest.fail("re-grounded")
        )
        assert ground_plan(plan, tid.instance) is None
        for _ in range(lift.GROUND_AFTER_CALLS + 1):
            assert evaluate_plan_float(plan, tid) == value
        assert value == pytest.approx(
            float(probability_by_world_enumeration(self.SAFE_UCQ, tid)),
            abs=1e-12,
        )

    def test_projection_operand_order_matches_the_interpreter(self):
        # Products of three or more rounded k/15 factors: a projection
        # or union reordered against the interpreter changes bits.
        rng = random.Random(9)
        plan = lift_query(self.SAFE_UCQ)
        for _ in range(30):
            instance = Instance()
            tid = TupleIndependentDatabase(instance)
            domain = rng.randint(3, 5)
            for x in range(domain):
                tid.add("R", (x,), Fraction(rng.randrange(1, 15), 15))
                tid.add("T", (x,), Fraction(rng.randrange(1, 5), 15))
                for y in range(domain):
                    tid.add("S", (x, y), Fraction(rng.randrange(1, 5), 15))
            interpreted = lift._eval_float(
                plan.root, {}, lift._Evaluation(tid)
            )
            assert ground_plan(plan, tid.instance) is not None
            assert evaluate_plan_float(plan, tid).hex() == interpreted.hex()

    def test_plans_ground_once_their_instance_is_reused(self, monkeypatch):
        # The first GROUND_AFTER_CALLS float calls on an instance's
        # content interpret, whichever TIDs over it they come through;
        # the next one grounds, once.
        rng = random.Random(0x2B)
        plan = lift_query(self.SAFE_UCQ)
        tid = random_tid(rng, {"R": 1, "S": 2, "T": 1}, domain=3, density=1.0)
        maps = [random_map(tid, rng, 15) for _ in range(3)]
        expected = [
            lift._eval_float(plan.root, {}, lift._Evaluation(t)).hex()
            for t in maps
        ]
        groundings = []
        ground_circuit_ = lift.ground_circuit

        def counting(*args):
            groundings.append(args)
            return ground_circuit_(*args)

        monkeypatch.setattr(lift, "ground_circuit", counting)
        for call in range(lift.GROUND_AFTER_CALLS):
            t = call % len(maps)
            assert evaluate_plan_float(plan, maps[t]).hex() == expected[t]
        assert groundings == []
        assert not any(hasattr(t, "_slot_vectors") for t in maps)
        assert evaluate_plan_float(plan, maps[0]).hex() == expected[0]
        assert len(groundings) == 1
        for call in range(2 * len(maps)):
            t = call % len(maps)
            assert evaluate_plan_float(plan, maps[t]).hex() == expected[t]
        assert len(groundings) == 1
        assert all(hasattr(t, "_slot_vectors") for t in maps)
        # A TID over other instance content starts its own count.
        other = random_tid(
            rng, {"R": 1, "S": 2, "T": 1}, domain=3, density=1.0
        )
        evaluate_plan_float(plan, other)
        assert len(groundings) == 1

    def test_concurrent_calls_count_every_interpretation(self, monkeypatch):
        # More threads than cores, switching often, on one TID: exactly
        # GROUND_AFTER_CALLS calls interpret and one grounds, which a
        # lost update of the shared call count would break.  Reading the
        # count yields the interpreter lock, inside the read-modify-write.
        import threading
        import time

        class YieldingGrounding(lift._PlanGrounding):
            __slots__ = ("_calls",)

            @property
            def calls(self):
                time.sleep(0)
                return self._calls

            @calls.setter
            def calls(self, value):
                self._calls = value

        monkeypatch.setattr(lift, "_PlanGrounding", YieldingGrounding)
        rng = random.Random(0x3C)
        plan = lift_query(self.SAFE_UCQ)
        tid = random_tid(rng, {"R": 1, "S": 2, "T": 1}, domain=3, density=1.0)
        expected = lift._eval_float(plan.root, {}, lift._Evaluation(tid))
        interpreted, groundings, wrong = [], [], []
        eval_float, ground_circuit_ = lift._eval_float, lift.ground_circuit

        def counting_eval(op, env, ev):
            if op is plan.root:
                interpreted.append(op)
            return eval_float(op, env, ev)

        def counting_ground(*args):
            groundings.append(args)
            return ground_circuit_(*args)

        monkeypatch.setattr(lift, "_eval_float", counting_eval)
        monkeypatch.setattr(lift, "ground_circuit", counting_ground)

        def worker():
            for _ in range(12):
                value = evaluate_plan_float(plan, tid)
                if value.hex() != expected.hex():
                    wrong.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(interpreted) == lift.GROUND_AFTER_CALLS
        assert len(groundings) == 1

    def test_grounded_floats_do_not_depend_on_the_hash_seed(self):
        script = (
            "from fractions import Fraction\n"
            "from repro.db.generator import complete_tid\n"
            "from repro.db.relation import Instance\n"
            "from repro.db.tid import TupleIndependentDatabase\n"
            "from repro.pqe.extensional import build_plan\n"
            "from repro.pqe import lift\n"
            "from repro.pqe.lift import evaluate_plan_float, ground_plan\n"
            "from repro.pqe.lift import lift_query\n"
            "from repro.queries.hqueries import q9\n"
            "from repro.serving.api import decode_query\n"
            "tid = complete_tid(3, 3, 4)\n"
            "rel = TupleIndependentDatabase(Instance())\n"
            "for x in ('a', 'b', 'c'):\n"
            "    rel.add('R', (x,)); rel.add('T', (x,))\n"
            "    for y in ('a', 'b', 'c'):\n"
            "        rel.add('S', (x, y))\n"
            "for t in (tid, rel):\n"
            "    for i, f in enumerate(t.instance.tuple_ids()):\n"
            "        t.set_probability(f, Fraction(i * 7 % 16, 15))\n"
            "safe = decode_query({'ucq': [[['R', ['x']], ['S', ['x', 'y']]],"
            " [['T', ['z']]]]})\n"
            "for plan, t in ((build_plan(q9()), tid), (lift_query(safe), rel)):\n"
            "    assert ground_plan(plan, t.instance) is not None\n"
            "    ev = lift._Evaluation(t)\n"
            "    interpreted = lift._eval_float(plan.root, {}, ev).hex()\n"
            "    assert evaluate_plan_float(plan, t).hex() == interpreted\n"
            "    print(interpreted)\n"
        )
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(repo_root / "src")
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(repo_root),
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs
        assert len(outputs.pop().split()) == 2
