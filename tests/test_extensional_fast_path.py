"""Tests for the vectorized extensional fast path: columnar views,
Möbius-batched plans, the plan cache, and the extensional-vs-intensional
equivalence the paper's conjecture line of work is about."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.circuits.evaluator import EvaluationTape
from repro.circuits.validation import CircuitPropertyError, assert_d_d
from repro.core.boolean_function import BooleanFunction
from repro.db.columnar import (
    EXACT_DENOMINATOR_BITS,
    columnar_layout,
    h_columns,
)
from repro.db.generator import complete_tid, random_tid
from repro.db.relation import TupleId
from repro.db.tid import TupleIndependentDatabase
from repro.enumeration.monotone import enumerate_monotone_functions
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.engine import (
    CompilationCache,
    ExtensionalPlanCache,
    evaluate,
    evaluate_batch,
)
from repro.pqe.extensional import (
    UnsafeQueryError,
    build_plan,
    is_safe,
    plan_for,
    probability,
    probability_batch,
    probability_float,
)
from repro.pqe import lift
from repro.pqe.lift import (
    HRunKernel,
    IndependentJoin,
    InclusionExclusion,
    LiftPlan,
    evaluate_plan_float,
    ground_circuit,
    ground_plan,
    lifted_probability,
)
from repro.pqe.safe_plans import _run_probability_fractions, run_probability
from repro.queries.hqueries import HQuery, q9
from repro.queries.ucq import hquery_to_ucq
from repro.serving.shard import compute


class TestColumnarView:
    def test_layout_matches_domains_and_positions(self):
        tid = complete_tid(2, 2, 3, prob=Fraction(1, 2))
        layout = columnar_layout(tid.instance, 2)
        assert layout.xs == ("a1", "a2")
        assert layout.ys == ("b1", "b2", "b3")
        assert len(layout.r_slots) == 2
        assert len(layout.t_slots) == 3
        assert all(len(slots) == 6 for slots in layout.s_slots)

    def test_layout_is_cached_until_instance_mutation(self):
        tid = complete_tid(2, 2, 2)
        first = columnar_layout(tid.instance, 2)
        assert columnar_layout(tid.instance, 2) is first
        tid.add("R", ("a99",), Fraction(1, 2))
        assert columnar_layout(tid.instance, 2) is not first

    def test_columns_hold_probabilities_and_absent_tuples_are_zero(self):
        tid = random_tid(2, 2, 2, random.Random(5), tuple_density=0.5)
        cols = h_columns(tid, 2)
        layout = cols.layout
        D = cols.denominator
        for xi, x in enumerate(layout.xs):
            expected = (
                tid.probability_of(TupleId("R", (x,)))
                if tid.instance.has("R", (x,))
                else Fraction(0)
            )
            assert Fraction(cols.r_num[xi], D) == expected
            assert cols.r_float[xi] == float(expected)

    def test_columns_invalidate_on_probability_update(self):
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        first = h_columns(tid, 2)
        assert h_columns(tid, 2) is first
        victim = tid.instance.tuple_ids()[0]
        tid.set_probability(victim, Fraction(1, 3))
        second = h_columns(tid, 2)
        assert second is not first
        assert second.denominator == 6

    def test_exact_encoding_disabled_beyond_the_limit(self):
        tid = complete_tid(
            2, 1, 1, prob=Fraction(1, 2 ** (EXACT_DENOMINATOR_BITS + 6) + 1)
        )
        cols = h_columns(tid, 2)
        assert cols.denominator is None
        assert cols.s_num is None
        assert cols.r_float is not None

    def test_out_of_schema_relations_are_ignored_not_parsed(self):
        # "Score" starts with S but is not an S_i chain relation; like
        # the scalar fallback, the columnar path must skip it — and a
        # non-ASCII digit suffix must never alias a genuine grid.
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        tid.add("Score", ("a1", "b1"), Fraction(1, 3))
        tid.add("S٣", ("a1", "b1"), Fraction(1, 5))  # "S٣"
        cols = h_columns(tid, 2)
        assert all(
            tuple_id.relation == f"S{i + 1}"
            for i, slots in enumerate(cols.layout.s_slots)
            for _, tuple_id in slots
        )
        query = HQuery(
            2,
            BooleanFunction.variable(0, 3) | BooleanFunction.variable(2, 3),
        )
        assert probability(query, tid) == probability_by_world_enumeration(
            query, tid
        )

    def test_out_of_schema_facts_add_no_group(self):
        # Values seen only outside R, S1..Sk, T would add empty groups
        # to every sweep and to the kernels' gate bound.
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        tid.add("Score", ("u", "v"), Fraction(1, 3))
        tid.add("S3", ("w", "z"), Fraction(1, 3))
        tid.add("S01", ("a1", "b1"), Fraction(1, 3))
        layout = columnar_layout(tid.instance, 2)
        assert (layout.xs, layout.ys) == (("a1", "a2"), ("b1", "b2"))
        assert [len(slots) for slots in layout.s_slots] == [4, 4]

    @pytest.mark.parametrize(
        "facts",
        [
            [("R", ("a", "b")), ("S1", ("a", "b")), ("T", ("b",))],
            [("R", ("a",)), ("S1", ("a", "b", "c"))],
        ],
        ids=["binary-R", "ternary-S1"],
    )
    def test_facts_of_another_arity_are_ignored(self, facts):
        # No atom of h_{1,0} = R(x),S1(x,y) matches a fact of another
        # arity, so every arithmetic reads world enumeration's 0.
        tid = TupleIndependentDatabase()
        for name, values in facts:
            tid.add(name, values, Fraction(1, 2))
        query = HQuery(1, BooleanFunction.variable(0, 2))
        plan = build_plan(query)
        assert probability_by_world_enumeration(query, tid) == 0
        assert probability(query, tid, plan=plan) == 0
        assert probability_float(query, tid, plan=plan) == 0.0
        tape = ground_plan(plan, tid.instance)
        assert tape.evaluate(tid.probability_map()) == 0

    def test_per_k_cache_slots_do_not_thrash(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        k2_first = h_columns(tid, 2)
        k3_first = h_columns(tid, 3)
        assert h_columns(tid, 2) is k2_first
        assert h_columns(tid, 3) is k3_first


class TestPlans:
    def test_q9_plan_shares_runs_across_terms(self):
        plan = build_plan(q9())
        assert isinstance(plan, LiftPlan)
        assert isinstance(plan.root, InclusionExclusion)
        assert len(plan.root.terms) == 7
        # The seven Möbius terms reference eleven run kernels, collapsing
        # to seven distinct ones: the per-run group reductions are shared
        # across lattice elements, not recomputed per term.
        references = [
            kernel for _, union in plan.root.terms for kernel in union.parts
        ]
        assert all(isinstance(kernel, HRunKernel) for kernel in references)
        assert len(references) == 11
        assert len(set(references)) == 7
        assert len({id(kernel) for kernel in references}) == 7
        assert {kernel.run for kernel in references} == {
            (0, 0), (3, 3), (1, 1), (2, 3), (0, 2), (0, 1), (1, 3),
        }

    def test_constant_plans(self):
        tid = complete_tid(2, 1, 1)
        bottom = HQuery(2, BooleanFunction.bottom(3))
        top = HQuery(2, BooleanFunction.top(3))
        assert probability(bottom, tid) == 0
        assert probability(top, tid) == 1
        assert probability_float(bottom, tid) == 0.0
        assert probability_float(top, tid) == 1.0

    def test_unsafe_query_rejected_at_plan_build(self):
        phi = BooleanFunction.bottom(4)
        for i in range(4):
            phi = phi | BooleanFunction.variable(i, 4)
        with pytest.raises(UnsafeQueryError):
            build_plan(HQuery(3, phi))

    def test_plan_cache_counts_hits_misses_and_clears(self):
        cache = ExtensionalPlanCache()
        plan, hit = cache.get_or_build(q9())
        assert not hit
        again, hit = cache.get_or_build(q9())
        assert hit and again is plan
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_failed_builds_are_not_cached(self):
        cache = ExtensionalPlanCache()
        phi = BooleanFunction.bottom(4)
        for i in range(4):
            phi = phi | BooleanFunction.variable(i, 4)
        unsafe = HQuery(3, phi)
        for _ in range(2):
            with pytest.raises(UnsafeQueryError):
                cache.get_or_build(unsafe)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)
        assert len(cache) == 0

    def test_plan_cache_evicts_lru(self):
        cache = ExtensionalPlanCache(limit=2)
        queries = []
        for phi in enumerate_monotone_functions(3):
            if not phi.is_bottom():
                query = HQuery(2, phi)
                if is_safe(query):
                    queries.append(query)
            if len(queries) == 3:
                break
        for query in queries:
            cache.get_or_build(query)
        assert len(cache) == 2
        assert cache.stats().evictions == 1


class TestFloatAndBatchBackends:
    def test_float_tracks_exact(self):
        rng = random.Random(11)
        for _ in range(4):
            tid = random_tid(3, 3, 3, rng, tuple_density=0.7)
            exact = probability(q9(), tid)
            assert probability_float(q9(), tid) == pytest.approx(
                float(exact), abs=1e-12
            )

    def test_batch_is_bit_for_float_identical_to_singles(self):
        rng = random.Random(12)
        tids = [
            random_tid(3, 3, 2, rng, tuple_density=0.8) for _ in range(8)
        ]
        plan, _ = plan_for(q9())
        batch = probability_batch(q9(), tids, plan=plan)
        singles = [probability_float(q9(), tid, plan=plan) for tid in tids]
        assert batch == singles

    def test_evaluate_batch_extensional_matches_exact(self):
        rng = random.Random(13)
        tids = [
            random_tid(3, 2, 2, rng, tuple_density=0.7) for _ in range(6)
        ]
        result = evaluate_batch(q9(), tids)
        assert result.engine == "extensional"
        for got, tid in zip(result.probabilities, tids):
            assert got == pytest.approx(
                float(probability(q9(), tid)), abs=1e-12
            )


class TestExtensionalIntensionalEquivalence:
    """The conjecture as an executable test: on safe H+-queries the
    extensional and intensional engines return the *same Fraction*."""

    def test_exhaustive_safe_suite_k2(self):
        tid = random_tid(2, 3, 3, random.Random(21), tuple_density=0.8)
        cache = CompilationCache(limit=256)
        checked = 0
        for phi in enumerate_monotone_functions(3):
            query = HQuery(2, phi)
            if not is_safe(query):
                continue
            extensional = probability(query, tid)
            if phi.is_bottom() or phi.is_top():
                continue  # the compiler handles non-constant phi only
            intensional = evaluate(
                query, tid, method="intensional", cache=cache
            ).probability
            assert extensional == intensional, phi
            checked += 1
        # All nine non-constant safe monotone functions on 3 variables.
        assert checked == 9

    def test_random_safe_suite_k3(self):
        rng = random.Random(23)
        tid = random_tid(3, 3, 3, rng, tuple_density=0.75)
        cache = CompilationCache(limit=64)
        checked = 0
        while checked < 8:
            phi = BooleanFunction.random_monotone(4, rng)
            query = HQuery(3, phi)
            if phi.is_bottom() or phi.is_top() or not is_safe(query):
                continue
            extensional = probability(query, tid)
            intensional = evaluate(
                query, tid, method="intensional", cache=cache
            ).probability
            assert extensional == intensional, phi
            checked += 1


class TestEngineRouting:
    def test_auto_routes_safe_queries_without_compiling(self):
        cache = CompilationCache()
        plan_cache = ExtensionalPlanCache()
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        result = evaluate(q9(), tid, cache=cache, plan_cache=plan_cache)
        assert result.engine == "extensional"
        assert result.compiled is None
        assert result.compile_ms is None
        # No lineage was constructed: the compilation cache never saw
        # the query; the plan cache did.
        assert cache.stats().misses == 0
        assert plan_cache.stats().misses == 1

    def test_auto_exact_equals_brute_force_on_small_instances(self):
        rng = random.Random(31)
        for _ in range(3):
            tid = random_tid(3, 2, 2, rng, tuple_density=0.45)
            if not 0 < len(tid) <= 12:
                continue
            auto = evaluate(q9(), tid)
            assert auto.probability == probability_by_world_enumeration(
                q9(), tid
            )

    def test_degenerate_monotone_routes_extensionally(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        query = HQuery(3, BooleanFunction.variable(1, 4))
        result = evaluate(query, tid)
        assert result.engine == "extensional"
        assert result.probability == probability(query, tid)


class TestGroundedPlans:
    """q9's extensional plan grounded into a d-D circuit and its tape."""

    def test_q9_terms_ground_to_d_ds(self):
        plan = build_plan(q9())
        for n, m in ((1, 1), (2, 2), (3, 4)):
            tid = complete_tid(3, n, m, prob=Fraction(3, 16))
            circuit, terms = ground_circuit(plan, tid.instance)
            assert [c for c, _ in terms] == [c for c, _ in plan.root.terms]
            assert_d_d(circuit)  # every gate of every term
            tape = ground_plan(plan, tid.instance)
            assert tape.evaluate(tid.probability_map()) == probability(
                q9(), tid
            )
            with pytest.raises(ValueError):  # the sum is not a gate
                tape.evaluate_worlds([[0] * len(tape.var_labels)])

    def test_grounded_floats_equal_the_interpreter(self):
        # k/15 floats round, so an operand out of the interpreter's
        # order changes bits (k/16 ones multiply exactly).
        rng = random.Random(0x615)
        queries = [q9()]
        while len(queries) < 6:
            phi = BooleanFunction.random_monotone(4, rng)
            query = HQuery(3, phi)
            if not (phi.is_bottom() or phi.is_top()) and is_safe(query):
                queries.append(query)
        for n, m, density in ((2, 3, 1.0), (3, 3, 0.8), (4, 3, 0.7)):
            tid = random_tid(3, n, m, rng, tuple_density=density)
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(0, 16), 15))
            for query in queries:
                plan = build_plan(query)
                assert ground_plan(plan, tid.instance) is not None
                interpreted = lift._walk(plan.root, {}, lift._Float(tid))
                grounded = evaluate_plan_float(plan, tid)
                assert grounded.hex() == interpreted.hex(), (query, n, m)

    def test_chain_operand_order_matches_the_sweep(self):
        # A reordered sum or product shows only where its rounding
        # survives the 1 - x steps above it: single kernels over one or
        # two groups, with mid-range k/15 tuples (seed-fixed inputs on
        # which a reordered three-state sum changes bits).
        rng = random.Random(9)
        for _ in range(200):
            tid = complete_tid(3, rng.randint(1, 2), rng.randint(1, 2))
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(4, 14), 15))
            for run in [(0, 2), (1, 3), (1, 2)]:
                kernel = HRunKernel(run, 3)
                interpreted = lift._walk(kernel, {}, lift._Float(tid))
                assert ground_plan(kernel, tid.instance) is not None
                grounded = evaluate_plan_float(kernel, tid)
                assert grounded.hex() == interpreted.hex(), run

    def test_overlapping_runs_are_not_decomposable(self):
        # A join claiming [0..1] and [1..2] independent: both read S2.
        tid = complete_tid(3, 1, 1)
        join = IndependentJoin((HRunKernel((0, 1), 3), HRunKernel((1, 2), 3)))
        circuit, terms = ground_circuit(join, tid.instance)
        assert terms is None
        with pytest.raises(CircuitPropertyError):
            assert_d_d(circuit)

    def test_kernel_plan_over_the_limit_builds_no_gate(
        self, monkeypatch, slot_vector_reads
    ):
        plan = build_plan(q9())
        tid = random_tid(3, 4, 4, random.Random(41), tuple_density=0.8)
        assert ground_plan(plan, tid.instance) is not None
        tid = complete_tid(3, 4, 4, prob=Fraction(5, 16))
        monkeypatch.setattr(lift, "GROUND_GATE_LIMIT", 1000)
        walk = lift._walk
        h_columns_reads = []
        h_columns = lift.h_columns

        def no_grounding(op, env, arithmetic):
            if isinstance(arithmetic, lift._Grounding):
                raise AssertionError("grounded a plan over the limit")
            return walk(op, env, arithmetic)

        def h_columns_spy(t, k):
            h_columns_reads.append(t)
            return h_columns(t, k)

        monkeypatch.setattr(lift, "_walk", no_grounding)
        monkeypatch.setattr(lift, "h_columns", h_columns_spy)
        assert ground_plan(plan, tid.instance) is None
        assert tid not in slot_vector_reads
        value = probability_float(q9(), tid, plan=plan)
        assert tid not in slot_vector_reads  # the interpreter ran
        assert tid in h_columns_reads
        assert value == pytest.approx(float(probability(q9(), tid)), abs=1e-12)

    def test_slot_vectors_follow_probability_updates(self):
        # A stale slot vector would serve the old map on both tape
        # routes of serving compute.
        zero_euler = HQuery(3, BooleanFunction(4, 9369))
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        cache, plans = CompilationCache(), ExtensionalPlanCache()
        assert ground_plan(plans.get_or_build(q9())[0], tid.instance)

        def answers(t):
            return [
                compute(cache, plans, route, query, [t], None, None)[0][0]
                for route, query in (
                    ("extensional", q9()),
                    ("intensional", zero_euler),
                )
            ]

        before = answers(tid)
        assert answers(tid) == before
        for t in tid.instance.tuple_ids()[:6]:
            tid.set_probability(t, Fraction(15, 16))
        fresh = TupleIndependentDatabase(tid.instance)
        for t, p in tid.probability_map().items():
            fresh.set_probability(t, p)
        after = answers(tid)
        assert after == answers(fresh)
        assert all(a != b for a, b in zip(after, before))
        # Each tape read its own vector: the floats track the exact
        # answers.
        exact = [
            probability(q9(), fresh),
            evaluate(zero_euler, fresh, method="intensional").probability,
        ]
        assert after == pytest.approx([float(e) for e in exact], abs=1e-12)

    def test_evicted_tapes_free_their_slot_vectors(self, monkeypatch):
        # A TID outlives the compilation cache's entries: the tapes it
        # has read must not stay alive through their slot vectors.
        import gc
        import weakref

        built = []  # the tapes whose slot vectors were built, weakly
        probability_vector = EvaluationTape.probability_vector

        def spy(tape, floats):
            built.append(weakref.ref(tape))
            return probability_vector(tape, floats)

        monkeypatch.setattr(EvaluationTape, "probability_vector", spy)
        zero_euler = HQuery(3, BooleanFunction(4, 9369))
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        fingerprint = tid.instance.content_fingerprint()
        cache, plans = CompilationCache(limit=1), ExtensionalPlanCache()
        compute(cache, plans, "intensional", zero_euler, [tid], None, None)
        tape = weakref.ref(
            cache.get_or_compile(zero_euler, tid.instance, fingerprint)[0].tape
        )
        assert [ref() for ref in built] == [tape()]
        tid.slot_vector(tape())  # memoized under the tape: no rebuild
        assert len(built) == 1
        # Compiling a second query evicts the first.
        compute(cache, plans, "intensional", q9(), [tid], None, None)
        gc.collect()
        assert tape() is None
        kept = cache.get_or_compile(q9(), tid.instance, fingerprint)[0].tape
        assert len(built) == 2 and built[1]() is kept
        tid.slot_vector(kept)  # the memo outlived the evicted tape
        assert len(built) == 2

    def test_concurrent_first_calls_share_one_grounding(self):
        # More threads than cores, switching often, on one TID: every
        # thread gets the one cached tape, and each tape its own slot
        # vector, so every float equals the single-threaded one.
        import sys
        import threading

        zero_euler = HQuery(3, BooleanFunction(4, 9369))
        reference_tid = complete_tid(3, 3, 2, prob=Fraction(7, 15))
        cache, plans = CompilationCache(), ExtensionalPlanCache()
        routes = (("extensional", q9()), ("intensional", zero_euler))
        expected = [
            compute(cache, plans, route, query, [reference_tid], None, None)
            [0][0]
            for route, query in routes
        ]
        tid = complete_tid(3, 3, 2, prob=Fraction(7, 15))
        plan = plans.get_or_build(q9())[0]
        tapes, wrong = [], []

        def worker():
            for i in range(40):
                tapes.append(ground_plan(plan, tid.instance))
                route, query = routes[i % 2]
                got = compute(cache, plans, route, query, [tid], None, None)
                if got[0][0] != expected[i % 2]:
                    wrong.append((route, got[0][0]))

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
        assert len(tapes) == 240 and len({id(t) for t in tapes}) == 1

    def test_wide_denominators_take_the_exact_sweep(self):
        # Eight 16-bit primes: a common denominator between 64 bits and
        # the limit, which the integer sweep now takes.
        primes = [65521, 65519, 65497, 65479, 65449, 65447, 65437, 65423]
        tid = complete_tid(3, 2, 1)
        for i, t in enumerate(tid.instance.tuple_ids()):
            tid.set_probability(t, Fraction(i + 1, primes[i % len(primes)]))
        cols = h_columns(tid, 3)
        assert cols.denominator is not None
        assert 64 < cols.denominator.bit_length() <= EXACT_DENOMINATOR_BITS
        for run in [(0, 0), (0, 2), (1, 2), (2, 2), (1, 3), (3, 3)]:
            assert run_probability(run, 3, tid) == _run_probability_fractions(
                run, 3, tid
            )
        # The kernel plan against the Fraction interpreter of the UCQ
        # plan (which nests inclusion-exclusion, so it does not ground).
        exact = probability(q9(), tid)
        assert exact == lifted_probability(hquery_to_ucq(q9()), tid)
        assert exact == probability_by_world_enumeration(q9(), tid)
        assert evaluate_plan_float(build_plan(q9()), tid) == pytest.approx(
            float(exact), abs=1e-12
        )
