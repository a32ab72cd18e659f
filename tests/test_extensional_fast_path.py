"""Tests for the vectorized extensional fast path: columnar views,
Möbius-batched plans, the plan cache, and the extensional-vs-intensional
equivalence the paper's conjecture line of work is about."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.columnar import columnar_layout, h_columns
from repro.db.generator import complete_tid, random_tid
from repro.db.relation import TupleId
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
from repro.pqe.lift import HRunKernel, InclusionExclusion, LiftPlan
from repro.queries.hqueries import HQuery, q9


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

    def test_exact_encoding_disabled_beyond_64_bit_denominator(self):
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 2**70 + 1))
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
