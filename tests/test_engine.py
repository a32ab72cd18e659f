"""Tests for the unified evaluation facade."""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.dichotomy import Region
from repro.pqe.engine import (
    BRUTE_FORCE_LIMIT,
    CompilationCache,
    HardQueryError,
    clear_compilation_cache,
    compilation_cache_stats,
    evaluate,
    evaluate_batch,
)
from repro.queries.hqueries import HQuery, phi_9, q9
from tests.conftest import small_random_tid


def full_disjunction(k: int) -> BooleanFunction:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return phi


class TestAutoMode:
    def test_safe_monotone_query_uses_extensional(self):
        # Safe H+-queries take the lifted fast path: no lineage, no
        # circuit, exact Fractions from the columnar backend.
        rng = random.Random(1)
        tid = small_random_tid(3, rng)
        result = evaluate(q9(), tid)
        assert result.engine == "extensional"
        assert result.compiled is None
        assert result.classification.region is Region.ZERO_EULER
        brute = evaluate(q9(), tid, method="brute_force")
        assert result.probability == brute.probability

    def test_extensional_route_reports_plan_cache_hits(self):
        from repro.pqe.engine import ExtensionalPlanCache

        plan_cache = ExtensionalPlanCache()
        tid = complete_tid(3, 2, 2)
        first = evaluate(q9(), tid, plan_cache=plan_cache)
        second = evaluate(q9(), tid, plan_cache=plan_cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert first.probability == second.probability
        stats = plan_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_hard_query_small_instance_falls_back(self):
        tid = complete_tid(3, 1, 1)
        assert len(tid) <= BRUTE_FORCE_LIMIT
        result = evaluate(HQuery(3, full_disjunction(3)), tid)
        assert result.engine == "brute_force"
        assert result.classification.region is Region.HARD

    def test_hard_query_large_instance_refused(self):
        tid = complete_tid(3, 3, 3)  # 33 tuples
        with pytest.raises(HardQueryError):
            evaluate(HQuery(3, full_disjunction(3)), tid)

    def test_auto_agrees_with_explicit_engines(self):
        rng = random.Random(2)
        tid = small_random_tid(3, rng)
        auto = evaluate(q9(), tid)
        ext = evaluate(q9(), tid, method="extensional")
        brute = evaluate(q9(), tid, method="brute_force")
        assert auto.probability == ext.probability == brute.probability


class TestExplicitModes:
    def test_unknown_method(self):
        tid = complete_tid(3, 1, 1)
        with pytest.raises(ValueError):
            evaluate(q9(), tid, method="quantum")

    def test_intensional_rejects_nonzero_euler(self):
        from repro.pqe.intensional import NotCompilableError

        tid = complete_tid(3, 1, 1)
        with pytest.raises(NotCompilableError):
            evaluate(
                HQuery(3, full_disjunction(3)), tid, method="intensional"
            )

    def test_extensional_rejects_non_monotone(self):
        from repro.pqe.extensional import UnsafeQueryError

        tid = complete_tid(3, 1, 1)
        with pytest.raises(UnsafeQueryError):
            evaluate(HQuery(3, ~phi_9()), tid, method="extensional")

    def test_non_monotone_zero_euler_goes_intensional(self):
        # Auto handles Boolean combinations the extensional engine cannot.
        rng = random.Random(3)
        phi = None
        while phi is None or phi.euler_characteristic() != 0 or phi.is_monotone():
            phi = BooleanFunction.random(4, rng)
        tid = small_random_tid(3, rng)
        result = evaluate(HQuery(3, phi), tid)
        assert result.engine == "intensional"
        brute = evaluate(HQuery(3, phi), tid, method="brute_force")
        assert result.probability == brute.probability

    def test_compiled_reuse_from_result(self):
        from fractions import Fraction

        rng = random.Random(4)
        tid = small_random_tid(3, rng)
        result = evaluate(q9(), tid, method="intensional")
        some_tuple = tid.instance.tuple_ids()[0]
        tid.set_probability(some_tuple, Fraction(1, 9))
        updated = result.compiled.probability(tid)
        fresh = evaluate(q9(), tid, method="brute_force").probability
        assert updated == fresh


def _instance_with(*extra):
    """``R(a)``, ``S1(a,b)``, ``S2(a,b)``, ``T(b)`` at 1/2, plus ``extra``
    ``(relation, values)`` facts at 1/2."""
    tid = TupleIndependentDatabase()
    facts = (("R", ("a",)), ("S1", ("a", "b")), ("S2", ("a", "b")),
             ("T", ("b",))) + extra
    for relation, values in facts:
        tid.add(relation, values, Fraction(1, 2))
    return tid


class TestSNamedFactsOutsideTheSchema:
    """A fact whose name starts with ``S`` but matches no ``S_i`` atom
    (another arity, or no positive index) adds nothing to the side
    domains; the degenerate compiler's and the Fraction fallback's side
    scans used to read its second value and raise ``IndexError``."""

    @pytest.mark.parametrize(
        "extra",
        [("Skip", ("z",)), ("S", ("z",)), ("S1x", ("z",)), ("S3", ("z",)),
         ("S", ("a", "b", "c"))],
        ids=["Skip(z)", "S(z)", "S1x(z)", "S3(z)", "S(a,b,c)"],
    )
    @pytest.mark.parametrize("table", [3, 5, 10])
    def test_every_exact_method_answers_world_enumeration(self, extra, table):
        tid = _instance_with(extra)
        query = HQuery(2, BooleanFunction(3, table))
        expected = probability_by_world_enumeration(query, tid)
        assert evaluate(query, tid).engine == "intensional"
        for method in ("auto", "intensional", "brute_force"):
            assert evaluate(query, tid, method=method).probability == expected

    def test_phi9_with_s3_and_a_unary_s(self):
        tid = _instance_with(("S3", ("a", "b")), ("S", ("z",)))
        expected = probability_by_world_enumeration(q9(), tid)
        for method in ("auto", "extensional", "intensional", "brute_force"):
            assert evaluate(q9(), tid, method=method).probability == expected

    @pytest.mark.parametrize("run", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    def test_fraction_fallback_scans_its_own_sides(self, run):
        from repro.pqe.safe_plans import (
            _run_probability_fractions,
            run_probability,
        )

        tid = _instance_with(("Skip", ("z",)), ("S01", ("a", "c")))
        assert _run_probability_fractions(run, 2, tid) == run_probability(
            run, 2, tid
        )


class TestEvaluateBatchEdges:
    """Empty and single-element batches are well-defined (the empty
    batch used to leak the method name ``"auto"`` as its engine label)."""

    def test_empty_batch_safe_query_auto(self):
        result = evaluate_batch(q9(), [])
        assert result.probabilities == []
        assert result.engine == "extensional"
        assert result.compiled is None
        assert result.cache_hits == 0
        assert result.engines is None
        assert result.classification.region is Region.ZERO_EULER

    def test_empty_batch_nonmonotone_dd_query_auto(self):
        rng = random.Random(3)
        phi = None
        while phi is None or phi.euler_characteristic() != 0 or phi.is_monotone():
            phi = BooleanFunction.random(4, rng)
        result = evaluate_batch(HQuery(3, phi), [])
        assert result.probabilities == []
        assert result.engine == "intensional"
        assert result.compiled is None

    def test_empty_batch_intensional_method(self):
        result = evaluate_batch(q9(), [], method="intensional")
        assert result.probabilities == []
        assert result.engine == "intensional"
        assert result.compiled is None

    def test_empty_batch_hard_query_auto(self):
        query = HQuery(3, full_disjunction(3))
        result = evaluate_batch(query, [])
        assert result.probabilities == []
        assert result.engine == "brute_force"
        assert result.engines == []
        assert result.compiled is None

    def test_empty_batch_never_reports_auto(self):
        for query in (q9(), HQuery(3, full_disjunction(3))):
            assert evaluate_batch(query, []).engine != "auto"

    def test_empty_batch_unknown_method_still_raises(self):
        with pytest.raises(ValueError):
            evaluate_batch(q9(), [], method="quantum")

    def test_single_element_batch_safe_query(self):
        tid = complete_tid(3, 2, 2)
        result = evaluate_batch(q9(), [tid])
        assert result.engine == "extensional"
        assert result.compiled is None
        exact = evaluate(q9(), tid, method="extensional")
        assert result.probabilities == [
            pytest.approx(float(exact.probability), abs=1e-9)
        ]

    def test_single_element_batch_dd_intensional_method(self):
        cache = CompilationCache()
        tid = complete_tid(3, 2, 2)
        result = evaluate_batch(q9(), [tid], method="intensional", cache=cache)
        assert result.engine == "intensional"
        assert result.compiled is not None
        exact = evaluate(q9(), tid, method="intensional", cache=cache)
        assert result.probabilities == [
            pytest.approx(float(exact.probability), abs=1e-9)
        ]

    def test_single_element_batch_hard_small(self):
        query = HQuery(3, full_disjunction(3))
        tid = complete_tid(3, 1, 1)
        result = evaluate_batch(query, [tid])
        assert result.engine == "brute_force"
        assert result.engines == ["brute_force"]
        assert result.probabilities == [
            float(evaluate(query, tid, method="brute_force").probability)
        ]


class TestCacheConcurrency:
    """The per-shard cache factoring: counters stay consistent when
    ``evaluate`` races stats readers and clears across threads."""

    def test_counters_consistent_under_racing_evaluate(self):
        cache = CompilationCache()
        tids = [complete_tid(3, 2 + i, 2) for i in range(3)]
        calls_per_thread = 12
        threads_count = 6
        barrier = threading.Barrier(threads_count)
        errors: list[BaseException] = []

        def worker(seed: int):
            try:
                barrier.wait()
                for i in range(calls_per_thread):
                    tid = tids[(seed + i) % len(tids)]
                    result = evaluate(
                        q9(), tid, method="intensional", cache=cache
                    )
                    assert result.engine == "intensional"
                    compilation_cache_stats(cache)  # racing reader
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        # Every call is accounted exactly once; racing compiles of the
        # same key may each record a hit for the loser, so hits+misses
        # equals the number of cache accesses, with one miss per circuit
        # actually inserted.
        assert stats.hits + stats.misses == threads_count * calls_per_thread
        assert stats.misses == len(tids)
        assert len(cache) == len(tids)

    def test_clear_races_evaluate_without_corruption(self):
        cache = CompilationCache()
        tid = complete_tid(3, 2, 2)
        stop = threading.Event()
        errors: list[BaseException] = []

        def evaluator():
            try:
                while not stop.is_set():
                    evaluate(q9(), tid, method="intensional", cache=cache)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def churner():
            try:
                while not stop.is_set():
                    clear_compilation_cache(cache)
                    snapshot = compilation_cache_stats(cache)
                    assert snapshot.hits >= 0
                    assert snapshot.misses >= 0
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=evaluator),
            threading.Thread(target=evaluator),
            threading.Thread(target=churner),
        ]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        assert not errors
        # After the dust settles the cache still works and counts right.
        cache.clear()
        for _ in range(5):
            evaluate(q9(), tid, method="intensional", cache=cache)
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 4

    def test_caller_cache_leaves_default_cache_untouched(self):
        cache = CompilationCache()
        tid = complete_tid(3, 3, 2)
        before = compilation_cache_stats()
        evaluate(q9(), tid, method="intensional", cache=cache)
        evaluate(q9(), tid, method="intensional", cache=cache)
        after = compilation_cache_stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert cache.stats().misses == 1
        assert cache.stats().hits == 1

    def test_clearing_caller_cache_keeps_global_pair_counters(self):
        # The pair-query counters are process-wide; clearing one shard's
        # cache must not zero observability shared by every other shard.
        cache = CompilationCache()
        tid = complete_tid(3, 2, 3)
        # Explicitly intensional: generates pair-cache traffic.
        evaluate(q9(), tid, method="intensional", cache=cache)
        before = compilation_cache_stats()
        assert before.pair_hits + before.pair_misses > 0
        clear_compilation_cache(cache)
        after = compilation_cache_stats()
        assert (after.pair_hits, after.pair_misses) == (
            before.pair_hits,
            before.pair_misses,
        )
        assert len(cache) == 0
