"""Tests for the vectorized sampling engine (:mod:`repro.pqe.approximate`
on the counter-based draw stream of :mod:`repro.db.tid`).

The contracts under test:

* **draw-stream determinism** — vector draws and worlds equal the
  scalar definition :func:`~repro.db.tid._py_uniform_below` cell by cell,
  fixed-seed estimates equal a per-sample scalar evaluation of the same
  stream, and the stream has the prefix property (wave/chunk boundaries
  are invisible);
* **exactness** — per-tuple draws are exactly ``Bernoulli(p)`` by
  integer rejection, including probabilities whose denominators exceed
  64 bits;
* **statistical correctness** — estimates cover brute-force truth on a
  small hard-query zoo, for both estimators, monotone and not;
* **budget adaptivity** — adaptive runs stop early when the target is
  met, never exceed the fixed-count worst case, and agree bit-for-bit
  with a fixed run of the same length;
* **interval reporting** — the normal half-width is exactly zero at
  0/n hits (no phantom ``1e-12`` floor), the Wilson option never is.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod

import pytest

from repro.circuits.evaluator import tape_for
from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.db.tid import (
    DrawStream,
    TupleIndependentDatabase,
    WorldSampler,
    _py_uniform_below,
    _stream_base,
)
from repro.pqe.approximate import (
    CLAUSE_LANE,
    WORLD_LANE,
    AccuracyBudget,
    Estimate,
    SamplingPlan,
    approximate_probability,
    half_width,
    karp_luby_probability,
    karp_luby_probability_vectorized,
    monte_carlo_probability_vectorized,
    sampling_plan,
)
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.engine import HardQueryError, evaluate, evaluate_batch
from repro.queries.hqueries import HQuery, q9
from repro.queries.lineage import hquery_lineage_circuit_naive
from repro.queries.ucq import hquery_to_ucq


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def hard_non_monotone(k: int = 3) -> HQuery:
    rng = random.Random(0xA11CE)
    while True:
        phi = BooleanFunction.random(k + 1, rng)
        if phi.euler_characteristic() != 0 and not phi.is_monotone():
            return HQuery(k, phi)


def scalar_reference(query, tid, samples, seed, engine):
    """The fixed-count estimate, one sample at a time on the scalar draw
    definition: world cell ``(s, t)`` is present iff world-lane draw
    ``s * n + t`` lands below tuple ``t``'s numerator; Karp–Luby picks
    the clause owning clause-lane draw ``s``, forces its tuples, and
    hits iff that clause is the first satisfied one in canonical order;
    Monte Carlo hits iff the query holds in the world."""
    ids = tid.instance.tuple_ids()
    probabilities = [tid.probability_of(t) for t in ids]
    world_base = _stream_base(seed, WORLD_LANE)
    clause_base = _stream_base(seed, CLAUSE_LANE)
    scale = 1.0
    if engine == "karp_luby":
        clauses = sorted(
            hquery_to_ucq(query).grounding_sets(tid.instance), key=sorted
        )
        weights = [
            prod((tid.probability_of(t) for t in clause), start=Fraction(1))
            for clause in clauses
        ]
        denominator = lcm(*(w.denominator for w in weights))
        cumulative = list(
            accumulate(
                w.numerator * (denominator // w.denominator) for w in weights
            )
        )
        scale = float(sum(weights))
    hits = 0
    for s in range(samples):
        world = {
            t
            for column, (t, p) in enumerate(zip(ids, probabilities))
            if _py_uniform_below(
                world_base, s * len(ids) + column, p.denominator
            ) < p.numerator
        }
        if engine == "monte_carlo":
            hits += query.holds_in(tid.instance.restrict_to(frozenset(world)))
            continue
        draw = _py_uniform_below(clause_base, s, cumulative[-1])
        index = bisect_right(cumulative, draw)
        world |= clauses[index]
        first = next(j for j, c in enumerate(clauses) if c <= world)
        hits += first == index
    return Estimate(
        scale * (hits / samples), half_width(hits, samples, scale), samples
    )


class TestDrawStream:
    def test_numpy_and_python_worlds_identical(self):
        probabilities = [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(2, 7),
            Fraction(0),
            Fraction(1),
            Fraction(5, 12),
            Fraction(1, 2**70 + 3),  # big-denominator path
        ]
        sampler = WorldSampler(probabilities, seed=42)
        base = _stream_base(42, 0)
        n = len(probabilities)
        scalar = [
            [
                int(
                    _py_uniform_below(base, s * n + t, p.denominator)
                    < p.numerator
                )
                for t, p in enumerate(probabilities)
            ]
            for s in range(64)
        ]
        assert sampler.sample(0, 64).tolist() == scalar

    def test_prefix_property_across_wave_boundaries(self):
        probabilities = [Fraction(1, 3)] * 5
        sampler = WorldSampler(probabilities, seed=9)
        whole = sampler.sample(0, 40).tolist()
        split = sampler.sample(0, 13).tolist()
        split += sampler.sample(13, 27).tolist()
        assert whole == split

    def test_draws_uniform_and_exact_over_small_denominator(self):
        # Over many counters the empirical frequency of a 1/3 draw must
        # sit near 1/3 (the draw itself is exact per counter; this is a
        # sanity check of the mix quality, not of rounding).
        sampler = WorldSampler([Fraction(1, 3)], seed=7)
        worlds = sampler.sample(0, 30_000)
        frequency = float(worlds.mean())
        assert abs(frequency - 1 / 3) < 0.01

    def test_deterministic_tuples_are_constant_and_draw_free(self):
        # Probability-0/1 columns are constant in every world.  (They
        # also consume no stream words — but because every cell is
        # counter-addressed, whether or not a neighbor draws can never
        # shift another cell's value anyway.)
        probabilities = [
            Fraction(1), Fraction(1, 3), Fraction(2, 5), Fraction(0)
        ]
        sampler = WorldSampler(probabilities, seed=3)
        for row in sampler.sample(0, 20):
            assert row[0] == 1 and row[3] == 0

    def test_uniform_below_big_bound_in_range(self):
        base = _stream_base(11, 0)
        bound = (1 << 130) + 17
        draws = {_py_uniform_below(base, i, bound) for i in range(50)}
        assert all(0 <= d < bound for d in draws)
        assert any(d > (1 << 64) for d in draws)  # actually uses the range

    def test_draw_stream_below_matches_backends(self):
        stream = DrawStream(5, lane=1)
        base = _stream_base(5, 1)
        scalar = [_py_uniform_below(base, i, 999_983) for i in range(500)]
        assert stream.below(999_983, 0, 500).tolist() == scalar
        assert [stream.draw(999_983, i) for i in range(500)] == scalar
        assert all(0 <= d < 999_983 for d in scalar)

    def test_bound_one_draws_nothing(self):
        assert DrawStream(1).below(1, 0, 5).tolist() == [0, 0, 0, 0, 0]
        assert DrawStream(1).draw(1, 3) == 0
        with pytest.raises(ValueError):
            DrawStream(1).below(0, 0, 5)


class TestBackendEquivalence:
    """Fixed-seed whole estimates equal the per-sample scalar definition
    on the same draw stream."""

    @pytest.mark.parametrize("prob", [Fraction(1, 2), Fraction(1, 3)])
    def test_karp_luby_backends_identical(self, prob):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 3, 3, prob=prob)
        plan = SamplingPlan(query, tid)
        assert plan.run_fixed(400, seed=13) == scalar_reference(
            query, tid, 400, 13, "karp_luby"
        )

    def test_monte_carlo_backends_identical_non_monotone(self):
        query = hard_non_monotone(3)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        plan = SamplingPlan(query, tid)
        assert plan.engine == "monte_carlo"
        assert plan.run_fixed(300, seed=8) == scalar_reference(
            query, tid, 300, 8, "monte_carlo"
        )

    def test_reproducible_for_fixed_seed(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(epsilon=0.1, seed=77)
        first, engine_a = approximate_probability(query, tid, budget)
        second, engine_b = approximate_probability(query, tid, budget)
        assert first == second
        assert engine_a == engine_b == "karp_luby"


class TestStatisticalCoverage:
    """The hard-query zoo vs the brute-force oracle."""

    CASES = [
        (hard_full_disjunction(2), complete_tid(2, 2, 2, Fraction(1, 3))),
        (hard_full_disjunction(2), complete_tid(2, 1, 2, Fraction(1, 7))),
        (hard_full_disjunction(3), complete_tid(3, 1, 1, Fraction(1, 2))),
        (q9(), complete_tid(3, 1, 2, Fraction(1, 2))),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_karp_luby_vectorized_near_truth(self, case):
        query, tid = self.CASES[case]
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = karp_luby_probability_vectorized(
            query, tid, 4000, seed=case
        )
        assert abs(estimate.value - truth) <= max(
            1.5 * estimate.half_width, 0.04
        )

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_monte_carlo_vectorized_near_truth(self, case):
        query, tid = self.CASES[case]
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = monte_carlo_probability_vectorized(
            query, tid, 4000, seed=case
        )
        assert abs(estimate.value - truth) <= max(
            1.5 * estimate.half_width, 0.04
        )

    def test_non_monotone_monte_carlo_near_truth(self):
        query = hard_non_monotone(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = monte_carlo_probability_vectorized(query, tid, 5000, 3)
        assert abs(estimate.value - truth) <= max(
            1.5 * estimate.half_width, 0.03
        )

    def test_unbiased_across_seeds_on_thirds(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 2, prob=Fraction(1, 3))
        truth = float(probability_by_world_enumeration(query, tid))
        values = [
            karp_luby_probability_vectorized(query, tid, 500, seed).value
            for seed in range(10)
        ]
        assert abs(sum(values) / len(values) - truth) <= 0.03

    def test_exotic_denominators_still_exact_and_covered(self):
        # Denominators beyond 64 bits exercise the big-int draw path in
        # both the clause selection (lcm blows up) and world completion.
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 2))
        ids = tid.instance.tuple_ids()
        tid.set_probability(ids[0], Fraction(1, (1 << 70) + 1))
        tid.set_probability(ids[1], Fraction(3, 7))
        truth = float(probability_by_world_enumeration(query, tid))
        plan = SamplingPlan(query, tid)
        vectorized = plan.run_fixed(2000, seed=2)
        assert vectorized == scalar_reference(
            query, tid, 2000, 2, "karp_luby"
        )
        assert abs(vectorized.value - truth) <= max(
            2 * vectorized.half_width, 0.05
        )


class TestEdgeCases:
    def _empty_schema_tid(self) -> TupleIndependentDatabase:
        tid = TupleIndependentDatabase()
        for name, arity in (
            ("R", 1), ("S1", 2), ("S2", 2), ("S3", 2), ("T", 1)
        ):
            tid.instance.declare(name, arity)
        return tid

    def test_empty_lineage_estimates_zero(self):
        tid = self._empty_schema_tid()
        estimate = karp_luby_probability_vectorized(q9(), tid, 100, 0)
        assert estimate == Estimate(0.0, 0.0, 100, "normal", 0)
        adaptive, engine = approximate_probability(q9(), tid)
        assert adaptive.value == 0.0 and engine == "karp_luby"

    def test_zero_weight_lineage_estimates_zero(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(0))
        estimate = karp_luby_probability_vectorized(q9(), tid, 100, 0)
        assert estimate.value == 0.0
        assert estimate.waves == 0

    def test_all_certain_tuples(self):
        # Certain tuples draw nothing; Monte Carlo sees the query hold in
        # every sampled world, exactly.  Karp-Luby stays merely unbiased
        # (value = W * hits/n with hits ~ Binomial(n, 1/m)), so it gets a
        # statistical assertion on a small-m query.
        tid = complete_tid(3, 2, 2, prob=Fraction(1))
        mc = monte_carlo_probability_vectorized(q9(), tid, 50, 0)
        assert mc.value == 1.0
        assert mc.half_width == 0.0
        query = hard_full_disjunction(2)
        certain = complete_tid(2, 1, 1, prob=Fraction(1))
        estimate = karp_luby_probability_vectorized(query, certain, 3000, 0)
        assert abs(estimate.value - 1.0) <= max(
            1.5 * estimate.half_width, 0.05
        )

    def test_rejects_non_monotone_karp_luby(self):
        query = HQuery(3, ~BooleanFunction.variable(0, 4))
        tid = complete_tid(3, 1, 1)
        with pytest.raises(ValueError):
            karp_luby_probability_vectorized(query, tid, 10, 0)

    def test_invalid_sample_counts(self):
        tid = complete_tid(3, 1, 1)
        with pytest.raises(ValueError):
            karp_luby_probability_vectorized(q9(), tid, 0, 0)


class TestAdaptiveBudgets:
    def test_adaptive_matches_fixed_prefix(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        plan = SamplingPlan(query, tid)
        budget = AccuracyBudget(epsilon=0.05, min_samples=50, seed=6)
        adaptive = plan.run(budget)
        fixed = plan.run_fixed(adaptive.samples, seed=6)
        assert adaptive.value == fixed.value
        assert adaptive.samples == fixed.samples

    def test_adaptive_stops_before_fixed_worst_case(self):
        # On this instance the Karp-Luby indicator probability is far
        # from 1/2, so the Wilson stopping rule fires before the
        # worst-case count the same epsilon would buy fixed.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 4, 4, prob=Fraction(1, 2))
        budget = AccuracyBudget(epsilon=0.02, min_samples=100, seed=1)
        estimate = SamplingPlan(query, tid).run(budget)
        assert estimate.samples < budget.samples()
        assert estimate.waves >= 1
        # ... and the reported (scale-relative) accuracy met the target.
        scale = float(SamplingPlan(query, tid)._total_weight)
        assert half_width(
            round(estimate.value / scale * estimate.samples),
            estimate.samples,
            scale,
            "wilson",
        ) <= budget.epsilon * scale

    def test_non_adaptive_budget_draws_fixed_count(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(
            epsilon=0.1, min_samples=10, seed=2, adaptive=False
        )
        estimate = SamplingPlan(query, tid).run(budget)
        assert estimate.samples == budget.samples()
        assert estimate.waves == 1

    def test_adaptive_never_exceeds_cap(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        budget = AccuracyBudget(
            epsilon=0.01, min_samples=16, max_samples=300, seed=3
        )
        estimate = SamplingPlan(query, tid).run(budget)
        assert estimate.samples <= 300


class TestIntervals:
    def test_normal_half_width_zero_at_extremes(self):
        assert half_width(0, 500) == 0.0
        assert half_width(500, 500) == 0.0
        assert half_width(250, 500) > 0.0

    def test_wilson_half_width_positive_at_extremes(self):
        assert half_width(0, 500, interval="wilson") > 0.0
        assert half_width(500, 500, interval="wilson") > 0.0

    def test_wilson_close_to_normal_at_half(self):
        normal = half_width(250, 500)
        wilson = half_width(250, 500, interval="wilson")
        assert abs(normal - wilson) < 0.1 * normal

    def test_interval_flag_threads_through_estimates(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        wilson = karp_luby_probability_vectorized(
            query, tid, 300, seed=1, interval="wilson"
        )
        assert wilson.interval == "wilson"
        budget = AccuracyBudget(epsilon=0.1, seed=1, interval="wilson")
        estimate = SamplingPlan(query, tid).run(budget)
        assert estimate.interval == "wilson"

    def test_scalar_samplers_accept_interval(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 2))
        estimate = karp_luby_probability(
            query, tid, 100, random.Random(0), interval="wilson"
        )
        assert estimate.interval == "wilson"

    def test_unknown_interval_rejected(self):
        with pytest.raises(ValueError):
            AccuracyBudget(interval="bayesian")
        with pytest.raises(ValueError):
            half_width(3, 10, interval="bayesian")


class TestEngineRouting:
    def test_auto_with_budget_samples_instead_of_refusing(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        with pytest.raises(HardQueryError):
            evaluate(query, tid)
        result = evaluate(query, tid, budget=AccuracyBudget(seed=1))
        assert result.engine == "karp_luby"
        assert result.estimate is not None
        assert 0 <= result.probability <= 1
        assert result.estimate.samples > 0

    def test_explicit_sampling_method(self):
        query = hard_non_monotone(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        result = evaluate(query, tid, method="sampling")
        assert result.engine == "monte_carlo"
        assert result.estimate is not None

    def test_sampling_close_to_exact_on_safe_query(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        exact = evaluate(q9(), tid)
        sampled = evaluate(
            q9(), tid, method="sampling",
            budget=AccuracyBudget(epsilon=0.02, seed=9),
        )
        assert abs(
            float(sampled.probability) - float(exact.probability)
        ) <= max(2 * sampled.estimate.half_width, 0.04)

    def test_batch_sampling(self):
        query = hard_full_disjunction(3)
        tids = [
            complete_tid(3, 3, 3, prob=Fraction(1, 3)),
            complete_tid(3, 3, 3, prob=Fraction(1, 2)),
        ]
        batch = evaluate_batch(
            query, tids, method="sampling",
            budget=AccuracyBudget(epsilon=0.1, seed=2),
        )
        assert batch.engine == "karp_luby"
        assert len(batch.probabilities) == 2
        assert all(0.0 <= p <= 1.0 for p in batch.probabilities)
        empty = evaluate_batch(query, [], method="sampling")
        assert empty.engine == "karp_luby"
        assert empty.probabilities == []

    def test_auto_batch_with_budget_falls_back_to_sampling(self):
        query = hard_full_disjunction(3)
        tids = [complete_tid(3, 3, 3, prob=Fraction(1, 3))]
        batch = evaluate_batch(
            query, tids, budget=AccuracyBudget(epsilon=0.1, seed=4)
        )
        assert batch.engine == "karp_luby"


class TestIndicatorTape:
    def test_boolean_tape_matches_holds_in_oracle(self):
        query = hard_non_monotone(3)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        circuit = hquery_lineage_circuit_naive(query, tid.instance)
        tape = tape_for(circuit)
        ids = tid.instance.tuple_ids()
        column_of = {t: i for i, t in enumerate(ids)}
        columns = [column_of[label] for label in tape.var_labels]
        rng = random.Random(5)
        worlds = [[rng.randrange(2) for _ in ids] for _ in range(64)]
        rows = [[world[c] for c in columns] for world in worlds]
        got = tape.evaluate_worlds(rows)
        for world, value in zip(worlds, got):
            present = frozenset(
                t for t, bit in zip(ids, world) if bit
            )
            expected = query.holds_in(tid.instance.restrict_to(present))
            assert value == expected

    def test_evaluate_worlds_rejects_ragged_rows(self):
        tid = complete_tid(3, 1, 1)
        circuit = hquery_lineage_circuit_naive(q9(), tid.instance)
        tape = tape_for(circuit)
        with pytest.raises(ValueError):
            tape.evaluate_worlds([[1, 0]])

    def test_evaluate_worlds_empty_batch(self):
        tid = complete_tid(3, 1, 1)
        circuit = hquery_lineage_circuit_naive(q9(), tid.instance)
        tape = tape_for(circuit)
        assert tape.evaluate_worlds([]) == []


class TestPlanSharing:
    def test_structure_cached_per_instance_content(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 2))
        first = sampling_plan(query, tid)
        second = sampling_plan(query, tid)
        assert first._structure is second._structure

    def test_probability_updates_reflected_without_stale_weights(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 2))
        before = SamplingPlan(query, tid).run_fixed(2000, seed=1)
        for tuple_id in tid.instance.tuple_ids():
            tid.set_probability(tuple_id, Fraction(1, 8))
        after = SamplingPlan(query, tid).run_fixed(2000, seed=1)
        truth = float(probability_by_world_enumeration(query, tid))
        assert after.value != before.value
        assert abs(after.value - truth) <= max(
            2 * after.half_width, 0.05
        )

    def test_probability_fingerprint_tracks_updates(self):
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 2))
        first = tid.probability_fingerprint()
        assert tid.probability_fingerprint() is first  # memoized
        tuple_id = tid.instance.tuple_ids()[0]
        tid.set_probability(tuple_id, Fraction(1, 3))
        second = tid.probability_fingerprint()
        assert second != first
