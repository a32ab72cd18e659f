"""Tests for the approximation engine (Monte Carlo and Karp–Luby)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.db.tid import exact_bernoulli
from repro.pqe.approximate import (
    Estimate,
    SamplingPlan,
    _choose_clauses,
    karp_luby_probability,
    monte_carlo_probability,
)
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.queries.hqueries import HQuery, q9


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


class TestEstimate:
    def test_covers(self):
        estimate = Estimate(0.5, 0.1, 100)
        assert estimate.covers(0.45)
        assert not estimate.covers(0.7)


class TestMonteCarlo:
    def test_invalid_samples(self):
        tid = complete_tid(3, 1, 1)
        with pytest.raises(ValueError):
            monte_carlo_probability(q9(), tid, 0, random.Random(0))

    def test_safe_query_estimate_near_truth(self):
        tid = complete_tid(3, 1, 2, prob=Fraction(1, 2))
        truth = float(probability_by_world_enumeration(q9(), tid))
        estimate = monte_carlo_probability(
            q9(), tid, 800, random.Random(42)
        )
        assert abs(estimate.value - truth) <= max(estimate.half_width, 0.08)

    def test_hard_query_estimate_near_truth(self):
        # The point: approximation is indifferent to #P-hardness.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 2, prob=Fraction(1, 2))
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = monte_carlo_probability(
            query, tid, 800, random.Random(43)
        )
        assert abs(estimate.value - truth) <= max(estimate.half_width, 0.08)

    def test_non_monotone_supported(self):
        phi = ~BooleanFunction.variable(1, 4)
        query = HQuery(3, phi)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 2))
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = monte_carlo_probability(
            query, tid, 600, random.Random(44)
        )
        assert abs(estimate.value - truth) <= max(estimate.half_width, 0.1)

    def test_deterministic_extremes(self):
        tid = complete_tid(3, 1, 1, prob=Fraction(1))
        estimate = monte_carlo_probability(q9(), tid, 50, random.Random(1))
        assert estimate.value == 1.0


class TestKarpLuby:
    def test_rejects_non_monotone(self):
        phi = ~BooleanFunction.variable(0, 4)
        tid = complete_tid(3, 1, 1)
        with pytest.raises(ValueError):
            karp_luby_probability(HQuery(3, phi), tid, 10, random.Random(0))

    def test_empty_lineage_gives_zero(self):
        from repro.db.tid import TupleIndependentDatabase

        tid = TupleIndependentDatabase()
        for name, arity in (
            ("R", 1), ("S1", 2), ("S2", 2), ("S3", 2), ("T", 1)
        ):
            tid.instance.declare(name, arity)
        estimate = karp_luby_probability(q9(), tid, 50, random.Random(0))
        assert estimate.value == 0.0

    def test_safe_query_estimate_near_truth(self):
        tid = complete_tid(3, 1, 2, prob=Fraction(1, 2))
        truth = float(probability_by_world_enumeration(q9(), tid))
        estimate = karp_luby_probability(q9(), tid, 800, random.Random(7))
        assert abs(estimate.value - truth) <= max(estimate.half_width, 0.08)

    def test_hard_query_estimate_near_truth(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 4))
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = karp_luby_probability(query, tid, 1000, random.Random(8))
        assert abs(estimate.value - truth) <= max(estimate.half_width, 0.06)

    def test_small_probability_relative_accuracy(self):
        # Where naive MC collapses: tiny probabilities.  Karp-Luby's
        # estimate stays within ~25% relative error with modest samples.
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 1, prob=Fraction(1, 40))
        truth = float(probability_by_world_enumeration(query, tid))
        assert truth < 0.01
        estimate = karp_luby_probability(query, tid, 1500, random.Random(9))
        assert abs(estimate.value - truth) <= 0.3 * truth

    def test_unbiasedness_across_seeds(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 2, prob=Fraction(1, 3))
        truth = float(probability_by_world_enumeration(query, tid))
        values = [
            karp_luby_probability(
                query, tid, 300, random.Random(seed)
            ).value
            for seed in range(8)
        ]
        mean = sum(values) / len(values)
        assert abs(mean - truth) <= 0.05


class TestWrapperContract:
    """``monte_carlo_probability`` / ``karp_luby_probability`` take one
    64-bit seed from ``rng`` and run the fixed-count sampling plan under
    it: the same ``rng`` state gives the same estimate, and the ``rng``
    advances by exactly that one draw."""

    @pytest.mark.parametrize(
        "sampler, engine",
        [
            (monte_carlo_probability, "monte_carlo"),
            (karp_luby_probability, "karp_luby"),
        ],
    )
    def test_wrapper_runs_plan_under_one_seed_from_rng(self, sampler, engine):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 3))
        rng = random.Random(31)
        estimate = sampler(query, tid, 300, rng, interval="wilson")
        reference = random.Random(31)
        seed = reference.getrandbits(64)
        assert estimate == SamplingPlan(query, tid, engine=engine).run_fixed(
            300, seed, "wilson"
        )
        assert rng.getstate() == reference.getstate()


class TestHalfWidthFloorFix:
    def test_zero_hits_report_zero_normal_half_width(self):
        # A query that never holds: the old 1e-12 variance floor turned
        # a deterministic 0-hit outcome into a phantom error bar.
        from repro.db.tid import TupleIndependentDatabase

        tid = TupleIndependentDatabase()
        for name, arity in (
            ("R", 1), ("S1", 2), ("S2", 2), ("S3", 2), ("T", 1)
        ):
            tid.instance.declare(name, arity)
        tid.add("R", ("a",), Fraction(1, 2))
        estimate = monte_carlo_probability(
            q9(), tid, 200, random.Random(0)
        )
        assert estimate.value == 0.0
        assert estimate.half_width == 0.0

    def test_all_hits_report_zero_normal_half_width(self):
        tid = complete_tid(3, 1, 1, prob=Fraction(1))
        estimate = monte_carlo_probability(
            q9(), tid, 50, random.Random(1)
        )
        assert estimate.value == 1.0
        assert estimate.half_width == 0.0


class _ScriptedRng:
    """A fake ``random.Random`` replaying scripted ``randrange`` draws —
    the draws are what the exactness contract is about, so the tests pin
    them directly."""

    def __init__(self, draws):
        self._draws = list(draws)
        self.requests: list[int] = []

    def randrange(self, stop):
        self.requests.append(stop)
        return self._draws.pop(0)


class TestExactDraws:
    """The exactness regression suite: clause selection and world
    completion must be bias-free for probabilities (1/3, 1/7, ...) that
    no binary float represents."""

    @staticmethod
    def _select(cumulative, draws):
        """Clause choices on both selection branches: ``searchsorted``
        over ``cumulative`` as given, and ``bisect_right`` once a trailing
        clause of weight ``2**63`` lifts the total past int64 (which no
        draw below the original total can reach)."""
        vector = _choose_clauses(cumulative, draws).tolist()
        wide = _choose_clauses(
            cumulative + [cumulative[-1] + (1 << 63)], draws
        )
        assert wide.tolist() == vector
        return vector

    def test_bisect_boundary_selects_next_clause(self):
        # Clause i owns the half-open interval
        # [cumulative[i-1], cumulative[i]): a draw exactly equal to a
        # prefix boundary belongs to the *next* clause.
        cumulative = [1, 3, 6]
        assert self._select(cumulative, [0, 1, 2, 3, 4, 5]) == [
            0,
            1,  # boundary draw -> next clause
            1,
            2,  # boundary draw -> next clause
            2,
            2,
        ]

    def test_bisect_never_selects_zero_weight_clause(self):
        # A zero-weight clause has an empty interval; under the strict
        # boundary convention no draw can land in it (the old ``<`` test
        # handed boundary draws to it).
        cumulative = [2, 2, 5]
        assert 1 not in self._select(cumulative, list(range(5)))

    def test_bisect_intervals_are_exactly_proportional(self):
        # Exhaustive: over all draws in [0, total), clause i is selected
        # exactly w_i * D times.
        cumulative = [2, 5, 6, 10]
        counts = [0] * len(cumulative)
        for index in self._select(cumulative, list(range(cumulative[-1]))):
            counts[index] += 1
        assert counts == [2, 3, 1, 4]

    def test_wide_totals_select_by_exact_integers(self):
        # Totals of 2**63 or more take the bisect_right branch: boundaries
        # past int64 still select the next clause, exactly.
        big = 1 << 64
        cumulative = [big, big + 1, 2 * big]
        draws = [big - 1, big, big + 1, 2 * big - 1]
        assert _choose_clauses(cumulative, draws).tolist() == [0, 1, 2, 2]

    def test_exact_bernoulli_draw_semantics(self):
        p = Fraction(1, 3)
        assert exact_bernoulli(_ScriptedRng([0]), p) is True
        assert exact_bernoulli(_ScriptedRng([1]), p) is False
        assert exact_bernoulli(_ScriptedRng([2]), p) is False
        rng = _ScriptedRng([0])
        exact_bernoulli(rng, Fraction(2, 7))
        assert rng.requests == [7]  # uniform over the exact denominator

    def test_exact_bernoulli_is_unbiased_over_full_period(self):
        # Over every residue of the denominator the success frequency is
        # exactly p -- no float grid involved anywhere.
        for p in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 12)):
            hits = sum(
                exact_bernoulli(_ScriptedRng([draw]), p)
                for draw in range(p.denominator)
            )
            assert Fraction(hits, p.denominator) == p

    def test_karp_luby_reproducible_for_fixed_seed(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 3))
        first = karp_luby_probability(query, tid, 500, random.Random(77))
        second = karp_luby_probability(query, tid, 500, random.Random(77))
        assert first == second

    def test_karp_luby_reproducible_across_hash_seeds(self):
        # The clause order must be canonical, not repr-of-frozenset
        # order: the latter follows the per-process hash salt, which
        # made fixed-seed estimates differ between processes (and made
        # the convergence test below flaky on unpinned tier-1 runs).
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "import random\n"
            "from fractions import Fraction\n"
            "from repro.core.boolean_function import BooleanFunction\n"
            "from repro.db.generator import complete_tid\n"
            "from repro.pqe.approximate import karp_luby_probability\n"
            "from repro.queries.hqueries import HQuery\n"
            "phi = BooleanFunction.bottom(3)\n"
            "for i in range(3):\n"
            "    phi = phi | BooleanFunction.variable(i, 3)\n"
            "tid = complete_tid(2, 2, 2, prob=Fraction(1, 3))\n"
            "print(karp_luby_probability(\n"
            "    HQuery(2, phi), tid, 200, random.Random(5)).value)\n"
        )
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        outputs = set()
        for hash_seed in ("0", "7"):
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
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, outputs

    def test_karp_luby_converges_on_thirds_and_sevenths(self):
        # The headline regression: probabilities 1/3 and 1/7 have no
        # finite binary representation, so the old
        # ``Fraction(rng.random()).limit_denominator(1 << 30)`` clause
        # draw and the ``rng.random() < float(p)`` world draw were both
        # biased.  The integer draws must converge on the brute-force
        # truth within the reported error bar, deterministically.
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 2, 2, prob=Fraction(1, 3))
        for position, tuple_id in enumerate(tid.instance.tuple_ids()):
            tid.set_probability(
                tuple_id, Fraction(1, 3) if position % 2 else Fraction(1, 7)
            )
        truth = float(probability_by_world_enumeration(query, tid))
        estimate = karp_luby_probability(
            query, tid, 4000, random.Random(0xC0FFEE)
        )
        assert estimate.covers(truth)
        assert abs(estimate.value - truth) <= 0.05

    def test_karp_luby_mean_tracks_truth_on_thirds(self):
        query = hard_full_disjunction(2)
        tid = complete_tid(2, 1, 2, prob=Fraction(1, 7))
        truth = float(probability_by_world_enumeration(query, tid))
        values = [
            karp_luby_probability(
                query, tid, 400, random.Random(seed)
            ).value
            for seed in range(10)
        ]
        mean = sum(values) / len(values)
        assert abs(mean - truth) <= 0.04

    def test_sample_world_uses_exact_draws(self):
        from repro.db.tid import TupleIndependentDatabase

        tid = TupleIndependentDatabase()
        tid.add("R", ("a",), Fraction(1, 3))
        tid.add("R", ("b",), Fraction(2, 3))
        # One scripted draw per tuple, in sorted tuple order: draw 0 of 3
        # includes R(a) (p = 1/3); draw 2 of 3 excludes R(b) (p = 2/3).
        world = tid.sample_world(_ScriptedRng([0, 2]))
        names = {t.values[0] for t in world}
        assert names == {"a"}
        world = tid.sample_world(_ScriptedRng([2, 1]))
        names = {t.values[0] for t in world}
        assert names == {"b"}
