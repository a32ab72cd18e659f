"""Property-based tests for the safe-plan building blocks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import random_tid
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.safe_plans import (
    UnsafeSubqueryError,
    _run_probability_fractions,
    chain_probability,
    disjunction_probability,
    disjunction_probability_float,
    run_probability,
    run_probability_float,
    runs_of,
)
from repro.queries.hqueries import HQuery


class TestRunsProperties:
    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_runs_partition_the_input(self, indices):
        runs = runs_of(indices)
        covered = set()
        for start, end in runs:
            covered.update(range(start, end + 1))
        assert covered == set(indices)

    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_runs_are_maximal_and_separated(self, indices):
        runs = runs_of(indices)
        for i, (start, end) in enumerate(runs):
            assert start <= end
            # Maximality: the elements just outside the run are absent.
            assert start - 1 not in indices
            assert end + 1 not in indices
            if i > 0:
                previous_end = runs[i - 1][1]
                assert start >= previous_end + 2

    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_runs_sorted(self, indices):
        runs = runs_of(indices)
        assert runs == sorted(runs)


def probabilities_strategy():
    return st.lists(
        st.integers(min_value=0, max_value=4).map(lambda n: Fraction(n, 4)),
        min_size=0,
        max_size=7,
    )


class TestChainProperties:
    @given(probabilities_strategy())
    @settings(max_examples=60)
    def test_chain_probability_in_unit_interval(self, probs):
        for first in (False, True):
            for last in (False, True):
                value = chain_probability(
                    probs, satisfied_by_first=first, satisfied_by_last=last
                )
                assert 0 <= value <= 1

    @given(probabilities_strategy())
    @settings(max_examples=60)
    def test_flags_are_monotone(self, probs):
        # Adding a satisfaction rule can only increase the probability.
        base = chain_probability(probs)
        with_first = chain_probability(probs, satisfied_by_first=True)
        with_last = chain_probability(probs, satisfied_by_last=True)
        both = chain_probability(
            probs, satisfied_by_first=True, satisfied_by_last=True
        )
        assert base <= with_first <= both
        assert base <= with_last <= both

    @given(probabilities_strategy())
    @settings(max_examples=60)
    def test_reversal_symmetry(self, probs):
        # Reversing the chain swaps the roles of the two flags.
        assert chain_probability(
            probs, satisfied_by_first=True
        ) == chain_probability(
            list(reversed(probs)), satisfied_by_last=True
        )
        assert chain_probability(probs) == chain_probability(
            list(reversed(probs))
        )

    @given(probabilities_strategy())
    @settings(max_examples=60)
    def test_certain_tuples(self, probs):
        # With every tuple certain, the chain is satisfied iff it has an
        # adjacent pair (length >= 2) or a flag applies to a nonempty chain.
        certain = [Fraction(1)] * len(probs)
        expected = Fraction(1) if len(certain) >= 2 else Fraction(0)
        assert chain_probability(certain) == expected
        if certain:
            assert chain_probability(
                certain, satisfied_by_first=True
            ) == Fraction(1)

    @given(probabilities_strategy())
    @settings(max_examples=60)
    def test_zero_tuples_break_chain(self, probs):
        # Inserting a zero-probability tuple in the middle severs the
        # chain into independent halves.
        left = probs
        right = [Fraction(1, 2)] * 2
        severed = chain_probability(left + [Fraction(0)] + right)
        miss_left = 1 - chain_probability(left)
        miss_right = 1 - chain_probability(right)
        assert severed == 1 - miss_left * miss_right


def disjunction_query(k: int, indices) -> HQuery:
    """``∨_{i in S} h_{k,i}`` as an :class:`HQuery` (the brute-force
    oracle for the lifted plans)."""
    phi = BooleanFunction.bottom(k + 1)
    for i in indices:
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def proper_nonempty_subsets(k: int):
    full = (1 << (k + 1)) - 1
    for mask in range(1, full):
        yield [i for i in range(k + 1) if mask >> i & 1]


class TestBackendsAgainstBruteForce:
    """Randomized instances: both vectorized backends vs. the
    exponential oracle, the Fraction fallback, and each other."""

    def _random_instances(self, seed, count, k, density=0.5):
        rng = random.Random(seed)
        instances = []
        while len(instances) < count:
            tid = random_tid(k, 2, 2, rng, tuple_density=density)
            if 0 < len(tid) <= 12:
                instances.append(tid)
        return instances

    @pytest.mark.parametrize("k", [2, 3])
    def test_all_proper_disjunctions_match_brute_force(self, k):
        for tid in self._random_instances(0xBEEF + k, 3, k):
            for subset in proper_nonempty_subsets(k):
                exact = disjunction_probability(subset, k, tid)
                oracle = probability_by_world_enumeration(
                    disjunction_query(k, subset), tid
                )
                assert exact == oracle, (k, subset)
                as_float = disjunction_probability_float(subset, k, tid)
                assert as_float == pytest.approx(float(exact), abs=1e-12)

    def test_runs_match_fraction_fallback_bit_for_bit(self):
        k = 3
        for tid in self._random_instances(0xFA11, 4, k):
            for run in [(0, 0), (0, 2), (1, 2), (2, 2), (1, 3), (3, 3)]:
                vectorized = run_probability(run, k, tid)
                reference = _run_probability_fractions(run, k, tid)
                assert vectorized == reference, run
                assert run_probability_float(
                    run, k, tid
                ) == pytest.approx(float(reference), abs=1e-12)

    def test_zero_and_one_probability_tuples(self):
        # Degenerate pi values exercise the DP's absorbing states: kept
        # tuples that always/never fire, including whole certain chains.
        k = 2
        rng = random.Random(0x01AF)
        for _ in range(4):
            tid = TupleIndependentDatabase()
            for a in ("a1", "a2"):
                tid.add("R", (a,), rng.choice([0, 1, Fraction(1, 2)]))
                for b in ("b1", "b2"):
                    for i in range(1, k + 1):
                        tid.add(
                            f"S{i}",
                            (a, b),
                            rng.choice([0, 1, Fraction(1, 3)]),
                        )
            for b in ("b1", "b2"):
                tid.add("T", (b,), rng.choice([0, 1]))
            for subset in proper_nonempty_subsets(k):
                exact = disjunction_probability(subset, k, tid)
                oracle = probability_by_world_enumeration(
                    disjunction_query(k, subset), tid
                )
                assert exact == oracle, subset
                assert disjunction_probability_float(
                    subset, k, tid
                ) == pytest.approx(float(exact), abs=1e-12)

    def test_empty_run_set_and_empty_instance(self):
        k = 3
        empty = TupleIndependentDatabase()
        assert disjunction_probability([], k, empty) == 0
        assert disjunction_probability_float([], k, empty) == 0.0
        # A run over an empty instance can never be witnessed.
        assert run_probability((1, 2), k, empty) == 0
        assert run_probability_float((0, 1), k, empty) == 0.0

    def test_full_span_rejected_by_both_backends(self):
        k = 2
        tid = self._random_instances(0xF00, 1, k)[0]
        with pytest.raises(UnsafeSubqueryError):
            run_probability((0, k), k, tid)
        with pytest.raises(UnsafeSubqueryError):
            run_probability_float((0, k), k, tid)

    def test_exotic_denominators_fall_back_exactly(self):
        # A probability whose denominator overflows the common
        # denominator guard: the columnar exact backend must hand off to
        # the Fraction fallback and still match the oracle bit for bit.
        from repro.db.columnar import EXACT_DENOMINATOR_BITS

        k = 2
        huge = Fraction(1, 2 ** (EXACT_DENOMINATOR_BITS + 6) + 1)
        tid = TupleIndependentDatabase()
        tid.add("R", ("a1",), huge)
        tid.add("S1", ("a1", "b1"), Fraction(1, 2))
        tid.add("S2", ("a1", "b1"), 1 - huge)
        tid.add("T", ("b1",), Fraction(2, 3))
        from repro.db.columnar import h_columns

        assert h_columns(tid, k).denominator is None
        for subset in proper_nonempty_subsets(k):
            exact = disjunction_probability(subset, k, tid)
            oracle = probability_by_world_enumeration(
                disjunction_query(k, subset), tid
            )
            assert exact == oracle, subset
