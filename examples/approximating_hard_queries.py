"""Approximating the #P-hard region of the dichotomy.

The dichotomy of [12] (reproduced by this library's classifier) makes
non-zero-Euler H-queries #P-hard *exactly*.  This script shows the
practical way around it: randomized approximation.  We take the canonical
hard query ``H_k = h_{k,0} ∨ ... ∨ h_{k,k}`` on a database too large for
the brute-force oracle, confirm both exact engines refuse it, and then
estimate its probability with naive Monte Carlo and with the Karp–Luby
DNF estimator — including the small-probability regime where only
Karp–Luby maintains relative accuracy.

Run:  python examples/approximating_hard_queries.py
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro import BooleanFunction, HQuery, complete_tid
from repro.pqe import (
    AccuracyBudget,
    HardQueryError,
    NotCompilableError,
    UnsafeQueryError,
    classify,
    evaluate,
    extensional_probability,
    intensional_probability,
    karp_luby_probability,
    monte_carlo_probability,
    probability_by_world_enumeration,
)


def hard_query(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def main() -> None:
    rng = random.Random(0)
    query = hard_query(3)
    verdict = classify(query)
    print(f"query: H_3 = h_0 ∨ h_1 ∨ h_2 ∨ h_3")
    print(f"classification: {verdict.region.value} (e = {verdict.euler})\n")

    large = complete_tid(3, 4, 4, prob=Fraction(1, 3))
    print(f"database: {large.instance} ({len(large)} tuples)")

    # Every exact engine refuses, each with its own reason.
    for name, runner in (
        ("extensional", lambda: extensional_probability(query, large)),
        ("intensional", lambda: intensional_probability(query, large)),
        ("auto facade", lambda: evaluate(query, large)),
    ):
        try:
            runner()
            print(f"  {name}: unexpectedly succeeded?!")
        except (UnsafeQueryError, NotCompilableError, HardQueryError) as e:
            reason = str(e).split(";")[0]
            print(f"  {name} refused: {reason}")

    # Approximation proceeds regardless of hardness.
    print("\nfixed-count estimates on the large instance (seeded from rng):")
    mc = monte_carlo_probability(query, large, samples=400, rng=rng)
    kl = karp_luby_probability(query, large, samples=400, rng=rng)
    print(f"  monte carlo: {mc.value:.4f} ± {mc.half_width:.4f}")
    print(f"  karp–luby:   {kl.value:.4f} ± {kl.half_width:.4f}")

    # Pass an accuracy budget and the auto facade routes the hard query
    # to the same sampling engine, budget-adaptive, instead of refusing.
    # Sampling stops as soon as the half-width target is met — compare
    # samples drawn with the fixed worst case.
    budget = AccuracyBudget(epsilon=0.02, min_samples=100, seed=7)
    result = evaluate(query, large, budget=budget)
    estimate = result.estimate
    print("\nvectorized budget-adaptive estimate (the serving route):")
    print(f"  engine: {result.engine}")
    print(f"  Pr ≈ {float(result.probability):.4f} "
          f"± {estimate.half_width:.4f}")
    print(f"  samples: {estimate.samples} in {estimate.waves} wave(s) "
          f"(fixed-count worst case: {budget.samples()})")

    # Cross-check on a small instance where brute force still runs.
    small = complete_tid(3, 1, 2, prob=Fraction(1, 3))
    truth = probability_by_world_enumeration(query, small)
    mc_small = monte_carlo_probability(query, small, samples=2000, rng=rng)
    kl_small = karp_luby_probability(query, small, samples=2000, rng=rng)
    print(f"\nsmall-instance cross-check (|D| = {len(small)}):")
    print(f"  exact truth: {float(truth):.6f}")
    print(f"  monte carlo: {mc_small.value:.4f} ± {mc_small.half_width:.4f} "
          f"(covers truth: {mc_small.covers(float(truth))})")
    print(f"  karp–luby:   {kl_small.value:.4f} ± {kl_small.half_width:.4f} "
          f"(covers truth: {kl_small.covers(float(truth))})")

    # The regime that motivates Karp–Luby: tiny probabilities.
    tiny = complete_tid(3, 1, 1, prob=Fraction(1, 50))
    truth = probability_by_world_enumeration(query, tiny)
    mc_tiny = monte_carlo_probability(query, tiny, samples=2000, rng=rng)
    kl_tiny = karp_luby_probability(query, tiny, samples=2000, rng=rng)
    print(f"\ntiny-probability regime (truth = {float(truth):.2e}):")
    print(f"  monte carlo estimate: {mc_tiny.value:.2e} "
          f"(additive error bars cannot see this scale)")
    print(f"  karp–luby estimate:   {kl_tiny.value:.2e} "
          f"(relative error "
          f"{abs(kl_tiny.value - float(truth)) / float(truth):.1%})")


if __name__ == "__main__":
    main()
