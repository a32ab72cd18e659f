"""E13 — Section 7 / [26]: the Conjecture-1 verification experiment.

The paper reports checking Conjecture 1 (monotone, e = 0 ⇒ the colored or
the uncolored induced subgraph has a perfect matching) with a SAT solver
for all monotone functions with k ≤ 5 (~20M non-isomorphic functions).
Our offline substitute (DESIGN.md §3): augmenting-path maximum matchings
on the parity bipartition, exhaustively over the Dedekind enumeration for
k ≤ 4 and sampled for k = 5.  The conjecture must hold on every function
checked.
"""

from __future__ import annotations

from conftest import banner

from repro.matching.conjecture import verify_exhaustive, verify_sampled


def test_conjecture1_exhaustive_small_k(benchmark):
    print(banner("E13 / Conjecture 1", "exhaustive check, k = 1..3"))
    print(f"{'k':>2} {'monotone':>9} {'e=0':>6} {'colored PM':>11} "
          f"{'uncolored PM':>13} {'both':>6} {'holds':>6}")
    for k in (1, 2, 3):
        report = verify_exhaustive(k)
        print(f"{k:>2} {report.checked:>9} {report.zero_euler:>6} "
              f"{report.colored_pm:>11} {report.uncolored_pm:>13} "
              f"{report.both_pm:>6} {str(report.holds):>6}")
        assert report.holds
    benchmark(verify_exhaustive, 3)


def test_conjecture1_exhaustive_k4():
    print(banner("E13 / Conjecture 1", "exhaustive check, k = 4 "
                                       "(all M(5) = 7581 monotone functions)"))
    report = verify_exhaustive(4)
    print(f"checked {report.checked}, zero-Euler {report.zero_euler}, "
          f"colored-PM {report.colored_pm}, uncolored-PM "
          f"{report.uncolored_pm}, both {report.both_pm}, "
          f"holds: {report.holds}")
    assert report.holds
    assert report.checked == 7581


def test_conjecture1_sampled_k5():
    print(banner("E13 / Conjecture 1", "sampled check, k = 5 "
                                       "(scaled-down substitute for the "
                                       "paper's 20M-function SAT sweep)"))
    report = verify_sampled(5, samples=300, seed=13)
    print(f"sampled {report.checked} monotone functions, zero-Euler "
          f"{report.zero_euler}, holds: {report.holds}")
    assert report.holds
