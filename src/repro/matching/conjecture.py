"""Conjecture 1 of the paper and its computational verification.

Conjecture 1: for *monotone* ``phi`` with ``e(phi) = 0``, the subgraph of
``G_V[phi]`` induced by the colored nodes, or the one induced by the
non-colored nodes, has a perfect matching.  The paper reports verifying it
(with the Glucose SAT solver) for all monotone functions with ``k <= 5``;
our offline substitute checks perfect matchings exactly with an
augmenting-path matcher (:mod:`repro.matching.perfect_matching`) over the
enumerated monotone functions (see
:mod:`repro.enumeration.monotone`) — exhaustively for small ``k``, sampled
for larger ones.

The module also packages the paper's two accompanying observations:
``phi_noPM`` shows the conjecture fails without monotonicity (Figure 5),
and ``phi_oneneg`` shows the "or" is necessary (Figure 7); the searched
witnesses live in :mod:`repro.core.zoo`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.boolean_function import BooleanFunction
from repro.matching.graph import ColoredGraph
from repro.matching.perfect_matching import has_perfect_matching


@dataclass(frozen=True)
class ConjectureVerdict:
    """The matching facts for one function."""

    euler: int
    colored_has_pm: bool
    uncolored_has_pm: bool

    @property
    def satisfies_conjecture(self) -> bool:
        """The disjunction Conjecture 1 asserts (only meaningful when the
        function is monotone with zero Euler characteristic)."""
        return self.colored_has_pm or self.uncolored_has_pm


def check_function(phi: BooleanFunction) -> ConjectureVerdict:
    """Compute both perfect-matching facts for one function."""
    colored_graph = ColoredGraph(phi)
    return ConjectureVerdict(
        euler=phi.euler_characteristic(),
        colored_has_pm=has_perfect_matching(colored_graph.colored_subgraph()),
        uncolored_has_pm=has_perfect_matching(
            colored_graph.uncolored_subgraph()
        ),
    )


@dataclass
class ConjectureReport:
    """Aggregate of a verification sweep."""

    checked: int = 0
    zero_euler: int = 0
    colored_pm: int = 0
    uncolored_pm: int = 0
    both_pm: int = 0
    counterexamples: list[BooleanFunction] | None = None

    def __post_init__(self) -> None:
        if self.counterexamples is None:
            self.counterexamples = []

    @property
    def holds(self) -> bool:
        """Whether no counterexample was found."""
        return not self.counterexamples


def verify_over(
    functions, limit_counterexamples: int = 5
) -> ConjectureReport:
    """Check Conjecture 1 over an iterable of *monotone* functions.

    Functions with non-zero Euler characteristic are counted but skipped
    (the conjecture does not speak about them).
    """
    report = ConjectureReport()
    for phi in functions:
        report.checked += 1
        if phi.euler_characteristic() != 0:
            continue
        report.zero_euler += 1
        verdict = check_function(phi)
        if verdict.colored_has_pm:
            report.colored_pm += 1
        if verdict.uncolored_has_pm:
            report.uncolored_pm += 1
        if verdict.colored_has_pm and verdict.uncolored_has_pm:
            report.both_pm += 1
        if not verdict.satisfies_conjecture:
            if len(report.counterexamples) < limit_counterexamples:
                report.counterexamples.append(phi)
    return report


def verify_exhaustive(k: int) -> ConjectureReport:
    """Exhaustive check over all monotone functions on ``V = {0..k}``
    (Dedekind-ideal enumeration; practical for ``k <= 4``)."""
    from repro.enumeration.monotone import enumerate_monotone_functions

    return verify_over(enumerate_monotone_functions(k + 1))


def verify_sampled(k: int, samples: int, seed: int = 0) -> ConjectureReport:
    """Randomized check for larger ``k``: sample random monotone functions
    (up-closures of random generator sets)."""
    rng = random.Random(seed)
    functions = (
        BooleanFunction.random_monotone(k + 1, rng) for _ in range(samples)
    )
    return verify_over(
        (phi for phi in functions), limit_counterexamples=5
    ) if samples else ConjectureReport()
