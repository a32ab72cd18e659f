"""Hypercube graphs, perfect matchings and Conjecture 1 (Section 7)."""

from repro.matching.conjecture import (
    ConjectureReport,
    ConjectureVerdict,
    check_function,
    verify_exhaustive,
    verify_over,
    verify_sampled,
)
from repro.matching.graph import ColoredGraph, Graph, hypercube_graph
from repro.matching.perfect_matching import (
    colored_matching,
    has_perfect_matching,
    maximum_matching_of_induced,
    steps_from_matching,
    uncolored_matching,
)

__all__ = [
    "ColoredGraph",
    "ConjectureReport",
    "ConjectureVerdict",
    "Graph",
    "check_function",
    "colored_matching",
    "has_perfect_matching",
    "hypercube_graph",
    "maximum_matching_of_induced",
    "steps_from_matching",
    "uncolored_matching",
    "verify_exhaustive",
    "verify_over",
    "verify_sampled",
]
