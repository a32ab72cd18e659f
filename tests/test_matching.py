"""Tests for hypercube graphs, perfect matchings and Conjecture 1."""

from __future__ import annotations

import random

import pytest

from repro.core import valuations as _val
from repro.core.boolean_function import BooleanFunction
from repro.core.transformation import apply_steps
from repro.matching import (
    ColoredGraph,
    Graph,
    check_function,
    colored_matching,
    has_perfect_matching,
    hypercube_graph,
    maximum_matching_of_induced,
    steps_from_matching,
    uncolored_matching,
    verify_exhaustive,
    verify_over,
)
from repro.queries.hqueries import phi_9


class TestHypercubeGraph:
    def test_node_and_edge_counts(self):
        graph = hypercube_graph(4)
        assert graph.number_of_nodes() == 16
        assert graph.number_of_edges() == 4 * 8  # n * 2^{n-1}

    def test_bipartite_by_parity(self):
        graph = hypercube_graph(3)
        for a, b in graph.edges:
            assert (bin(a).count("1") + bin(b).count("1")) % 2 == 1


class TestColoredGraph:
    def test_phi9_coloring(self):
        colored = ColoredGraph(phi_9())
        assert len(colored.colored) == 8
        assert len(colored.uncolored) == 8
        assert colored.euler_characteristic() == 0

    def test_levels(self):
        levels = ColoredGraph(phi_9()).levels()
        assert [len(level) for level in levels] == [1, 4, 6, 4, 1]

    def test_isolated_nodes(self):
        # phi with exactly one model has it isolated among colored nodes.
        phi = BooleanFunction.exactly(3, {0, 1})
        colored = ColoredGraph(phi)
        assert colored.isolated_colored_nodes() == [0b011]


class TestPerfectMatching:
    def test_empty_graph_has_pm(self):
        phi = BooleanFunction.bottom(3)
        assert has_perfect_matching(ColoredGraph(phi).colored_subgraph())

    def test_odd_count_no_pm(self):
        phi = BooleanFunction.exactly(3, [])
        assert not has_perfect_matching(ColoredGraph(phi).colored_subgraph())

    def test_adjacent_pair_has_pm(self):
        phi = BooleanFunction.from_satisfying(3, [0b000, 0b001])
        assert has_perfect_matching(ColoredGraph(phi).colored_subgraph())

    def test_antipodal_pair_no_pm(self):
        phi = BooleanFunction.from_satisfying(3, [0b000, 0b111])
        assert not has_perfect_matching(ColoredGraph(phi).colored_subgraph())

    def test_matching_output_valid(self):
        phi = phi_9()
        pairs = colored_matching(phi)
        assert pairs is not None
        seen = set()
        for a, b in pairs:
            assert (a ^ b).bit_count() == 1
            assert phi(a) and phi(b)
            seen.update((a, b))
        assert seen == set(phi.satisfying_masks())

    def test_maximum_matching_is_symmetric_dict(self):
        phi = phi_9()
        matching = maximum_matching_of_induced(
            ColoredGraph(phi).colored_subgraph()
        )
        for a, b in matching.items():
            assert matching[b] == a

    def test_uncolored_matching(self):
        phi = phi_9()
        pairs = uncolored_matching(phi)
        assert pairs is not None
        for a, b in pairs:
            assert not phi(a) and not phi(b)

    def test_steps_from_matching_reach_bottom(self):
        phi = phi_9()
        pairs = colored_matching(phi)
        steps = steps_from_matching(phi, pairs)
        assert apply_steps(phi, steps).is_bottom()
        assert all(step.sign == -1 for step in steps)


def assert_matching_on(graph, matching):
    """``matching`` is a symmetric node->node dict over edges of ``graph``."""
    edges = set(graph.edges)
    for a, b in matching.items():
        assert matching[b] == a
        assert (min(a, b), max(a, b)) in edges


class TestMatcherOverAllFunctions:
    """Over every function of ``nvars`` variables: the functions whose
    colored subgraph has a perfect matching, those whose uncolored one
    has, those with both, and the sum of the colored maximum-matching
    sizes.  The expected counts were computed with an independent
    Hopcroft–Karp matcher."""

    @pytest.mark.parametrize(
        "nvars, expected",
        [
            (2, (6, 6, 6, 10)),
            (3, (66, 66, 62, 368)),
            (4, (10_750, 10_750, 8_918, 207_352)),
        ],
    )
    def test_counts(self, nvars, expected):
        colored_pm = uncolored_pm = both_pm = matched_pairs = 0
        for table in range(1 << (1 << nvars)):
            graph = ColoredGraph(BooleanFunction(nvars, table))
            colored = graph.colored_subgraph()
            uncolored = graph.uncolored_subgraph()
            matching = maximum_matching_of_induced(colored)
            if nvars <= 3:
                assert_matching_on(colored, matching)
                assert_matching_on(
                    uncolored, maximum_matching_of_induced(uncolored)
                )
            matched_pairs += len(matching) // 2
            has_colored = has_perfect_matching(colored)
            has_uncolored = has_perfect_matching(uncolored)
            colored_pm += has_colored
            uncolored_pm += has_uncolored
            both_pm += has_colored and has_uncolored
        assert (colored_pm, uncolored_pm, both_pm, matched_pairs) == expected

    def test_long_augmenting_path_needs_no_recursion(self):
        # A path x0 - x1 - ... whose even-size nodes x2, x4, ... each take
        # their smaller neighbour first, so the last root, x0, must shift
        # every pair along: a 3,000-deep search.
        length = 3_000
        evens = [n for n in range(1, 1 << 14) if _val.parity(n) == 1]
        odds = [n for n in range(1 << 14) if _val.parity(n) == -1]
        path = [evens[length - 1]]
        for index in range(length):
            path.append(odds[index])
            if index < length - 1:
                path.append(evens[index])
        adjacency = {node: set() for node in path}
        for a, b in zip(path, path[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)
        graph = Graph(adjacency)
        matching = maximum_matching_of_induced(graph)
        assert len(matching) == graph.number_of_nodes() == 2 * length
        assert_matching_on(graph, matching)

    def test_matching_depends_on_the_graph_alone(self):
        # Nodes and neighbours are visited in sorted order, whatever
        # order the adjacency dict holds them in, so every process picks
        # the same matching.
        graph = hypercube_graph(3)
        shuffled = list(graph.nodes)
        random.Random(5).shuffle(shuffled)
        rebuilt = Graph({n: set(graph.adjacency[n]) for n in shuffled})
        for candidate in (graph, rebuilt):
            matching = maximum_matching_of_induced(candidate)
            assert sorted(
                (a, b) for a, b in matching.items() if a < b
            ) == [(0, 4), (1, 3), (2, 6), (5, 7)]


class TestConjecture1:
    def test_phi9_verdict(self):
        verdict = check_function(phi_9())
        assert verdict.euler == 0
        assert verdict.colored_has_pm
        assert verdict.satisfies_conjecture

    def test_exhaustive_k1(self):
        report = verify_exhaustive(1)
        assert report.holds
        assert report.checked == 6  # M(2) monotone functions
        assert report.zero_euler > 0

    def test_exhaustive_k2(self):
        report = verify_exhaustive(2)
        assert report.holds
        assert report.checked == 20  # M(3)

    def test_exhaustive_k3(self):
        report = verify_exhaustive(3)
        assert report.holds
        assert report.checked == 168  # M(4)

    def test_counterexample_without_monotonicity(self):
        # Figure 5's point: the conjecture fails for non-monotone functions.
        from repro.core.zoo import find_phi_no_pm

        phi = find_phi_no_pm()
        verdict = check_function(phi)
        assert verdict.euler == 0
        assert not verdict.satisfies_conjecture

    def test_verify_over_skips_nonzero_euler(self):
        phi = BooleanFunction.exactly(3, [])  # e = 1
        report = verify_over([phi])
        assert report.checked == 1
        assert report.zero_euler == 0
        assert report.holds

    def test_sampled_monotone(self):
        rng = random.Random(3)
        functions = [
            BooleanFunction.random_monotone(5, rng) for _ in range(40)
        ]
        report = verify_over(functions)
        assert report.holds
