"""Perfect matchings of induced hypercube subgraphs (Section 7).

The paper reformulates ``phi ∼−* ⊥`` as: the subgraph of ``G_V[phi]``
induced by the colored nodes has a perfect matching (and dually
``phi ∼+* ⊤`` for the uncolored nodes).  Because the hypercube is bipartite
(by valuation-size parity), maximum matchings are computed exactly by
augmenting paths from the even-size side — our offline substitute for the
Glucose SAT solver used by [26] for the experiment cited under
Conjecture 1.
"""

from __future__ import annotations

from repro.core import valuations as _val
from repro.core.boolean_function import BooleanFunction
from repro.matching.graph import ColoredGraph, Graph


def maximum_matching_of_induced(graph: Graph) -> dict[int, int]:
    """A maximum matching of an induced hypercube subgraph, as a symmetric
    node->node dict.

    Kuhn's algorithm on the parity bipartition: each even-size node in
    turn starts an iterative depth-first search for an augmenting path.
    Nodes and neighbours are visited in sorted order, so every process
    picks the same matching (and so the same Section 7 template).
    """
    evens = sorted(n for n in graph.nodes if _val.parity(n) == 1)
    neighbours = {n: sorted(graph.adjacency[n]) for n in evens}
    mate: dict[int, int] = {}
    for root in evens:
        visited: set[int] = set()  # odd-size nodes reached from root
        stack = [(root, iter(neighbours[root]))]
        while stack:
            for odd in stack[-1][1]:
                if odd in visited:
                    continue
                visited.add(odd)
                if odd in mate:
                    partner = mate[odd]
                    stack.append((partner, iter(neighbours[partner])))
                    break
                # ``odd`` is free: augment.  Each even node on the stack
                # takes the odd node found after it and releases its old
                # mate to the even node before it.
                free = odd
                for even, _ in reversed(stack):
                    released = mate.get(even)
                    mate[even] = free
                    mate[free] = even
                    free = released
                stack.clear()
                break
            else:
                stack.pop()
    return mate


def has_perfect_matching(graph: Graph) -> bool:
    """Whether an induced hypercube subgraph has a perfect matching."""
    if graph.number_of_nodes() % 2 == 1:
        return False
    matching = maximum_matching_of_induced(graph)
    return len(matching) == graph.number_of_nodes()


def _perfect_pairs(graph: Graph) -> list[tuple[int, int]] | None:
    """A perfect matching of ``graph`` as sorted ``(smaller, larger)``
    pairs, or None if there is none."""
    matching = maximum_matching_of_induced(graph)
    if len(matching) != graph.number_of_nodes():
        return None
    return sorted((a, b) for a, b in matching.items() if a < b)


def colored_matching(phi: BooleanFunction) -> list[tuple[int, int]] | None:
    """A perfect matching of the colored subgraph of ``G_V[phi]`` as a list
    of adjacent valuation pairs, or None if there is none.

    A returned matching certifies ``phi ∼−* ⊥`` and feeds
    :func:`repro.core.fragmentation.fragment_via_matching` (the d-DNNF
    special case of Section 7).
    """
    return _perfect_pairs(ColoredGraph(phi).colored_subgraph())


def uncolored_matching(phi: BooleanFunction) -> list[tuple[int, int]] | None:
    """A perfect matching of the *uncolored* subgraph, certifying
    ``phi ∼+* ⊤`` (then ``¬Q_phi ∈ d-DNNF(PTIME)``, Section 7), or None."""
    return _perfect_pairs(ColoredGraph(phi).uncolored_subgraph())


def steps_from_matching(
    phi: BooleanFunction, pairs: list[tuple[int, int]]
) -> list:
    """Turn a colored perfect matching into an explicit ``∼−*`` derivation
    ``phi ~> ⊥`` (each pair is one removal step)."""
    from repro.core.transformation import Step, apply_steps

    steps = []
    for first, second in pairs:
        variable = (first ^ second).bit_length() - 1
        steps.append(Step(-1, first, variable))
    final = apply_steps(phi, steps)
    if not final.is_bottom():
        raise ValueError("pairs do not tile SAT(phi)")
    return steps
