"""The hypercube graph ``G_V`` and colored graphs ``G_V[phi]``.

Definition 5.6: ``G_V`` has node set ``2^V`` with an edge between any two
valuations differing in exactly one variable, and ``G_V[phi]`` colors the
satisfying valuations of ``phi``.  Figures 3, 5 and 7 of the paper are
colored graphs of this kind.  Nodes are valuation masks, and a
:class:`Graph` is an adjacency dict over them.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core import valuations as _val
from repro.core.boolean_function import BooleanFunction


class Graph:
    """An undirected simple graph: ``adjacency`` maps each node to the set
    of its neighbours."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: dict[int, set[int]]):
        self.adjacency = adjacency

    @property
    def nodes(self):
        return self.adjacency.keys()

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as ``(smaller, larger)``."""
        return [
            (node, neighbour)
            for node, neighbours in self.adjacency.items()
            for neighbour in neighbours
            if node < neighbour
        ]

    def number_of_nodes(self) -> int:
        return len(self.adjacency)

    def number_of_edges(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def subgraph(self, nodes: Iterable[int]) -> Graph:
        """A new graph induced by ``nodes`` (those not in this graph are
        ignored)."""
        keep = set(nodes)
        return Graph({
            node: neighbours & keep
            for node, neighbours in self.adjacency.items()
            if node in keep
        })


def hypercube_graph(nvars: int) -> Graph:
    """``G_V`` for ``V = {0..nvars-1}``: nodes are valuation masks."""
    return Graph({
        mask: {mask ^ (1 << var) for var in range(nvars)}
        for mask in range(1 << nvars)
    })


class ColoredGraph:
    """``G_V[phi]``: the hypercube with the models of ``phi`` colored."""

    def __init__(self, phi: BooleanFunction):
        self.phi = phi
        self.graph = hypercube_graph(phi.nvars)
        self.colored = frozenset(phi.satisfying_masks())

    @property
    def uncolored(self) -> frozenset[int]:
        """The non-satisfying valuations."""
        return frozenset(
            m for m in range(1 << self.phi.nvars) if m not in self.colored
        )

    def colored_subgraph(self) -> Graph:
        """The subgraph induced by the colored (satisfying) valuations."""
        return self.graph.subgraph(self.colored)

    def uncolored_subgraph(self) -> Graph:
        """The subgraph induced by the uncolored valuations."""
        return self.graph.subgraph(self.uncolored)

    def isolated_colored_nodes(self) -> list[int]:
        """Colored nodes with no colored neighbor (like ``{3,4}`` in the
        paper's Figure 5)."""
        sub = self.colored_subgraph()
        return sorted(n for n in sub.nodes if sub.degree(n) == 0)

    def isolated_uncolored_nodes(self) -> list[int]:
        """Uncolored nodes with no uncolored neighbor (like ``{0,3,4}`` in
        Figure 5)."""
        sub = self.uncolored_subgraph()
        return sorted(n for n in sub.nodes if sub.degree(n) == 0)

    def euler_characteristic(self) -> int:
        """``e(phi)`` — the coloring invariant preserved by the ±moves."""
        return self.phi.euler_characteristic()

    def levels(self) -> list[list[int]]:
        """Nodes grouped by valuation size (the rows of Figures 3/5/7)."""
        by_size: list[list[int]] = [[] for _ in range(self.phi.nvars + 1)]
        for mask in range(1 << self.phi.nvars):
            by_size[_val.popcount(mask)].append(mask)
        return by_size
