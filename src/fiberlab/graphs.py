"""Edge ideals of graphs and complete-bipartite join detection."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Ring
from .errors import DomainError
from .fiber import FiberSetup, fiber_product
from .ideals import MonomialIdeal


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("graph needs at least one vertex")
        for a, b in self.edges:
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            if not (1 <= a < b <= self.n):
                raise DomainError(f"edge ({a},{b}) out of range or unordered")

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        norm = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        return Graph(n, norm)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def complement(self) -> "Graph":
        comp = {
            (a, b)
            for a in range(1, self.n + 1)
            for b in range(a + 1, self.n + 1)
            if (a, b) not in self.edges
        }
        return Graph(self.n, frozenset(comp))


def edge_ideal(graph: Graph) -> MonomialIdeal:
    """The ideal generated by x_a * x_b over the edges of the graph, over Q."""
    ring = Ring("E", tuple(f"x{i}" for i in range(1, graph.n + 1)))
    gens = []
    for a, b in sorted(graph.edges):
        vec = [0] * graph.n
        vec[a - 1] += 1
        vec[b - 1] += 1
        gens.append(tuple(vec))
    return MonomialIdeal.from_exponents(ring, gens)


def _components(graph: Graph) -> list[list[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, graph.n + 1)}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps = []
    for start in range(1, graph.n + 1):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def detect_bipartite_join(graph: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Partition (V1, V2) with every cross pair an edge, if one exists.

    Such a partition exists iff the complement graph is disconnected;
    V1 is the complement component containing vertex 1.
    """
    if graph.n < 2:
        return None
    comps = _components(graph.complement())
    if len(comps) < 2:
        return None
    first = next(c for c in comps if 1 in c)
    rest = sorted(v for c in comps if c is not first for v in c)
    return tuple(first), tuple(rest)


def join_fiber_setup(
    graph: Graph,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> FiberSetup:
    """Present the edge ideal of a join graph as a fiber product.

    Variables are regrouped so each side of the partition is one block;
    the edge ideal then equals I(G1) + I(G2) + m*n for the induced
    subgraphs G1, G2.
    """
    if partition is None:
        partition = detect_bipartite_join(graph)
        if partition is None:
            raise DomainError("graph has no complete bipartite join partition")
    v1, v2 = partition
    missing = [
        (a, b) for a in v1 for b in v2 if not graph.has_edge(a, b)
    ]
    if missing:
        raise DomainError(f"partition is not a join: missing cross edges {missing[:3]}")

    def side_ideal(verts: tuple[int, ...], name: str) -> MonomialIdeal:
        ring = Ring(name, tuple(f"x{v}" for v in verts))
        pos = {v: i for i, v in enumerate(verts)}
        gens = []
        for a, b in sorted(graph.edges):
            if a in pos and b in pos:
                vec = [0] * len(verts)
                vec[pos[a]] += 1
                vec[pos[b]] += 1
                gens.append(tuple(vec))
        return MonomialIdeal.from_exponents(ring, gens)

    return fiber_product(side_ideal(v1, "V1"), side_ideal(v2, "V2"))
