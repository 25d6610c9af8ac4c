"""Edge ideals and complete-bipartite join detection."""

import itertools
import random

import pytest

from fiberlab import (
    DomainError,
    Graph,
    check_reg_increasing,
    detect_bipartite_join,
    edge_ideal,
    join_fiber_setup,
    reg_of,
)


def brute_force_has_join(graph: Graph) -> bool:
    verts = list(range(1, graph.n + 1))
    for r in range(1, graph.n):
        for v1 in itertools.combinations(verts, r):
            v2 = [v for v in verts if v not in v1]
            if all(graph.has_edge(a, b) for a in v1 for b in v2):
                return True
    return False


def test_edge_ideal_examples():
    single = Graph.from_edges(2, [(1, 2)])
    assert str(edge_ideal(single)) == "x1*x2"
    k22 = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert len(edge_ideal(k22).gens) == 4
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(1, 1)])


def test_detection_examples():
    k22 = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert detect_bipartite_join(k22) == ((1, 2), (3, 4))
    path3 = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert detect_bipartite_join(path3) == ((1, 3), (2,))
    triangle_free_path = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert detect_bipartite_join(triangle_free_path) is None


def test_detection_against_bruteforce_random():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.45
        ]
        graph = Graph.from_edges(n, edges)
        part = detect_bipartite_join(graph)
        assert (part is not None) == brute_force_has_join(graph)
        if part is not None:
            v1, v2 = part
            assert sorted(v1 + v2) == list(range(1, n + 1))
            assert all(graph.has_edge(a, b) for a in v1 for b in v2)


def test_join_setup_matches_edge_ideal():
    # adding the edge {1,2} to K22 joins vertex 1 to everything, so the
    # complement component of vertex 1 is {1} and the inner edges of
    # {2,3,4} land in the right factor
    g = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (1, 2)])
    setup = join_fiber_setup(g)
    assert detect_bipartite_join(g) == ((1,), (2, 3, 4))
    assert setup.I_left.is_zero()
    assert len(setup.J_right.gens) == 2
    assert len(setup.F.gens) == 5


def test_join_setup_requires_join():
    path = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(DomainError):
        join_fiber_setup(path)


def test_k22_power_regularity():
    k22 = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    setup = join_fiber_setup(k22)
    regs = [reg_of(setup.F ** s, 0) for s in (1, 2, 3)]
    assert regs == [2, 4, 6]
    report = check_reg_increasing(setup, 3, 0, claim="cor-8.2")
    assert report.passed
    assert report.expected["provenance"] == "corollary 8.2"
    assert check_reg_increasing(setup, 3, 0).expected["provenance"] == "corollary 8.1"
