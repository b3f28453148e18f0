import random

import pytest

from linesym.graphs import (
    Graph,
    build_graph,
    induced_subgraph,
    is_complete,
    is_regular,
    isomorphic,
)
from oracles import automorphism_count_filter

from conftest import random_connected_graph


def test_triangle_construction():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert is_complete(g)


def test_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0
    assert is_regular(g) == 0
    assert is_complete(g)  # K1 vacuously


def test_k4_every_valency_3():
    g = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert all(g.degree(v) == 3 for v in range(4))
    assert is_regular(g) == 3
    assert is_complete(g)


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, []),
        (2, [(0, 0)]),
        (2, [(0, 2)]),
        (2, [(-1, 0)]),
    ],
)
def test_build_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        build_graph(n, edges)


def test_graph_validation_catches_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))


def test_neighbors_contract(k4):
    assert k4.adj[0] == (1, 2, 3)
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert c5.adj[0] == (1, 4)
    assert c5.adj[4] == (0, 3)
    with pytest.raises(ValueError, match="not strictly sorted"):
        Graph(3, ((2, 1), (0,), (0,)))


def test_petersen_neighbors_all_size_3(petersen):
    for v in range(10):
        assert len(petersen.adj[v]) == 3


def test_induced_subgraph_of_k4_is_k3(k4):
    h = induced_subgraph(k4, {0, 1, 2})
    assert h.n == 3 and is_complete(h)


def test_induced_subgraph_requires_vertices(k4):
    with pytest.raises(ValueError):
        induced_subgraph(k4, set())
    with pytest.raises(ValueError):
        induced_subgraph(k4, {0, 9})


def test_induced_full_vertex_set_is_identity():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        assert induced_subgraph(g, set(range(g.n))).edges == g.edges


def test_is_regular_path_absent():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert is_regular(p3) is None


def test_tutte_is_cubic(tutte):
    assert is_regular(tutte) == 3


def test_not_complete_examples(k3_parts_of_2):
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_complete(c5)
    assert not is_complete(k3_parts_of_2)


# -- isomorphism -------------------------------------------------------------


def test_isomorphic_returns_edge_preserving_bijection(petersen):
    relabel = [3, 7, 1, 0, 9, 4, 2, 8, 5, 6]
    edges = [(relabel[u], relabel[v]) for u, v in petersen.edges]
    h = build_graph(10, edges)
    phi = isomorphic(petersen, h)
    assert phi is not None
    assert sorted(phi) == list(range(10))
    hedges = {frozenset(e) for e in h.edges}
    assert {frozenset((phi[u], phi[v])) for u, v in petersen.edges} == hedges


def test_non_isomorphic_cases():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert isomorphic(c5, c6) is None
    # same degree sequence, different structure: C6 vs 2 triangles
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert isomorphic(c6, two_triangles) is None


def test_isomorphism_reflexive_and_symmetric_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(4, 9))
        assert isomorphic(g, g) is not None
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert isomorphic(g, h) is not None
        assert isomorphic(h, g) is not None


def test_isomorphic_on_rigid_vs_symmetric():
    # path P4 has exactly 2 automorphisms, sanity-check via the filter oracle
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert automorphism_count_filter(p4) == 2
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert isomorphic(p4, star) is None
