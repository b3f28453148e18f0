import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesym import refinement
from linesym.constructions import catalog
from linesym.graphs import (
    Graph,
    build_graph,
    induced_subgraph,
    is_complete,
    is_regular,
    isomorphic,
)
from linesym.symmetry import automorphisms
from oracles import automorphism_count_filter

from conftest import cube_graph, kneser_graph, random_connected_graph


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


def test_isomorphic_reuses_the_search_behind_the_group(monkeypatch, petersen):
    searched = []
    search = refinement.automorphism_generators

    def counted(adj):
        searched.append(adj)
        return search(adj)

    monkeypatch.setattr(refinement, "automorphism_generators", counted)
    relabel = [3, 7, 1, 0, 9, 4, 2, 8, 5, 6]
    g = build_graph(10, petersen.edges)  # a fresh instance, nothing cached on it
    h = build_graph(10, [(relabel[u], relabel[v]) for u, v in petersen.edges])
    automorphisms.cache_clear()
    automorphisms(g)
    assert searched == [g.adj]
    assert isomorphic(g, h) is not None
    assert searched == [g.adj, h.adj]
    assert isomorphic(h, g) is not None
    assert searched == [g.adj, h.adj]


def search_digests() -> dict[str, str]:
    """sha256 of automorphism_generators' (base, generators, order) on six
    graphs, each under two fixed relabellings."""
    graphs = [catalog("complete(16)"), catalog("cycle(179)"), kneser_graph(9, 3),
              catalog("complete(5)").line.line.line, catalog("tutte_8_cage"), cube_graph(5)]
    out = {}
    for g in graphs:
        for seed in (1, 2):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            base, gens, order, _ = refinement.automorphism_generators(h.adj)
            text = json.dumps([base, [list(p) for p in gens], list(order)])
            out[f"{g.name}/{seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


# Recorded from the search as it stood before its partition state was carried
# down the tree; a change to the tree (base, generators or canonical order)
# has to re-record them.
SEARCH_DIGESTS = {
    "complete(16)/1": "c9d7f5ce68b2bd3c76d21c42f19338f869505a3637f1e1a96fd77c467b9dcffa",
    "complete(16)/2": "c9d7f5ce68b2bd3c76d21c42f19338f869505a3637f1e1a96fd77c467b9dcffa",
    "cycle(179)/1": "e6fd8a2405112a929c129dba556ac9082f0bb80cf4b6e62ef9a07a4dc03ef01d",
    "cycle(179)/2": "7ab4b75f88ac696a94af56e8afd2584b4be67ad2255292a1c0a8b817b746681c",
    "K(9,3)/1": "ad0781e48067a24fc1c49f42757f45428cebd465019e767eb9c72f2c1d66cd82",
    "K(9,3)/2": "6afff7f59e6ba2fb817398d5d58a177194ef5e96f0b5c2894793b87d14c09539",
    "L(L(L(complete(5))))/1": "c9664371ff67028258d300cf04609bdec9dca4e75b59de44725fa9a077649751",
    "L(L(L(complete(5))))/2": "9344742e4deb7dddb017b384437c60d384302f975cd9cd5eb9aea20a1039202d",
    "tutte_8_cage/1": "96f76478cb3905eb205d5bc24fc2b0001ab38c250e86c8fa62925b0f77ddf6e4",
    "tutte_8_cage/2": "00f89b58ffb93440662f851d785778ce8f332ecea7a3c3add7bd227c3e0c9e07",
    "Q5/1": "271a27dd39822ebc6e54d68a5dd1d5c60672ee1007288c5e91f97ef2f52cd1a0",
    "Q5/2": "ebf4d963b6ff9dbec507f45dfc7811ab16d210d74db22d3596acc139940be060",
}


def test_the_search_tree_is_pinned():
    assert search_digests() == SEARCH_DIGESTS


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


def _is_edge_bijection(phi, g, h) -> bool:
    return sorted(phi) == list(range(g.n)) and (
        {frozenset((phi[u], phi[v])) for u, v in g.edges} == {frozenset(e) for e in h.edges})


def _edge(u, v):
    return (u, v) if u < v else (v, u)


@st.composite
def graph_pairs(draw):
    """A graph on at most 9 vertices, connected or not, and a relabelled copy
    after a few degree-preserving edge swaps, which may or may not keep it
    isomorphic."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
    edges = set(g.edges)
    for _ in range(draw(st.integers(0, 3))):
        # {a, b}, {c, d} -> {a, d}, {c, b}, keeping every degree
        swaps = [((a, b), (c, d))
                 for a, b in sorted(edges) for e in sorted(edges) for c, d in (e, e[::-1])
                 if len({a, b, c, d}) == 4 and not {_edge(a, d), _edge(c, b)} & edges]
        if not swaps:
            break
        (a, b), (c, d) = draw(st.sampled_from(swaps))
        edges = edges - {(a, b), _edge(c, d)} | {_edge(a, d), _edge(c, b)}
    perm = draw(st.permutations(range(n)))
    return g, build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    def check(g, h):
        phi = isomorphic(g, h)
        assert (phi is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
        if phi is not None:
            assert _is_edge_bijection(phi, g, h)

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs())
    def check_pair(pair):
        check(*pair)

    check_pair()
    rng = random.Random(4)
    for d, n in ((3, 10), (3, 14), (4, 9), (4, 12)):
        for _ in range(8):
            g, h = (nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)) for _ in "gh")
            perm = list(range(n))
            rng.shuffle(perm)
            g, h = build_graph(n, list(g.edges)), build_graph(n, list(h.edges))
            check(g, h)
            check(g, build_graph(n, [(perm[u], perm[v]) for u, v in g.edges]))


def test_isomorphic_separates_shrikhande_from_the_rook_graph():
    # Both are strongly regular with parameters (16, 6, 2, 2), so refinement
    # alone never splits a cell; only the search tells them apart.
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = build_graph(16, [
        (i, j) for i in range(16) for j in range(i + 1, 16)
        if ((cells[j][0] - cells[i][0]) % 4, (cells[j][1] - cells[i][1]) % 4) in steps])
    rook = build_graph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)
                            if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])])
    assert is_regular(shrikhande) == is_regular(rook) == 6
    assert isomorphic(shrikhande, rook) is None
    assert isomorphic(rook, shrikhande) is None


def test_isomorphic_on_rigid_vs_symmetric():
    # path P4 has exactly 2 automorphisms, sanity-check via the filter oracle
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert automorphism_count_filter(p4) == 2
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert isomorphic(p4, star) is None
