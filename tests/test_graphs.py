import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesym import refinement
from linesym.constructions import catalog
from linesym.graphs import (
    Graph,
    build_graph,
    is_complete,
    is_regular,
    isomorphic,
)
from linesym.symmetry import automorphisms
from oracles import automorphism_count_filter

from conftest import cube_graph, kneser_graph, random_connected_graph, relabelled


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


def test_repr_names_the_graph_when_it_has_a_name():
    assert repr(catalog("petersen")) == "<Graph 'petersen' n=10 m=15>"
    assert repr(build_graph(3, [(0, 1)])) == "<Graph n=3 m=1>"


def test_k4_every_valency_3():
    g = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert all(len(g.adj[v]) == 3 for v in range(4))
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


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (2, ((1,),), "adjacency length does not match vertex count"),
        (0, (), "graph needs at least one vertex"),
        (2, ((2,), ()), "neighbor 2 of vertex 0 out of range"),
        (2, ((-1,), ()), "neighbor -1 of vertex 0 out of range"),
        (2, ((), (1,)), "self-loop at vertex 1"),
        (3, ((2, 1), (0,), (0,)), "adjacency row of vertex 0 not strictly sorted"),
        (3, ((1, 1), (0,), ()), "adjacency row of vertex 0 not strictly sorted"),
    ],
)
def test_graph_validation_names_each_fault(n, adj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(n, adj)


def test_graph_validation_catches_asymmetry():
    with pytest.raises(ValueError, match="^edge 0-1 is not symmetric$"):
        Graph(2, ((1,), ()))
    with pytest.raises(ValueError, match="^edge 1-0 is not symmetric$"):
        Graph(2, ((), (0,)))


def test_build_graph_leaves_self_loops_to_graph():
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        build_graph(4, [(0, 3), (3, 3), (1, 1), (1, 2)])


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


def test_edge_rank_is_keyed_both_ways(petersen):
    for g in (petersen, catalog("complete(5)"), catalog("path(4)"), build_graph(1, [])):
        assert len(g.edge_rank) == 2 * g.m
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_rank[u, v] == g.edge_rank[v, u] == i


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
            base, gens, order, _ = refinement.automorphism_generators(relabelled(g, seed).adj)
            text = json.dumps([base, [list(p) for p in gens], list(order)])
            out[f"{g.name}/{seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


# Recorded from the search that targets the first largest cell; a change to
# the tree (base, generators or canonical order) has to re-record them.
SEARCH_DIGESTS = {
    "complete(16)/1": "c9d7f5ce68b2bd3c76d21c42f19338f869505a3637f1e1a96fd77c467b9dcffa",
    "complete(16)/2": "c9d7f5ce68b2bd3c76d21c42f19338f869505a3637f1e1a96fd77c467b9dcffa",
    "cycle(179)/1": "e6fd8a2405112a929c129dba556ac9082f0bb80cf4b6e62ef9a07a4dc03ef01d",
    "cycle(179)/2": "7ab4b75f88ac696a94af56e8afd2584b4be67ad2255292a1c0a8b817b746681c",
    "K(9,3)/1": "2189b86de9313a819e7280f09e14f072218929339f4341775066302dc6eb4442",
    "K(9,3)/2": "d6b9ad46f9af01ba9b14ea289230f85cfe4da4c8427664cfc62a57f19716b799",
    "L(L(L(complete(5))))/1": "0fc291e72a72db8bb77f47faac3ee7d82e4200cc40a841380fc6e00a2352ff8a",
    "L(L(L(complete(5))))/2": "d034cb217a902fc5ce8fb7fb14038cac7e72eab3fb16085fac5300a5b2cf013c",
    "tutte_8_cage/1": "8631cc4a82c5a95a04e06dffcb8cfbd995cd67420b2bd24cdb23149708e5514f",
    "tutte_8_cage/2": "1d988c35ef9e86344b7aad1b1d4f8a7407f320f7aae773b6650c35aa44633e3a",
    "Q5/1": "72d0b0d648727cdd1b0e756499b921bf76466bfd3e1ea7d532ed6bb0d92337ad",
    "Q5/2": "18d1c911be2a4fd6d42b2d2d3cc85033cd0b45cef598f96c784db1f7f4ece4e6",
}


def test_the_search_tree_is_pinned():
    assert search_digests() == SEARCH_DIGESTS


def test_relabelling_a_graph_relabels_its_search_tree():
    # The target cell is chosen from cell sizes and starts alone, so every
    # labelling gets the same base depth, group order and canonical form.
    for g in (catalog("projective_plane(5)"), catalog("complete(5)").line.line.line,
              kneser_graph(9, 3)):
        found = set()
        for seed in (1, 2, 3):
            h = relabelled(g, seed)
            base, _, order, group_order = refinement.automorphism_generators(h.adj)
            found.add((len(base), group_order, refinement.certificate(h.adj, order)))
        assert len(found) == 1, g.name


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
