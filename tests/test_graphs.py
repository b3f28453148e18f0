import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesym import refinement
from linesym.constructions import catalog
from linesym.graphs import (
    Graph,
    build_graph,
    complement,
    is_complete,
    is_regular,
    isomorphic,
)
from linesym.symmetry import automorphisms
from oracles import automorphism_count_filter, orbit_partition

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


def test_isomorphic_searches_the_disjoint_union_once(monkeypatch, petersen):
    """isomorphic runs one search, on g1 + g2 with g2's vertices shifted by
    n, and none on either graph alone; a disconnected g1 is decided on the
    union of the complements."""
    searched = []
    search = refinement.automorphism_generators

    def counted(adj, colors=None):
        searched.append(adj)
        return search(adj, colors)

    monkeypatch.setattr(refinement, "automorphism_generators", counted)
    relabel = [3, 7, 1, 0, 9, 4, 2, 8, 5, 6]
    g = build_graph(10, petersen.edges)  # a fresh instance, nothing cached on it
    h = build_graph(10, [(relabel[u], relabel[v]) for u, v in petersen.edges])
    assert isomorphic(g, h) is not None
    assert searched == [g.adj + tuple(tuple(w + 10 for w in row) for row in h.adj)]
    assert "search" not in vars(g) and "search" not in vars(h)
    searched.clear()
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert isomorphic(two_triangles, c6) is None
    assert searched == [k33.adj + tuple(tuple(w + 6 for w in row) for row in complement(c6).adj)]
    assert complement(two_triangles) == k33


def search_digests() -> dict[str, str]:
    """sha256 of automorphism_generators' (base, generators, order) on six
    graphs, each under two fixed relabellings."""
    graphs = [catalog("complete(16)"), catalog("cycle(179)"), kneser_graph(9, 3),
              catalog("complete(5)").line.line.line, catalog("tutte_8_cage"), cube_graph(5)]
    out = {}
    for g in graphs:
        for seed in (1, 2):
            base, gens, order = refinement.automorphism_generators(relabelled(g, seed).adj)
            text = json.dumps([base, [list(p) for p in gens], order])
            out[f"{g.name}/{seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


# Recorded from the search that targets the first largest cell and skips
# every node whose cell sizes differ from the first path's; a change to the
# tree (base, generators or group order) has to re-record them.
SEARCH_DIGESTS = {
    "complete(16)/1": "feeb05cf72acfe3c97a71d00677d1605f34c2380b290e54019c745bc502de589",
    "complete(16)/2": "feeb05cf72acfe3c97a71d00677d1605f34c2380b290e54019c745bc502de589",
    "cycle(179)/1": "f10536eefca829f24277bffd27a66ebf1626f7a17bdc74cf00d5145c06f93596",
    "cycle(179)/2": "65cb3389e66fdd1c83b730ffec393efad6d8ad01413d83cff8cb3ba34dad79a9",
    "K(9,3)/1": "490dff9bb455dd4f8c7d72675ab1d9ba4342fdc220bb7aa546f121ad357c7f34",
    "K(9,3)/2": "2c96804791e3a67250b49b81caf6c332039354500f13f522e3e104aca9afa61e",
    "L(L(L(complete(5))))/1": "80c56ccbfab47d9e5326f615cae08999bd4503b81623ee4dd35be64be34afe25",
    "L(L(L(complete(5))))/2": "634fb020b3cfcf8531543af8832b77cccf2d510081316325ccefbbe35d16e735",
    "tutte_8_cage/1": "639c245133a7ee27434c63c0098ce8be43c3085e8afe7a13cc68efa829171c5a",
    "tutte_8_cage/2": "3cad62c0c5e4045cb7593fabe3c8f06d3fd17d8c5ca61938d3f5be9b9da281bc",
    "Q5/1": "d90d6e5eb7614e565b3a7d8de4a29d0e6055b12f0cf6840942925e869b521530",
    "Q5/2": "8fb995aa539959bac1c4dcf56085dc62676fc8ed1bd30ae84df166f8621373df",
}


def test_the_search_tree_is_pinned():
    assert search_digests() == SEARCH_DIGESTS


def test_relabelling_a_graph_relabels_its_search_tree():
    # The target cell is chosen from cell sizes and starts alone, so every
    # labelling gets the same base depth, group order and orbit sizes.
    for g in (catalog("projective_plane(5)"), catalog("complete(5)").line.line.line,
              kneser_graph(9, 3)):
        found = set()
        for seed in (1, 2, 3):
            h = relabelled(g, seed)
            base, gens, group_order = refinement.automorphism_generators(h.adj)
            orbits = Counter(orbit_partition([(v,) for v in range(h.n)], gens))
            found.add((len(base), group_order, tuple(sorted(orbits.values()))))
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
