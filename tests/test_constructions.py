import inspect
import itertools
import random
import re
import sys

import pytest

from linesym.constructions import (
    EdgeIndex,
    catalog,
    catalog_entries,
    clique_graph,
    line_graph,
    subdivision_graph,
)
from linesym.graph6 import emit_graph6
from linesym.graphs import build_graph, is_complete, is_regular, isomorphic
from linesym.metrics import diameter, girth, is_connected
from oracles import maximal_cliques_reference

from conftest import connected_atlas, random_connected_graph, relabelled


def cycle(n):
    return catalog(f"cycle({n})")


def path(r):
    return catalog(f"path({r})")


# -- edge index ---------------------------------------------------------------


def test_edge_index_ranks_are_lexicographic(petersen):
    idx = EdgeIndex.from_graph(petersen)
    assert idx.edges == petersen.edges
    assert idx.edges == tuple(sorted(idx.edges)) and len(idx) == petersen.m
    for i, (u, v) in enumerate(idx.edges):
        assert idx.host.edge_rank[u, v] == idx.host.edge_rank[v, u] == i
    assert (0, 0) not in idx.host.edge_rank


def test_line_graph_is_shared_per_host():
    g = catalog("heawood")
    assert line_graph(g).graph is line_graph(g).graph is g.line
    assert g.line.name == "L(heawood)"
    twin = build_graph(g.n, g.edges)
    assert twin == g
    assert twin.line == g.line and twin.line is not g.line
    with pytest.raises(ValueError):
        build_graph(3, []).line


# -- line graphs ---------------------------------------------------------------


def test_line_graph_vertex_count_is_edge_count(petersen, heawood):
    assert line_graph(petersen).graph.n == petersen.m
    assert line_graph(heawood).graph.n == heawood.m


def test_line_graph_degree_rule():
    """deg_L({u,v}) = deg(u) + deg(v) - 2, for a few random graphs."""
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 9))
        lg = line_graph(g)
        for i, (u, v) in enumerate(g.edges):
            assert len(lg.graph.adj[i]) == len(g.adj[u]) + len(g.adj[v]) - 2


def test_line_graph_of_cycle_is_cycle():
    for n in (3, 5, 8):
        assert isomorphic(line_graph(cycle(n)).graph, cycle(n)) is not None


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_line_graph_of_path_drops_one_edge(r):
    lg = line_graph(path(r)).graph
    assert isomorphic(lg, path(r - 1)) is not None


def test_line_graph_of_k4_is_k3_parts_of_2(k4, k3_parts_of_2):
    assert isomorphic(line_graph(k4).graph, k3_parts_of_2) is not None


def test_line_graph_refuses_edgeless():
    with pytest.raises(ValueError):
        line_graph(build_graph(2, []))


# -- line-graph roots ---------------------------------------------------------

# Beineke's nine forbidden induced subgraphs (1970): (vertex count, edges).
BEINEKE = [
    (4, [(0, 3), (1, 3), (2, 3)]),
    (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (6, [(0, 1), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)]),
    (6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4)]),
    (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (4, 5)]),
    (6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
    (6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]),
    (6, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5),
         (4, 5)]),
]


def _assert_root_rebuilds(g, found):
    """ends is a bijection onto the root's edges, and two vertices of g are
    adjacent exactly when their edges share an endpoint."""
    h, ends = found
    assert sorted(ends) == list(h.edges)
    pairs = itertools.combinations(range(g.n), 2)
    assert build_graph(g.n, [(x, w) for x, w in pairs if set(ends[x]) & set(ends[w])]).adj == g.adj


def test_root_graph_agrees_with_networkx_on_the_atlas_and_catalog_line_graphs():
    """None exactly where networkx finds no root; otherwise an isomorphic root
    (K3 may come back for networkx's K1,3) whose bijection rebuilds g."""
    nx = pytest.importorskip("networkx")
    graphs = [h for g in connected_atlas() for h in ((g, g.line) if g.m else (g,))]
    hosts = [catalog(f"projective_plane({p})").line for p in (2, 3, 5, 7)]
    hosts += [catalog("tutte_8_cage").line, catalog("petersen").line.line]
    graphs += [relabelled(g, seed) for g in hosts for seed in (1, 2)]
    found_roots = 0
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        try:
            expected = nx.inverse_line_graph(h)
        except nx.NetworkXError:
            expected = None
        found = g.root
        assert (found is None) == (expected is None), g.edges
        if found is not None:
            found_roots += 1
            _assert_root_rebuilds(g, found)
            labels = {v: i for i, v in enumerate(expected)}
            other = build_graph(len(labels), [(labels[u], labels[v]) for u, v in expected.edges])
            assert isomorphic(found[0], other) is not None or (g.n, g.m) == (3, 3)
    assert found_roots > len(graphs) // 2


def test_root_graph_needs_a_connected_graph():
    assert build_graph(1, []).root == (build_graph(2, [(0, 1)]), ((0, 1),))
    assert build_graph(2, []).root is None
    assert build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).root is None


def test_beineke_graphs_are_the_minimal_graphs_without_a_root():
    graphs = [build_graph(n, edges) for n, edges in BEINEKE]
    for i, g in enumerate(graphs):
        assert g.root is None
        assert all(isomorphic(g, h) is None for h in graphs[:i])
        for v in range(g.n):  # every vertex-deleted subgraph is a line graph
            rest = build_graph(g.n, [e for e in g.edges if v not in e])
            seen = {v}
            for start in range(g.n):
                if start in seen:
                    continue
                part = sorted(w for w, d in enumerate(rest.distances(start)) if d is not None)
                seen.update(part)
                label = {w: j for j, w in enumerate(part)}
                piece = build_graph(len(part), [(label[a], label[b]) for a, b in rest.edges
                                                if a in label])
                assert piece.root is not None


def test_the_root_is_shared_by_every_caller(petersen):
    lg = line_graph(petersen).graph
    assert lg.root is petersen.line.root
    assert isomorphic(lg.root[0], petersen) is not None


# -- subdivision ---------------------------------------------------------------


def test_subdivision_shape(petersen, k4):
    """The edge of rank i becomes vertex n + i, joined to exactly its two ends."""
    for g in (petersen, k4):
        s = subdivision_graph(g).graph
        assert s.n == g.n + g.m
        assert s.m == 2 * g.m
        for i, e in enumerate(g.edges):
            assert s.adj[g.n + i] == e


def test_subdivision_doubles_girth(petersen, k4):
    assert girth(subdivision_graph(petersen).graph) == 2 * girth(petersen)
    assert girth(subdivision_graph(k4).graph) == 6


def test_subdivision_is_bipartite():
    rng = random.Random(9)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 8))
        s = subdivision_graph(g).graph
        # 2-color by BFS
        color = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in s.adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        nxt.append(w)
            frontier = nxt
        assert len(color) == s.n
        for u, v in s.edges:
            assert color[u] != color[v]


def test_subdivision_of_triangle_is_c6():
    k3 = catalog("complete(3)")
    assert isomorphic(subdivision_graph(k3).graph, cycle(6)) is not None


def test_subdivision_of_single_edge_path():
    # one edge splits into a path with two edges
    s = subdivision_graph(path(1)).graph
    assert isomorphic(s, path(2)) is not None


def test_subdivision_of_an_edgeless_graph_is_refused():
    with pytest.raises(ValueError, match="subdividing an edgeless graph changes nothing"):
        subdivision_graph(build_graph(3, []))


# -- clique graphs --------------------------------------------------------------


def _maximum_clique_count(g):
    """The number of maximum-size cliques, by the subset oracle."""
    sizes = [len(c) for c in maximal_cliques_reference(g)]
    return sizes.count(max(sizes))


def test_clique_graph_equals_line_graph_beyond_girth_3(petersen, heawood, k33):
    for g in (petersen, heawood, k33, cycle(6)):
        assert isomorphic(clique_graph(g).graph, line_graph(g).graph) is not None


def test_clique_graph_of_k3_parts_of_2(k3_parts_of_2):
    # maximum cliques are the 8 triangles picking one vertex per part
    cg = clique_graph(k3_parts_of_2)
    assert cg.graph.n == 8 == _maximum_clique_count(k3_parts_of_2)


def test_clique_graph_reconstructs_host(petersen):
    lp = line_graph(petersen).graph
    assert isomorphic(clique_graph(lp).graph, petersen) is not None


def test_maximal_cliques_match_subset_oracle():
    from linesym.constructions import _maximal_cliques

    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 9), extra_p=rng.choice([0.2, 0.5, 0.8]))
        got = {frozenset(c) for c in _maximal_cliques(g)}
        assert got == maximal_cliques_reference(g)
        assert clique_graph(g).graph.n == _maximum_clique_count(g)


def test_clique_search_depth_is_not_limited_by_the_recursion_limit():
    g = catalog("complete(60)")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        cg = clique_graph(g)
    finally:
        sys.setrecursionlimit(limit)
    assert cg.graph.n == 1


# -- catalog --------------------------------------------------------------------


def test_catalog_petersen_shape(petersen):
    assert (petersen.n, petersen.m) == (10, 15)
    assert is_regular(petersen) == 3
    assert girth(petersen) == 5


def test_catalog_k32_shape(k3_parts_of_2):
    assert (k3_parts_of_2.n, k3_parts_of_2.m) == (6, 12)
    assert is_regular(k3_parts_of_2) == 4
    assert not is_complete(k3_parts_of_2)


def test_catalog_tutte_shape(tutte):
    assert (tutte.n, tutte.m) == (30, 45)
    assert is_regular(tutte) == 3
    assert girth(tutte) == 8
    assert diameter(tutte) == 4


def test_catalog_tutte_graph_is_pinned(tutte):
    """Its lines are the 15 perfect matchings of the six symbols, in
    lexicographic order; the search digests and golden records rest on
    exactly this labelling."""
    assert emit_graph6(tutte) == (
        b"]?????????????????C?`_AQ?EAC@AAA@?a?H?G@AG?CD??D?O?C`??AE???WC??Aa???HO???")


def test_catalog_heawood_shape(heawood):
    assert (heawood.n, heawood.m) == (14, 21)
    assert girth(heawood) == 6


def test_catalog_icosahedron_shape(icosahedron):
    assert (icosahedron.n, icosahedron.m) == (12, 30)
    assert is_regular(icosahedron) == 5
    assert girth(icosahedron) == 3
    assert diameter(icosahedron) == 3


def test_catalog_parameterized_names():
    assert catalog("complete(5)").m == 10
    assert catalog("cycle(7)").n == 7
    assert catalog("path(3)").n == 4
    k23 = catalog("complete_multipartite(2,3)")
    assert (k23.n, k23.m) == (6, 9)  # K_{3,3} in multipartite clothing
    assert isomorphic(k23, catalog("k33")) is not None


def test_catalog_rejects_unknown_names():
    for bad in ("doughnut", "cycle(2)", "complete(0)", "complete_multipartite(1,4)", "path(0)",
                "projective_plane(1)", "projective_plane(9)"):
        with pytest.raises(ValueError):
            catalog(bad)
    for bad, message in [
        ("petersen(3)", "petersen takes 0 parameters, got 1"),
        ("cycle(3,4)", "cycle(n) takes 1 parameter, got 2"),
        ("complete_multipartite(3)", "complete_multipartite(m,b) takes 2 parameters, got 1"),
        ("complete", "complete(n) takes 1 parameter, got 0"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            catalog(bad)


def test_projective_plane_of_order_2_is_heawood(heawood):
    fano = catalog("projective_plane(2)")
    assert (fano.n, fano.m) == (14, 21)
    assert isomorphic(fano, heawood) is not None


def test_catalog_entries_lists_every_name():
    names = [n for n, _ in catalog_entries()]
    assert "petersen" in names and "tutte_8_cage" in names
    assert len(names) == len(set(names))
    for listing in names:
        # Every parameter set to 3 is valid for every family; the built name is canonical.
        name = re.sub(r"[a-z]+(?=[,)])", "3", listing)
        assert catalog(name).name == name


def test_all_catalog_fixtures_connected():
    for name in ("petersen", "heawood", "tutte_8_cage", "icosahedron", "k33"):
        assert is_connected(catalog(name))
