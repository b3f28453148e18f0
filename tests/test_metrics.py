import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from linesym.constructions import catalog, line_graph
from linesym.graphs import Graph, build_graph
from linesym.metrics import (
    LocalType,
    diameter,
    girth,
    icosahedral_form,
    is_connected,
    local_type,
    octahedral_form,
)
from oracles import diameter_oracle, floyd_warshall, girth_oracle, local_type_oracle

from conftest import (
    circulant,
    connected_atlas,
    cube_graph,
    random_connected_graph,
    relabelled,
    small_graphs,
    triangulated_torus,
)


def test_distance_rows_are_computed_once_per_source():
    g = catalog("petersen")
    row = g.distances(3)
    assert g.distances(3) is row
    assert sorted(row) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        g.distances(10)


def test_distance_examples(petersen):
    c6 = catalog("cycle(6)")
    assert c6.distances(0)[3] == 3
    for u in range(10):
        for v in range(10):
            if u != v and v not in petersen.adj[u]:
                assert petersen.distances(u)[v] == 2


def test_distance_absent_across_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert g.distances(0) == (0, 1, None, None)
    assert not is_connected(g)
    assert diameter(g) is None


def test_diameter_of_complete_graphs():
    for n in (2, 3, 4):
        assert diameter(catalog(f"complete({n})")) == 1


def test_line_graph_diameters(petersen, tutte):
    assert diameter(line_graph(petersen).graph) == 3
    assert diameter(line_graph(tutte).graph) == 4


def test_girth_examples(heawood, k3_parts_of_2):
    assert girth(k3_parts_of_2) == 3
    assert girth(heawood) == 6
    assert girth(catalog("path(4)")) is None


def test_girth_bounded_by_triangle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert girth(g) == 3


def test_girth_matches_the_oracle_on_the_whole_atlas():
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g()[1:]:
        g = build_graph(a.number_of_nodes(), a.edges())
        assert girth(g) == girth_oracle(g)


def test_girth_stops_at_the_first_triangle():
    """A triangle through vertex 0 is found on root 0's row, and no other
    distance row is built: no simple graph has a shorter cycle."""
    g = catalog("projective_plane(3)").line  # three edges at a vertex of the host meet pairwise
    assert girth(g) == 3
    assert [v for v, row in enumerate(g._distance_rows) if row is not None] == [0]


def test_metrics_agree_with_oracles_on_random_graphs():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 10), extra_p=rng.choice([0.1, 0.3, 0.6]))
        ref = floyd_warshall(g)
        for v in range(g.n):
            got = g.distances(v)
            for w in range(g.n):
                assert got[w] == ref[v][w]
        assert diameter(g) == diameter_oracle(g)
        assert girth(g) == girth_oracle(g)


def test_girth_on_disconnected_graph_still_finds_cycles():
    g = build_graph(6, [(0, 1), (2, 3), (3, 4), (4, 2)])
    assert girth(g) == 3


def test_triangle_inequality_holds():
    rng = random.Random(4)
    g = random_connected_graph(rng, 9)
    for u in range(g.n):
        du = g.distances(u)
        for v in range(g.n):
            dv = g.distances(v)
            for w in range(g.n):
                assert du[w] <= du[v] + dv[w]


# -- distance partitions ------------------------------------------------------


def level_sizes(g, u):
    """Number of vertices at each distance from u, nearest level first."""
    counts = Counter(g.distances(u))
    return [counts[d] for d in range(max(counts) + 1)]


def test_distance_partition_shapes(petersen):
    c6 = catalog("cycle(6)")
    assert level_sizes(c6, 0) == [1, 2, 2, 1]
    for u in range(10):
        assert level_sizes(petersen, u) == [1, 3, 6]


def test_line_petersen_partition(petersen):
    lp = line_graph(petersen).graph
    for u in range(lp.n):
        assert level_sizes(lp, u) == [1, 4, 8, 2]


def test_partition_cells_are_distance_levels(petersen):
    """Each distance level is the set of vertices the one before reaches
    first: neighbours of level d - 1 that no earlier level holds."""
    for g in (petersen, line_graph(petersen).graph, catalog("heawood")):
        for u in range(g.n):
            dist = g.distances(u)
            seen, level, d = {u}, {u}, 0
            while level:
                assert level == {v for v, x in enumerate(dist) if x == d}
                level = {w for v in level for w in g.adj[v]} - seen
                seen |= level
                d += 1
            assert len(seen) == g.n


# -- local types ---------------------------------------------------------------


def prism_plus_k4() -> Graph:
    """The triangular prism beside K4: 3-regular, two neighbourhood shapes."""
    return build_graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 4), (2, 5), (6, 7), (6, 8), (6, 9),
                            (7, 8), (7, 9), (8, 9)])


def test_local_type_icosahedron(icosahedron):
    assert local_type(icosahedron) == LocalType("cycle", (5,))


def test_local_type_k3_parts_of_2(k3_parts_of_2):
    assert local_type(k3_parts_of_2) == LocalType("cycle", (4,))


def test_local_type_line_petersen(petersen):
    lp = line_graph(petersen).graph
    assert local_type(lp) == LocalType("disjoint_cliques", (2, 2))


def test_local_type_complete_graphs():
    # K_{n+1} is locally K_n, reported as one clique of size n
    for n in (2, 3, 4):
        assert local_type(catalog(f"complete({n + 1})")) == LocalType("disjoint_cliques", (1, n))


def test_local_type_petersen(petersen):
    assert local_type(petersen) == LocalType("disjoint_cliques", (3, 1))


def test_local_type_mixed_graph_has_no_summary():
    # not regular
    assert local_type(build_graph(3, [(0, 1), (1, 2)])) is None
    # 3-regular, but the prism's neighbourhoods are an edge plus a vertex
    # while K4's are triangles: no shape is shared
    assert local_type(prism_plus_k4()) is None


def test_local_type_isolated_vertex_labeled_other():
    assert local_type(build_graph(2, [])) == LocalType("other", ())


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G x H, where (u, x) ~ (w, y) when u = w and x ~ y or x = y and u ~ w.

    No edge joins the two halves of a neighbourhood, so each one is the
    disjoint union of a neighbourhood of G and one of H.
    """
    edges = [(u * h.n + x, w * h.n + x) for u, w in g.edges for x in range(h.n)]
    edges += [(u * h.n + x, u * h.n + y) for u in range(g.n) for x, y in h.edges]
    return build_graph(g.n * h.n, edges)


def _as_pair(t):
    return None if t is None else (t.kind, t.params)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_local_type_matches_the_oracle_on_small_graphs(g):
    assert _as_pair(local_type(g)) == local_type_oracle(g)


def _local_type_families():
    """Hosts on which local_type gives each of its four outcomes."""
    icosahedron, octahedron = catalog("icosahedron"), catalog("complete_multipartite(3,2)")
    yield from (triangulated_torus(k) for k in range(4, 8))
    yield icosahedron
    yield octahedron
    for name in ("complete(4)", "k33", "petersen", "heawood", "tutte_8_cage"):
        yield catalog(name).line
    yield cube_graph().line
    for n in range(2, 8):
        yield catalog(f"complete({n})")
    yield catalog("complete_multipartite(4,2)")
    # locally two 4-cycles, and a 4-cycle beside a 5-cycle: 2-regular, not connected
    yield cartesian_product(octahedron, octahedron)
    yield cartesian_product(icosahedron, octahedron)
    for n in range(3, 17):
        for r in (1, 2, 3):
            for jumps in itertools.combinations(range(1, n // 2 + 1), r):
                yield circulant(n, jumps)
    yield prism_plus_k4()


def test_local_type_matches_the_oracle_on_every_outcome():
    kinds = Counter()
    for g in _local_type_families():
        got = local_type(g)
        assert _as_pair(got) == local_type_oracle(g), g
        kinds[got and got.kind] += 1
    assert set(kinds) == {"cycle", "disjoint_cliques", "other", None}, kinds


def test_local_type_builds_no_graph(monkeypatch, icosahedron, petersen):
    hosts = [icosahedron, line_graph(petersen).graph, triangulated_torus(6)]

    def refuse(self):
        raise RuntimeError("local_type built a Graph")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    assert [local_type(g) for g in hosts] == [
        LocalType("cycle", (5,)),
        LocalType("disjoint_cliques", (2, 2)),
        LocalType("cycle", (6,)),
    ]


def test_the_octahedral_and_icosahedral_forms_match_networkx():
    """octahedral_form and icosahedral_form, read off degrees and
    neighbourhoods, agree with networkx's isomorphism test against the
    catalog's K_{3[2]} and icosahedron, on every connected atlas graph, the
    catalog, triangulated tori, relabelled copies of both targets and two
    copies of each side by side."""
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    octahedron, icosahedron = catalog("complete_multipartite(3,2)"), catalog("icosahedron")
    names = [*(f"complete({n})" for n in range(1, 9)), *(f"cycle({n})" for n in range(3, 13)),
             *(f"complete_multipartite({m},{b})" for m in range(2, 5) for b in range(1, 4)),
             "path(3)", "petersen", "heawood", "tutte_8_cage", "icosahedron", "k33",
             "projective_plane(2)", "projective_plane(3)"]
    hosts = [*connected_atlas(), *map(catalog, names), *(triangulated_torus(k) for k in range(4, 9)),
             *(relabelled(g, seed) for g in (octahedron, icosahedron) for seed in range(1, 6)),
             *(build_graph(2 * g.n, [*g.edges, *((u + g.n, v + g.n) for u, v in g.edges)])
               for g in (octahedron, icosahedron))]  # locally cyclic, not connected
    cyclic = 0
    for g in hosts:
        summary = local_type(g)
        cyclic += is_connected(g) and summary is not None and summary.kind == "cycle"
        assert octahedral_form(g) == nx.is_isomorphic(to_nx(g), to_nx(octahedron)), g.adj
        assert icosahedral_form(g) == nx.is_isomorphic(to_nx(g), to_nx(icosahedron)), g.adj
    # The atlas's octahedron, the catalog's two targets, five tori and ten copies.
    assert cyclic == 18
