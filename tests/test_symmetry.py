import random

import pytest

from linesym.constructions import catalog, line_graph
from linesym.graphs import build_graph
from linesym.symmetry import (
    AutGroup,
    Permutation,
    automorphisms,
    induced_edge_action,
    is_distance_transitive,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    orbit_of,
    transitive_on,
)
from linesym.walks import enumerate_arcs, enumerate_geodesics
from oracles import automorphism_count_backtrack, automorphism_count_filter

from conftest import random_connected_graph


# -- permutations ---------------------------------------------------------------


def test_permutation_algebra():
    p = Permutation.from_one_line("1 2 0")
    q = Permutation.from_one_line("0 2 1")
    assert (p * q).images == tuple(q.images[i] for i in p.images)
    assert p * p.inverse() == Permutation.identity(3)
    assert p.inverse() * p == Permutation.identity(3)
    assert p(0) == 1
    assert p.apply((0, 1)) == (1, 2)
    assert Permutation.identity(3).is_identity


def test_composition_order_is_left_then_right():
    # p sends 0->1; q sends 1->2: applying p then q sends 0->2
    p = Permutation((1, 0, 2))
    q = Permutation((0, 2, 1))
    assert (p * q)(0) == 2


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))
    with pytest.raises(ValueError):
        Permutation.from_one_line("")


def test_one_line_round_trip():
    rng = random.Random(2)
    for _ in range(20):
        images = list(range(rng.randint(1, 9)))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert Permutation.from_one_line(p.one_line()) == p


# -- automorphism groups ----------------------------------------------------------


KNOWN_ORDERS = {
    "petersen": 120,
    "heawood": 336,
    "tutte_8_cage": 1440,
    "icosahedron": 120,
    "k33": 72,
    "complete(4)": 24,
    "complete_multipartite(3,2)": 48,
    "cycle(6)": 12,
    "path(4)": 2,
    "complete(7)": 5040,
}


@pytest.mark.parametrize("name, order", sorted(KNOWN_ORDERS.items()))
def test_known_group_orders(name, order):
    assert automorphisms(catalog(name)).order == order


def test_generators_preserve_edges(petersen, icosahedron):
    for g in (petersen, icosahedron):
        edges = {frozenset(e) for e in g.edges}
        for p in automorphisms(g).generators:
            assert {frozenset((p(u), p(v))) for u, v in edges} == edges


def test_order_matches_filter_oracle_on_small_random_graphs():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), extra_p=rng.choice([0.2, 0.5]))
        assert automorphisms(g).order == automorphism_count_filter(g)


def test_order_matches_backtracking_oracle_on_catalog():
    for name in ("petersen", "k33", "icosahedron", "cycle(6)", "path(4)"):
        g = catalog(name)
        assert automorphisms(g).order == automorphism_count_backtrack(g)


def test_random_element_is_uniform_over_the_chain():
    g = catalog("cycle(5)")
    grp = automorphisms(g)
    rng = random.Random(7)
    edges = set(g.edges)
    seen = set()
    for _ in range(200):
        p = grp.random_element(rng)
        assert {tuple(sorted((p(u), p(v)))) for u, v in g.edges} == edges
        seen.add(p)
    assert len(seen) == grp.order == 10


def test_from_generators_validates():
    g = catalog("cycle(4)")
    rot = Permutation((1, 2, 3, 0))
    grp = AutGroup.from_generators(g, (rot,))
    assert grp.order == 4
    with pytest.raises(ValueError):
        AutGroup.from_generators(g, (Permutation((1, 0, 2, 3)),))  # breaks an edge
    with pytest.raises(ValueError):
        AutGroup.from_generators(g, (Permutation((0, 1, 2)),))  # wrong degree


def test_trivial_group():
    # an asymmetric tree: orders computed on a rigid graph
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    grp = automorphisms(g)
    assert grp.order == automorphism_count_filter(g)


# -- induced action ----------------------------------------------------------------


def test_induced_action_identity(petersen):
    idx = line_graph(petersen).index
    ind = induced_edge_action(idx, Permutation.identity(10))
    assert ind.is_identity


def test_induced_action_is_line_automorphism(petersen):
    lg = line_graph(petersen)
    ledges = {frozenset(e) for e in lg.graph.edges}
    for p in automorphisms(petersen).generators:
        q = induced_edge_action(lg.index, p)
        assert {frozenset((q(a), q(b))) for a, b in ledges} == ledges


def test_induced_action_maps_ranks_correctly(k33):
    idx = line_graph(k33).index
    for p in automorphisms(k33).generators:
        q = induced_edge_action(idx, p)
        for i, (u, v) in enumerate(idx.edges):
            assert q(i) == idx.rank_of(p(u), p(v))


def test_induced_action_rejects_non_automorphism():
    p4 = catalog("path(4)")
    idx = line_graph(p4).index
    # a permutation of the vertices that is not an automorphism
    with pytest.raises(ValueError):
        induced_edge_action(idx, Permutation((1, 0, 2, 3, 4)))


def test_induced_group_order_matches_host_for_k4(k4):
    """Aut(K4) embeds in Aut(L(K4)) with index 2: 24 against 48."""
    lg = line_graph(k4)
    host = automorphisms(k4)
    induced = tuple(induced_edge_action(lg.index, p) for p in host.generators)
    induced_group = AutGroup.from_permutations(lg.graph.n, induced)
    assert host.order == 24
    assert induced_group.order == 24
    assert automorphisms(lg.graph).order == 48


# -- orbits and transitivity ---------------------------------------------------------


def test_orbit_sizes_divide_group_order(petersen):
    grp = automorphisms(petersen)
    arcs = enumerate_arcs(petersen, 2)
    orb = orbit_of(arcs[0], grp)
    assert grp.order % len(orb) == 0
    assert orb <= set(arcs)


def test_transitive_on_split_cases(k3_parts_of_2):
    grp = automorphisms(k3_parts_of_2)
    ok, part = transitive_on(enumerate_arcs(k3_parts_of_2, 2), grp)
    assert not ok
    assert part.orbit_count >= 2
    ok, part = transitive_on(enumerate_geodesics(k3_parts_of_2, 2), grp)
    assert ok
    assert part.orbit_count == 1


def test_transitive_on_empty_is_vacuous(petersen):
    ok, part = transitive_on([], automorphisms(petersen))
    assert ok
    assert part.orbit_count == 0


def test_arc_transitivity_facts(petersen):
    assert is_s_arc_transitive(petersen, 1)
    assert is_s_arc_transitive(petersen, 2)
    assert is_s_arc_transitive(petersen, 3)
    assert not is_s_arc_transitive(petersen, 4)


def test_arc_transitivity_with_subgroup(petersen):
    trivial = AutGroup.from_permutations(10, (Permutation.identity(10),))
    assert not is_s_arc_transitive(petersen, 1, trivial)


def test_geodesic_transitivity_facts(icosahedron, petersen):
    assert is_s_geodesic_transitive(icosahedron, 2)
    lp = line_graph(petersen).graph
    assert is_s_geodesic_transitive(lp, 3)
    with pytest.raises(ValueError):
        is_s_geodesic_transitive(petersen, 3)  # beyond the diameter


def test_distance_transitive_facts(k33):
    h23 = line_graph(k33).graph
    assert is_distance_transitive(h23)
    assert is_distance_transitive(catalog("cycle(6)"))
    assert not is_distance_transitive(catalog("path(3)"))


def test_cumulative_vs_single_level():
    """A graph can act transitively on 2-arcs without being 2-arc transitive
    in the cumulative sense only if some lower level already fails; cross-check
    the two readings agree on the vertex-transitive catalog cases."""
    for name in ("petersen", "k33", "cycle(6)"):
        g = catalog(name)
        grp = automorphisms(g)
        for s in (1, 2):
            cumulative = is_s_arc_transitive(g, s, grp)
            single = transitive_on(enumerate_arcs(g, s), grp)[0]
            assert cumulative == single
