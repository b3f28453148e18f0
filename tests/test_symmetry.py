import collections
import functools
import inspect
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linesym.symmetry
import linesym.walks
from linesym.constructions import catalog, line_graph
from linesym.graphs import build_graph, isomorphic
from linesym.metrics import diameter
from linesym.refinement import _child, _state, refine
from linesym.symmetry import (
    AutGroup,
    Permutation,
    _chain_order,
    _stabilizer_chain,
    automorphisms,
    induced_edge_action,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitive_on,
    transitive_on_level,
)
from linesym.walks import EnumerationCapExceeded, enumerate_arcs, enumerate_geodesics
from oracles import (
    automorphism_count_backtrack,
    automorphism_count_filter,
    equitable_cells,
    individualize,
    orbit_partition,
)

from conftest import projective_plane, random_connected_graph


# -- permutations ---------------------------------------------------------------


def test_permutation_algebra():
    p = Permutation.from_one_line("1 2 0")
    q = Permutation.from_one_line("0 2 1")
    assert (p * q).images == tuple(q.images[i] for i in p.images)
    assert p * p.inverse() == Permutation.identity(3)
    assert p.inverse() * p == Permutation.identity(3)
    assert p(0) == 1
    assert p.apply((0, 1)) == (1, 2)
    assert Permutation.identity(3).is_identity()


def test_degree_one_permutations_and_short_tuples():
    # a one-index itemgetter returns a scalar; these stay tuples
    e = Permutation.identity(1)
    assert (e * e).images == (0,)
    assert e.inverse().images == (0,)
    assert e.apply(()) == ()
    assert e.apply((0,)) == (0,)
    p = Permutation((2, 0, 1))
    assert p.apply(()) == ()
    assert p.apply((1,)) == (0,)
    assert p.apply([0, 2]) == (2, 1)


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
    # long cycles stress refinement, large complete graphs a long base
    "cycle(800)": 1600,
    "cycle(1200)": 2400,
    "complete(40)": math.factorial(40),
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
        assert automorphisms(g).order == g.search[3] == automorphism_count_filter(g)


def test_order_matches_backtracking_oracle_on_catalog():
    for name in ("petersen", "k33", "icosahedron", "cycle(6)", "path(4)"):
        g = catalog(name)
        assert automorphisms(g).order == automorphism_count_backtrack(g)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


def test_order_matches_networkx_and_the_schreier_sims_chain():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def check(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        vf2 = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        grp = automorphisms(g)
        assert grp.order == vf2
        _, trans, _ = _stabilizer_chain([p.images for p in grp.generators], g.n)
        assert _chain_order(trans) == vf2

    check()


def test_from_permutations_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perm_lists = st.integers(1, 9).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))

    @settings(max_examples=200, deadline=None)
    @given(perm_lists)
    def check(perms):
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(p) for p in perms]).order()
        grp = AutGroup.from_permutations(len(perms[0]), [Permutation(tuple(p)) for p in perms])
        assert grp.order == expected

    check()


@st.composite
def permutation_lists(draw, max_n=40):
    """(degree, generators): products of up to three transpositions, shuffles
    of at most 10 points, identities and repeats of an earlier generator, so
    many of the groups are intransitive with several chain levels.  Shuffles
    of all n points are left out: two of degree 40 usually generate S_40 or
    A_40, whose order sympy takes seconds to find."""
    n = draw(st.integers(1, max_n))
    points = st.integers(0, n - 1)
    perms = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("transpositions", "shuffle") * 2 + ("identity", "repeat")))
        p = list(range(n))
        if kind == "transpositions":
            for a, b in draw(st.lists(st.tuples(points, points), min_size=1, max_size=3)):
                p[a], p[b] = p[b], p[a]
        elif kind == "shuffle":
            moved = draw(st.lists(points, unique=True, min_size=min(n, 2), max_size=10))
            for a, b in zip(moved, draw(st.permutations(moved))):
                p[a] = b
        elif kind == "repeat" and perms:
            p = list(draw(st.sampled_from(perms)))
        perms.append(tuple(p))
    return n, perms


def test_from_permutations_order_matches_sympy_up_to_degree_40():
    combinatorics = pytest.importorskip("sympy.combinatorics")

    @settings(max_examples=300, deadline=None)
    @given(permutation_lists())
    def check(case):
        n, perms = case
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p)) for p in perms]).order()
        grp = AutGroup.from_permutations(n, [Permutation(p) for p in perms])
        assert grp.order == expected
        _assert_levels_carry_keys_to_their_base_points(grp)

    check()


def test_prefixed_chain_matches_sympy_with_and_without_the_order_stop():
    combinatorics = pytest.importorskip("sympy.combinatorics")

    @settings(max_examples=200, deadline=None)
    @given(permutation_lists(max_n=20), st.data())
    def check(case, data):
        n, perms = case
        prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)))
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])
        order = group.order()
        stabilizer = group.pointwise_stabilizer(list(prefix)).order() if prefix else order
        for stop in (None, order, 2 * order):  # a stop above the order never fires
            base, trans, _ = _stabilizer_chain(perms, n, prefix, stop)
            assert tuple(base[:len(prefix)]) == prefix
            assert len(trans) == len(base) and _chain_order(trans) == order
            assert _chain_order(trans[len(prefix):]) == stabilizer

    check()


def test_from_permutations_checks_the_degree_of_identities_too():
    with pytest.raises(ValueError, match="degree mismatch"):
        AutGroup.from_permutations(10, [Permutation.identity(9)])
    with pytest.raises(ValueError, match="degree mismatch"):
        AutGroup.from_permutations(10, [Permutation.identity(10), Permutation((1, 0, 2))])
    assert AutGroup.from_permutations(10, [Permutation.identity(10)]).order == 1


def cells_of(colors) -> set[frozenset[int]]:
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(c) for c in cells.values()}


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=12), st.data())
def test_refine_is_the_coarsest_equitable_partition_and_invariant(g, data):
    colors = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    refined = refine(g.adj, colors)
    assert cells_of(refined) == equitable_cells(g.adj, colors)
    # colors are cell start indices in the cell order
    assert all(sum(1 for d in refined if d < c) == c for c in refined)
    # relabelling the graph relabels the colors and nothing else
    perm = data.draw(st.permutations(range(g.n)))
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    moved = [0] * g.n
    for v in range(g.n):
        moved[perm[v]] = colors[v]
    again = refine(h.adj, moved)
    assert all(again[perm[v]] == refined[v] for v in range(g.n))
    if g.n > 1:
        v = data.draw(st.integers(0, g.n - 1))
        split = individualize(refined, v)
        assert split[v] == refined[v]
        assert all(split[w] == refined[w] + (refined[w] == refined[v]) for w in range(g.n) if w != v)
        # seeding with the new singleton alone may order cells differently
        seeded = refine(g.adj, split, split[v])
        full = refine(g.adj, split)
        assert cells_of(seeded) == cells_of(full) == equitable_cells(g.adj, split)


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=12), st.data())
def test_a_child_refines_in_place_exactly_as_refine_does(g, data):
    colors = refine(g.adj, data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
    state = _state(colors)
    # Down one path to a leaf, so later children start from a state whose
    # cells are no longer in vertex order.
    while len(set(colors)) < g.n:
        v = data.draw(st.sampled_from([v for v in range(g.n) if colors.count(colors[v]) > 1]))
        before = [a.copy() for a in state]
        child = _child(g.adj, state, v)
        assert list(state) == before  # the parent keeps its own state
        state = child
        split = individualize(colors, v)
        elems, pos, color, size = state
        assert color == refine(g.adj, split, split[v])
        assert sorted(elems) == list(range(g.n))
        assert all(elems[pos[w]] == w for w in range(g.n))
        c = 0
        while c < g.n:  # each start heads a run of its own color, and the runs tile elems
            assert all(color[w] == c for w in elems[c:c + size[c]])
            c += size[c]
        assert sum(size.values()) == g.n
        colors = color
    assert state[0] == sorted(range(g.n), key=colors.__getitem__)  # a leaf's cell order


def test_projective_planes_have_their_closed_form_orders():
    # |Aut| of the incidence graph of PG(2, p) is 2 |PGL(3, p)|: collineations
    # and a polarity swapping points with lines.  Refinement alone stalls here.
    for p, order in ((3, 11232), (5, 744000)):
        g = projective_plane(p)
        assert all(len(row) == p + 1 for row in g.adj)
        automorphisms.cache_clear()
        assert automorphisms(g).order == order == 2 * p**3 * (p**3 - 1) * (p**2 - 1)


def test_search_depth_is_not_limited_by_the_recursion_limit():
    g = catalog("complete(50)")
    perm = list(range(50))
    random.Random(3).shuffle(perm)
    h = build_graph(50, [(perm[u], perm[v]) for u, v in g.edges])
    automorphisms.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        assert automorphisms(g).order == math.factorial(50)
        assert isomorphic(g, h) is not None
    finally:
        sys.setrecursionlimit(limit)


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


def _hypercube(d):
    return build_graph(1 << d, [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d)
                                if v < v ^ (1 << b)], name=f"Q{d}")


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], name=g.name)


@pytest.mark.parametrize("host", ["petersen", "heawood", "tutte_8_cage", "Q4", "Q5"])
def test_induced_line_groups_have_the_host_order(host):
    """Aut(G) acts faithfully on the edges of a connected G other than K2 and
    K3, so the induced group on L(G) has |Aut(G)| elements; its chain levels
    are automorphisms of L(G) carrying each key to the level's base point."""
    if host.startswith("Q"):
        d = int(host[1:])
        g, order = _hypercube(d), 2**d * math.factorial(d)
    else:
        g, order = catalog(host), KNOWN_ORDERS[host]
    g = _relabelled(g, random.Random(host))
    lg = line_graph(g)
    images = [induced_edge_action(lg.index, p) for p in automorphisms(g).generators]
    group = AutGroup.from_permutations(lg.graph.n, images)
    assert group.order == automorphisms(g).order == order
    _assert_levels_carry_keys_to_their_base_points(group, set(lg.graph.edges))


def test_each_schreier_generator_is_sifted_at_most_once(monkeypatch):
    """Counted on the induced group of a relabelled Q6.  Each input generator
    is sifted once, from level 0.  A non-identity residue of a sift from level
    lo that stops at level j joins the generators S_lo..S_j, so the S_i are
    read off the sifts.  Each pair (t, s) of a level's orbit point and
    generator is then sifted exactly once when its Schreier generator is not
    the identity, and never otherwise; the |O_i| - 1 tree edges of level i
    give the identity, so the sifts number at most
    len(inputs) + sum_i (|O_i| |S_i| - (|O_i| - 1))."""
    g = _relabelled(_hypercube(6), random.Random(6))
    lg = line_graph(g)
    inputs = [induced_edge_action(lg.index, p).images for p in automorphisms(g).generators]
    identity = tuple(range(lg.graph.n))
    starts = []
    level_gens = collections.defaultdict(list)
    real = linesym.symmetry._sift

    def counted(p, base, trans, start):
        residue, j = real(p, base, trans, start)
        starts.append(start)
        if residue != identity:
            for m in range(start, j + 1):
                level_gens[m].append(residue)
        return residue, j

    monkeypatch.setattr(linesym.symmetry, "_sift", counted)
    _, trans, _ = _stabilizer_chain(inputs, lg.graph.n)
    assert _chain_order(trans) == 2**6 * math.factorial(6)
    assert starts.count(0) == len(inputs)
    nontrivial = sum(
        (Permutation(level[t]).inverse() * Permutation(s) * Permutation(level[s[t]])).images
        != identity for i, level in enumerate(trans) for t in level for s in level_gens[i])
    assert len(starts) == len(inputs) + nontrivial
    assert len(starts) <= len(inputs) + sum(len(level) * len(level_gens[i]) - (len(level) - 1)
                                            for i, level in enumerate(trans))


# -- orbits and transitivity ---------------------------------------------------------


def test_orbit_sizes_divide_group_order(petersen, k3_parts_of_2):
    for g in (petersen, k3_parts_of_2, line_graph(petersen).graph):
        grp = automorphisms(g)
        for s in (1, 2, 3):
            sizes = transitive_on(enumerate_arcs(g, s), grp)[1].sizes()
            assert all(grp.order % size == 0 for size in sizes)


def test_transitive_on_split_cases(k3_parts_of_2):
    grp = automorphisms(k3_parts_of_2)
    ok, part = transitive_on(enumerate_arcs(k3_parts_of_2, 2), grp)
    assert not ok
    assert part.orbit_count >= 2
    ok, part = transitive_on(enumerate_geodesics(k3_parts_of_2, 2), grp)
    assert ok
    assert part.orbit_count == 1


def test_transitive_on_stops_at_the_enumeration_cap(monkeypatch, petersen):
    """A universe far from closed under the group cannot drive the orbit
    search past the cap: under Sym(8) the fibre orbit of (0, ..., 7) holds
    7! = 5040 tuples.  A closed universe never trips it."""
    group = automorphisms(catalog("complete(8)"))
    universe = [tuple(range(8))]
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", 5039)
    with pytest.raises(EnumerationCapExceeded, match="more than 5039 tuples"):
        transitive_on(universe, group)
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", 5040)
    assert transitive_on(universe, group)[0]
    arcs = enumerate_arcs(petersen, 3)
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", len(arcs))
    assert transitive_on(arcs, automorphisms(petersen))[0]


def test_transitive_on_empty_is_vacuous(petersen):
    ok, part = transitive_on([], automorphisms(petersen))
    assert ok
    assert part.orbit_count == 0


def test_transitive_on_gives_every_copy_of_a_repeated_tuple_its_orbit(petersen):
    ok, part = transitive_on([(0, 1), (2, 3), (0, 1)], automorphisms(petersen))
    assert part.orbit_ids[0] == part.orbit_ids[2] == 0
    assert sum(part.sizes()) == 3
    assert ok == (part.orbit_count == 1)


def _group_under_test(g, data):
    """(group, graph it acts on): the full group, a subgroup of it, a group of
    random permutations, the induced group on the line graph, or the trivial
    group."""
    full = automorphisms(g)
    kind = data.draw(st.sampled_from(["full", "subgroup", "permutations", "induced", "trivial"]))
    if kind == "subgroup" and full.generators:
        words = data.draw(st.lists(st.lists(st.sampled_from(full.generators), min_size=1,
                                            max_size=3), max_size=3))
        products = [functools.reduce(operator.mul, w) for w in words]
        return AutGroup.from_permutations(g.n, products), g
    if kind == "permutations":
        perms = data.draw(st.lists(st.permutations(range(g.n)), max_size=2))
        return AutGroup.from_permutations(g.n, [Permutation(tuple(p)) for p in perms]), g
    if kind == "induced" and g.edges:
        lg = line_graph(g)
        images = [induced_edge_action(lg.index, p) for p in full.generators]
        return AutGroup.from_permutations(lg.graph.n, images), lg.graph
    if kind == "trivial":
        return AutGroup.from_permutations(g.n, ()), g
    return full, g


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7), st.data())
def test_transitive_on_matches_the_union_find_oracle(g, data):
    group, h = _group_under_test(g, data)
    vertex = st.integers(0, h.n - 1)
    pool = [(v,) for v in range(h.n)] + enumerate_arcs(h, 1) + enumerate_arcs(h, 2)
    pool += data.draw(st.lists(st.lists(vertex, min_size=1, max_size=3).map(tuple), max_size=8))
    # the whole pool, or any selection of it: repeats, gaps and mixed lengths
    universe = data.draw(st.one_of(st.just(pool), st.lists(st.sampled_from(pool), max_size=30)))
    ok, part = transitive_on(universe, group)
    expected = orbit_partition(universe, [p.images for p in group.generators])
    assert part.orbit_ids == expected
    assert part.orbit_count == len(set(expected))
    assert ok == (part.orbit_count <= 1)
    firsts = [i for k, i in enumerate(part.orbit_ids) if i not in part.orbit_ids[:k]]
    assert firsts == list(range(part.orbit_count))


def _elements(group):
    """Every element of the group, by closing the identity under the generators."""
    seen = {tuple(range(group.degree))}
    queue = list(seen)
    for p in queue:
        for g in group.generators:
            q = tuple(g.images[v] for v in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _assert_levels_carry_keys_to_their_base_points(group, edges=None):
    """Each level maps its base point to the identity and every key t to an
    element w with w[t] equal to the base point; with edges given, every w
    must also preserve them."""
    identity = tuple(range(group.degree))
    for level in group._transversals:
        point = next(iter(level))
        assert level[point] == identity
        for t, w in level.items():
            assert w[t] == point
            if edges is not None:
                assert {tuple(sorted((w[a], w[b]))) for a, b in edges} == edges


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_transversal_entries_are_automorphisms_carrying_their_keys_to_the_base_point(g):
    """On chains read off the search: every entry is an automorphism of g."""
    _assert_levels_carry_keys_to_their_base_points(automorphisms(g), set(g.edges))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7), st.data())
def test_transversal_entries_are_group_elements_carrying_their_keys_to_the_base_point(g, data):
    """On chains built by Schreier-Sims (subgroups, induced line-graph groups,
    random permutations) as well as read off the search: every entry lies in
    the group, and is an automorphism of the graph acted on whenever every
    generator is one."""
    group, h = _group_under_test(g, data)
    elements = _elements(group)
    assert len(elements) == group.order
    edges = set(h.edges)
    gens_preserve = all({tuple(sorted((p(a), p(b)))) for a, b in edges} == edges
                        for p in group.generators)
    _assert_levels_carry_keys_to_their_base_points(group, edges if gens_preserve else None)
    assert all(w in elements for level in group._transversals for w in level.values())


def test_transitive_on_inverts_nothing(monkeypatch, petersen, k3_parts_of_2):
    """Tuples starting in the first base point's orbit reach the fibre by
    composition alone, on full, induced and subgroup groups."""
    cases = []
    for g in (petersen, k3_parts_of_2):
        full = automorphisms(g)
        lg = line_graph(g)
        induced = AutGroup.from_permutations(
            lg.graph.n, [induced_edge_action(lg.index, p) for p in full.generators])
        sub = AutGroup.from_permutations(g.n, [full.generators[0] * full.generators[-1]])
        for group, h in ((full, g), (induced, lg.graph), (sub, g)):
            for universe in (enumerate_arcs(h, 2), enumerate_geodesics(h, 2)):
                cases.append((universe, group))

    def refuse(p):
        raise AssertionError("transitive_on inverted a permutation")

    monkeypatch.setattr(linesym.symmetry, "_invert", refuse)
    for universe, group in cases:
        _, part = transitive_on(universe, group)
        assert part.orbit_ids == orbit_partition(universe, [p.images for p in group.generators])


def test_arc_transitivity_facts(petersen):
    assert is_s_arc_transitive(petersen, 1)
    assert is_s_arc_transitive(petersen, 2)
    assert is_s_arc_transitive(petersen, 3)
    assert not is_s_arc_transitive(petersen, 4)


def test_transitivity_fails_on_counts_before_enumerating(petersen, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a transitivity predicate enumerated a level")

    linesym.symmetry.transitive_on_level.cache_clear()
    monkeypatch.setattr(linesym.walks, "_enumerate", unreachable)
    # petersen has 240 4-arcs for a group of order 120: |G : G_r| is too small
    assert not is_s_arc_transitive(petersen, 4)
    trivial = AutGroup.from_permutations(10, ())
    assert not is_s_geodesic_transitive(petersen, 2, trivial)


def test_predicates_reject_a_group_of_another_degree(petersen):
    c5 = AutGroup.from_permutations(5, [Permutation((1, 2, 3, 4, 0))])
    with pytest.raises(ValueError, match="degree"):
        is_s_arc_transitive(petersen, 1, c5)
    with pytest.raises(ValueError, match="degree"):
        is_s_geodesic_transitive(petersen, 1, c5)


def test_predicates_reject_a_group_that_breaks_edges(petersen):
    s10 = AutGroup.from_permutations(10, [Permutation.from_one_line("1 2 3 4 5 6 7 8 9 0"),
                                          Permutation.from_one_line("1 0 2 3 4 5 6 7 8 9")])
    assert s10.order == math.factorial(10)
    with pytest.raises(ValueError, match="breaks edge"):
        is_s_arc_transitive(petersen, 3, s10)
    with pytest.raises(ValueError, match="breaks edge"):
        is_s_geodesic_transitive(petersen, 2, s10)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_level_predicate_matches_the_orbits_of_the_enumerated_level(rng):
    g = random_connected_graph(rng, rng.randint(2, 9), extra_p=rng.choice([0.2, 0.4]))
    full = automorphisms(g)
    line = line_graph(g)
    cases = [
        (g, full),
        (g, AutGroup.from_permutations(g.n, [p for p in full.generators if rng.random() < 0.5])),
        (line.graph, AutGroup.from_permutations(
            line.graph.n, [induced_edge_action(line.index, p) for p in full.generators])),
    ]
    for h, group in cases:
        for t in range(1, 5):
            expected = transitive_on(enumerate_arcs(h, t), group)[0]
            assert transitive_on_level(h, "arcs", t, group) == expected
        for t in range(1, diameter(h) + 1):
            expected = transitive_on(enumerate_geodesics(h, t), group)[0]
            assert transitive_on_level(h, "geodesics", t, group) == expected


def test_arc_transitivity_with_subgroup(petersen):
    trivial = AutGroup.from_permutations(10, (Permutation.identity(10),))
    assert not is_s_arc_transitive(petersen, 1, trivial)


def test_geodesic_transitivity_facts(icosahedron, petersen):
    assert is_s_geodesic_transitive(icosahedron, 2)
    lp = line_graph(petersen).graph
    assert is_s_geodesic_transitive(lp, 3)
    with pytest.raises(ValueError):
        is_s_geodesic_transitive(petersen, 3)  # beyond the diameter


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
