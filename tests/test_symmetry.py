import collections
import functools
import inspect
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linesym.refinement
import linesym.symmetry
import linesym.walks
from linesym.constructions import EdgeIndex, catalog, line_graph
from linesym.graphs import build_graph, is_complete, isomorphic
from linesym.metrics import diameter
from linesym.reduction import reduced_generators
from linesym.refinement import _child, _refine, _state, refine
from linesym.symmetry import (
    AutGroup,
    Permutation,
    _automorphisms_of,
    _chain_order,
    _coset,
    _edge_group,
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
    batch_base,
    equitable_cells,
    individualize,
    orbit_partition,
    tree_automorphism_count,
)

from conftest import (
    cfi_graph,
    connected_atlas,
    cube_graph,
    kneser_graph,
    random_connected_graph,
    relabelled,
    small_graphs,
)


# -- permutations ---------------------------------------------------------------


def test_permutation_algebra():
    p = Permutation.from_one_line("1 2 0")
    assert p(0) == 1
    assert p.apply((0, 1)) == (1, 2)


def test_degree_one_permutations_and_short_tuples():
    # a one-index itemgetter returns a scalar; these stay tuples
    e = Permutation((0,))
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
    assert q.apply(p.images)[0] == 2


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


def _star(n: int):
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])


def _binary_tree(depth: int):
    n = 2 ** (depth + 1) - 1
    return build_graph(n, [((i - 1) // 2, i) for i in range(1, n)])


# Generators here move few points and are found by candidates deep off the
# first path; the search before candidates took seconds on each.
CLOSED_FORM_ORDERS = {
    "K_{1,300}": (lambda: _star(300), math.factorial(300)),
    # K_{m[b]}: (b!)^m m!, searched on its complement, m disjoint cliques K_b
    "K_{10[30]}": (lambda: catalog("complete_multipartite(10,30)"),
                   math.factorial(30) ** 10 * math.factorial(10)),
    # the complete binary tree of depth d: 2^(2^d - 1), one swap per inner vertex
    "binary tree of depth 8": (lambda: _binary_tree(8), 2 ** (2**8 - 1)),
}


@pytest.mark.parametrize("name", CLOSED_FORM_ORDERS)
def test_sparse_symmetry_has_its_closed_form_order(name):
    build, order = CLOSED_FORM_ORDERS[name]
    assert automorphisms(build()).order == order


@pytest.mark.parametrize("build, order", [
    (lambda: _star(1000), math.factorial(1000)),  # the search's
    (lambda: catalog("projective_plane(11)").line, 424855200),  # Whitney's, from PG(2,11)
    (lambda: kneser_graph(12, 2), math.factorial(12)),  # the complement's root, K12
    (lambda: catalog("complete(400)"), math.factorial(400)),  # the complement's search
], ids=["K_{1,1000}", "L(PG(2,11))", "K(12,2)", "complete(400)"])
def test_a_proven_order_builds_no_chain(monkeypatch, build, order):
    """The search, Whitney's theorem and the complement each prove the order,
    so reading it builds no stabilizer chain.  A work count does not vary
    between machines, so this guard cannot flake."""
    g = build()
    automorphisms.cache_clear()

    def refuse(*args):
        raise AssertionError("a proven order built a stabilizer chain")

    monkeypatch.setattr(linesym.symmetry, "_stabilizer_chain", refuse)
    assert automorphisms(g).order == order


@pytest.mark.parametrize("build, s, orbits", [
    (lambda: _star(300), 1, 2),
    (lambda: catalog("petersen"), 2, 1),
], ids=["K_{1,300}", "petersen"])
def test_orbits_under_a_search_group_build_no_chain(monkeypatch, build, s, orbits):
    """The search's generators are strong on its base, so `transitive_on`
    reads the first level straight off them: the first base point they move,
    its orbit, and the generators fixing it.  A work count does not vary
    between machines, so this guard cannot flake."""
    g = build()
    automorphisms.cache_clear()
    group, arcs = automorphisms(g), enumerate_arcs(g, s)

    def refuse(*args):
        raise AssertionError("an orbit search under a search group built a stabilizer chain")

    monkeypatch.setattr(linesym.symmetry, "_stabilizer_chain", refuse)
    _, part = transitive_on(arcs, group)
    assert part.orbit_count == orbits
    assert part.orbit_ids == orbit_partition(arcs, [p.images for p in group.generators])


@pytest.mark.parametrize("build, kind, t, transitive", [
    (lambda: _star(60), "arcs", 1, False),
    (lambda: catalog("complete(30)"), "arcs", 2, True),
    (lambda: catalog("complete_multipartite(4,5)"), "geodesics", 2, True),
], ids=["K_{1,60}", "complete(30)", "K_{4[5]}"])
def test_level_decisions_under_a_search_group_compose_nothing(monkeypatch, build, kind, t,
                                                              transitive):
    """A level chain is based at the level's first tuple, then at the search's
    base, on which its generators are strong: the orbits reach the order with
    no Schreier phase, so nothing is composed.  Based at the tuple alone, the
    chains composed 178,895, 14,463 and 1,049 times here.  A work count does
    not vary between machines, so this guard cannot flake."""
    g = build()
    automorphisms.cache_clear()
    transitive_on_level.cache_clear()
    group, compose, calls = automorphisms(g), linesym.symmetry._compose, []
    group.order
    monkeypatch.setattr(linesym.symmetry, "_compose",
                        lambda p, q: calls.append(1) or compose(p, q))
    assert transitive_on_level(g, kind, t, group) == transitive
    assert not calls


def test_the_first_path_merges_each_generator_once(monkeypatch):
    """The first path shares one union-find, so K_{1,300}'s 299 generators make
    299 merges; a replay at each first-path node would make 299 * 300 / 2.
    A work count does not vary between machines, so this guard cannot flake."""
    merges = []
    merge = linesym.refinement._Node.merge
    monkeypatch.setattr(linesym.refinement._Node, "merge",
                        lambda node, p, moved: merges.append(p) or merge(node, p, moved))
    _, gens, order = linesym.refinement.automorphism_generators(_star(300).adj)
    assert (len(gens), len(merges), order) == (299, 299, math.factorial(300))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=39),
       st.randoms(use_true_random=False))
def test_tree_orders_match_the_ahu_oracle(picks, rng):
    # vertex i + 1 hangs from one before it, then the labels are shuffled
    label = list(range(len(picks) + 1))
    rng.shuffle(label)
    g = build_graph(len(label), [(label[x % (i + 1)], label[i + 1]) for i, x in enumerate(picks)])
    group = automorphisms(g)
    assert group.order == tree_automorphism_count(g)
    _automorphisms_of(g, group.generators)  # raises unless each one keeps every edge


@st.composite
def planted_graphs(draw, max_n=16):
    """A graph on 1-6 vertices, then up to five plantings at random vertices:
    an open twin (a new vertex with the same neighbours), a closed twin (the
    same, joined to it too), or a pendant path or tree; relabelled."""
    g = draw(small_graphs(max_n=6))
    n, edges = g.n, list(g.edges)
    for _ in range(draw(st.integers(0, 5))):
        kind, v = draw(st.sampled_from(["open", "closed", "path", "tree"])), draw(st.integers(0, n - 1))
        size = 1 if kind in ("open", "closed") else draw(st.integers(1, 4))
        if n + size > max_n:
            break
        if kind in ("open", "closed"):
            edges += [(w, n) for e in edges if v in e for w in e if w != v]
            edges += [(v, n)] if kind == "closed" else []
        else:  # each new vertex hangs from the one before it, or from any earlier one
            edges += [(v if i == 0 else n + i - 1 if kind == "path"
                       else draw(st.sampled_from([v, *range(n, n + i)])), n + i) for i in range(size)]
        n += size
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[w]) for u, w in edges])


@settings(max_examples=150, deadline=None)
@given(planted_graphs())
def test_reduced_orders_match_the_backtracking_oracle(g):
    """Twins and pendant trees planted on small graphs: the reduction's order
    is the oracle's, each generator is an automorphism, and a full
    Schreier-Sims run on the generators alone reaches the same order.  The
    oracle counts automorphisms one at a time, so groups past 5000 skip it."""
    group = automorphisms(g)
    assume(group.order <= 5000)
    assert group.order == automorphism_count_backtrack(g)
    _automorphisms_of(g, group.generators)
    _, levels, _, _ = _stabilizer_chain([p.images for p in group.generators], g.n, group._base)
    assert _chain_order(levels) == group.order


def _has_twin_or_leaf(g) -> bool:
    rows = [frozenset(row) for row in g.adj]
    closed = [row | {v} for v, row in enumerate(rows)]
    return 1 in map(len, rows) or len(set(rows)) < g.n or len(set(closed)) < g.n


def test_the_reduction_on_the_connected_atlas(monkeypatch):
    """Every connected atlas graph with a twin or a leaf takes the reduction,
    and no other does.  Each reduced group has the search's order, its
    generators are automorphisms, and they are strong on its base: the chain
    on that base, stopped at the order, composes nothing.  A work count does
    not vary between machines, so this guard cannot flake."""
    compose, calls = linesym.symmetry._compose, []
    monkeypatch.setattr(linesym.symmetry, "_compose", lambda p, q: calls.append(1) or compose(p, q))
    reduced = 0
    for g in connected_atlas():
        found = reduced_generators(g.adj)
        assert (found is not None) == _has_twin_or_leaf(g), g.adj
        if found is None:
            continue
        reduced += 1
        base, gens, order = found
        assert order == g.search[2], g.adj
        _automorphisms_of(g, map(Permutation, gens))
        _, levels, _, _ = _stabilizer_chain(gens, g.n, base, order)
        assert _chain_order(levels) == order and not calls, g.adj
    assert reduced > len(connected_atlas()) // 2


def _tree_with_twins():
    """A spider with legs 1, 1, 2, 2 and 3, a pair of twin leaves at the end of
    the 3-leg, and a triangle whose two far corners are closed twins."""
    legs = [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8), (8, 9),
            (9, 10), (9, 11), (0, 12), (12, 13), (12, 14), (13, 14)]
    return build_graph(15, legs)


@pytest.mark.parametrize("build, order", [
    (lambda: catalog("complete_multipartite(4,5)"), math.factorial(5) ** 4 * math.factorial(4)),
    (_tree_with_twins, 2 * 2 * 2 * 2),
    (lambda: _star(50), math.factorial(50)),
], ids=["K_{4[5]}", "tree with twins", "K_{1,50}"])
def test_reduced_generators_are_strong_on_their_base(monkeypatch, build, order):
    """The group's own chain, on its base and stopped at its order, runs no
    Schreier phase: nothing is composed.  A work count does not vary between
    machines, so this guard cannot flake."""
    g = build()
    automorphisms.cache_clear()
    group, compose, calls = automorphisms(g), linesym.symmetry._compose, []
    assert group.order == order
    monkeypatch.setattr(linesym.symmetry, "_compose", lambda p, q: calls.append(1) or compose(p, q))
    _, levels, _, _ = group._levels()
    assert _chain_order(levels) == order and not calls


@pytest.mark.parametrize("g", [
    catalog("petersen"), catalog("heawood"), catalog("tutte_8_cage"),
    cube_graph(4), cube_graph(5), cube_graph(6), catalog("cycle(50)"),
], ids=lambda g: g.name or f"Q{g.n.bit_length() - 1}")
def test_twin_free_graphs_keep_the_search_group(g):
    """With no twin and no leaf, the group is the search's, generator for
    generator and with its base, so the `orbits` hosts keep their groups."""
    automorphisms.cache_clear()
    base, gens, order = g.search
    group = automorphisms(g)
    assert [p.images for p in group.generators] == gens
    assert (group._base, group.order, group._strong) == (tuple(base), order, True)


def test_generators_preserve_edges(petersen, icosahedron):
    for g in (petersen, icosahedron):
        edges = {frozenset(e) for e in g.edges}
        for p in automorphisms(g).generators:
            assert {frozenset((p(u), p(v))) for u, v in edges} == edges


def test_order_matches_filter_oracle_on_small_random_graphs():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), extra_p=rng.choice([0.2, 0.5]))
        assert automorphisms(g).order == g.search[2] == automorphism_count_filter(g)


def test_order_matches_backtracking_oracle_on_catalog():
    for name in ("petersen", "k33", "icosahedron", "cycle(6)", "path(4)"):
        g = catalog(name)
        assert automorphisms(g).order == automorphism_count_backtrack(g)


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
        _, levels, _, _ = _stabilizer_chain([p.images for p in grp.generators], g.n)
        assert _chain_order(levels) == vf2

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
        _assert_levels_carry_keys_to_their_base_points(*_chain_levels(grp))

    check()


def test_prefixed_chain_matches_sympy_with_and_without_the_order_stop():
    """Orders against sympy; and each input, identities aside, joins the
    levels up to the first base point it moves, so the base starts with the
    batch rule's and each level's generators with the inputs fixing the base
    points before it, shallowest first."""
    combinatorics = pytest.importorskip("sympy.combinatorics")

    @settings(max_examples=200, deadline=None)
    @given(permutation_lists(max_n=20), st.data())
    def check(case, data):
        n, perms = case
        prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)))
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])
        order = group.order()
        stabilizer = group.pointwise_stabilizer(list(prefix)).order() if prefix else order
        expected_base, inputs = batch_base(perms, n, prefix)
        for stop in (None, order, 2 * order):  # a stop above the order never fires
            base, levels, _, steps = _stabilizer_chain(perms, n, prefix, stop)
            assert tuple(base[:len(prefix)]) == prefix
            assert len(levels) == len(base) and _chain_order(levels) == order
            assert _chain_order(levels[len(prefix):]) == stabilizer
            assert base[:len(expected_base)] == expected_base
            for pairs, expected in zip(steps, inputs):
                assert [s for s, _ in pairs[:len(expected)]] == expected

    check()


def test_from_permutations_checks_the_degree_of_identities_too():
    with pytest.raises(ValueError, match="degree mismatch"):
        AutGroup.from_permutations(10, [Permutation(tuple(range(9)))])
    with pytest.raises(ValueError, match="degree mismatch"):
        AutGroup.from_permutations(10, [Permutation(tuple(range(10))), Permutation((1, 0, 2))])
    assert AutGroup.from_permutations(10, [Permutation(tuple(range(10)))]).order == 1


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
        seeded = _state(split)
        _refine(g.adj, *seeded, [split[v]])
        full = refine(g.adj, split)
        assert cells_of(seeded[2]) == cells_of(full) == equitable_cells(g.adj, split)


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
        seeded = _state(split)
        _refine(g.adj, *seeded, [split[v]])
        assert color == seeded[2]
        assert sorted(elems) == list(range(g.n))
        assert all(elems[pos[w]] == w for w in range(g.n))
        c = 0
        while c < g.n:  # each start heads a run of its own color, and the runs tile elems
            assert all(color[w] == c for w in elems[c:c + size[c]])
            c += size[c]
        assert sum(size) == g.n  # size is 0 off the cell starts
        colors = color
    assert state[0] == sorted(range(g.n), key=colors.__getitem__)  # a leaf's cell order


def test_projective_planes_have_their_closed_form_orders():
    # |Aut| of the incidence graph of PG(2, p) is 2 |PGL(3, p)|: collineations
    # and a polarity swapping points with lines.  Refinement alone stalls here;
    # the search individualizes 4 points, whatever p, so p = 13 is quick.
    for p, order in ((3, 11232), (5, 744000), (7, 11261376), (11, 424855200),
                     (13, 1621069632)):
        g = catalog(f"projective_plane({p})")
        assert all(len(row) == p + 1 for row in g.adj)
        automorphisms.cache_clear()
        assert automorphisms(g).order == order == 2 * p**3 * (p**3 - 1) * (p**2 - 1)
        assert len(g.search[0]) == 4


@pytest.mark.parametrize("k", [20, 24, 40])
def test_cfi_graphs_have_their_closed_form_orders(k):
    # An untwisted CFI graph over a connected cubic H has 2^(|E| - |V| + 1)
    # |Aut(H)| automorphisms: one flip per cycle of H, with H's own lifted.
    nx = pytest.importorskip("networkx")
    g, h = cfi_graph(k)
    base_order = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    automorphisms.cache_clear()
    assert automorphisms(g).order == 2 ** (k // 2 + 1) * base_order


def test_the_search_skips_subtrees_without_the_first_paths_cell_sizes(monkeypatch):
    # A node whose cell sizes differ from the first path's at its depth holds
    # no automorphism.  Descending into such nodes took 8,100 children on
    # the 200-vertex CFI graph; skipping them takes 121.
    pytest.importorskip("networkx")
    children, child = [], linesym.refinement._child
    monkeypatch.setattr(linesym.refinement, "_child",
                        lambda adj, state, v: children.append(v) or child(adj, state, v))
    g, _ = cfi_graph(20)
    assert linesym.refinement.automorphism_generators(g.adj)[2] == 2 ** 11
    assert len(children) < 200


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


def _thrice_iterated_line_graph_of_k5():
    g = catalog("complete(5)")
    for _ in range(3):
        g = line_graph(g).graph
    return g


def _thrice_iterated_line_graph_of_k7():
    return catalog("complete(7)").line.line.line


def _thrice_iterated_line_graph_of_heawood():
    return catalog("heawood").line.line.line


# The vertex counts searched by each iterated line graph's group: its first
# root that takes no root path, or nothing where that root is complete.
SEARCHED_ROOT = {
    _thrice_iterated_line_graph_of_k5: [],
    _thrice_iterated_line_graph_of_k7: [],
    _thrice_iterated_line_graph_of_heawood: [14],
}


@pytest.fixture
def searched(monkeypatch):
    """The vertex count of each graph the automorphism search runs on."""
    sizes, search = [], linesym.refinement.automorphism_generators

    def spy(adj, colors=None):
        sizes.append(len(adj))
        return search(adj, colors)

    monkeypatch.setattr(linesym.refinement, "automorphism_generators", spy)
    return sizes


@pytest.mark.parametrize("build, order", [
    (lambda: catalog("cycle(4000)"), 8000),
    (lambda: catalog("projective_plane(13)"), 2 * 13**3 * (13**3 - 1) * (13**2 - 1)),
    (_thrice_iterated_line_graph_of_k5, 120),
    (lambda: catalog("complete(50)"), math.factorial(50)),
    (lambda: catalog("tutte_8_cage"), 1440),
    (_thrice_iterated_line_graph_of_k7, 5040),
    (_thrice_iterated_line_graph_of_heawood, 336),
])
def test_automorphism_orders_compose_no_permutation(monkeypatch, searched, build, order):
    """The search's generators are strong on its base, a reduction's on its
    core's base and its classes, and a root's, mapped onto its edges, on an
    edge prefix: either way the chain's orbits come from point images alone,
    and the only permutation work is inverting each generator once.  A line
    graph's group searches only its root, and a complete graph, reduced to
    one vertex, searches nothing."""
    g = build()

    def refuse(p, q):
        raise AssertionError("automorphisms() composed a permutation")

    automorphisms.cache_clear()
    monkeypatch.setattr(linesym.symmetry, "_compose", refuse)
    assert automorphisms(g).order == order
    assert searched == SEARCHED_ROOT.get(build, [] if is_complete(g) else [g.n])


def test_line_graphs_of_arc_transitive_roots_search_only_the_root(searched):
    """On these roots the edges at the base points do not always carry the
    mapped generators' orbits to |Aut H|; the chain's Schreier phase,
    stopped at |Aut H|, completes the levels, so the one search is the
    root's, under every labelling."""
    hosts = [(catalog(f"projective_plane({p})"), 2 * (p * p + p + 1)) for p in (3, 5, 7)]
    hosts += [(cube_graph(5), 32), (kneser_graph(7, 2), 21), (kneser_graph(7, 3), 35),
              (catalog("icosahedron"), 12), (catalog("tutte_8_cage").line, 30)]
    for host, root in hosts:
        for seed in range(3):
            g = relabelled(host.line, seed)
            automorphisms.cache_clear()
            searched.clear()
            order = automorphisms(g).order
            assert searched == [root], (host.name, seed)
            assert order == g.search[2]


def test_automorphisms_give_the_search_order_on_the_atlas_and_its_line_graphs(monkeypatch):
    """Most line graphs here take their group from the root; the search,
    run on each graph anyway, checks every order, and every generator is an
    automorphism of the graph."""
    rooted, line_group = set(), linesym.symmetry._line_group

    def spy(g):
        group = line_group(g)
        if group is not None:
            rooted.add(g)
        return group

    automorphisms.cache_clear()
    monkeypatch.setattr(linesym.symmetry, "_line_group", spy)
    graphs = [h for g in connected_atlas() for h in ((g, g.line) if g.m else (g,))]
    for h in graphs:
        group = automorphisms(h)
        assert group.order == h.search[2]
        _automorphisms_of(h, group.generators)
    assert len(rooted.intersection(graphs)) > len(graphs) // 3


@pytest.mark.parametrize("edges, root_order, line_order", [
    ([(0, 1)], 2, 1),  # K2, whose line graph is K1
    ([(0, 1), (0, 2), (1, 2)], 6, 6),  # K3 and K1,3 share their line graph
    ([(0, 1), (0, 2), (0, 3)], 6, 6),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 24, 48),  # K4: the octahedron
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4, 8),  # K4 - e: the 4-wheel
    ([(0, 1), (0, 2), (0, 3), (1, 2)], 2, 4),  # K1,3 + e: K4 - e
])
def test_whitney_exceptions_are_searched(edges, root_order, line_order):
    """Aut(H) -> Aut(L(H)) is no isomorphism on these roots, all on fewer
    than 5 vertices, so their line graphs keep the search."""
    h = build_graph(max(map(max, edges)) + 1, edges)
    line = h.line
    assert automorphisms(h).order == root_order
    assert automorphisms(line).order == line.search[2] == line_order


def _complement(g):
    return build_graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                             if v not in g.adj[u]])


def _denser_than_half(adj) -> bool:
    return sum(map(len, adj)) > len(adj) * (len(adj) - 1) // 2


def test_automorphisms_give_the_search_order_on_the_whole_atlas_and_its_complements():
    """Every atlas graph, disconnected ones included, and its complement:
    the dense half of them take their group from the other side, and the
    search run on each graph itself checks the order."""
    nx = pytest.importorskip("networkx")
    atlas = [build_graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()
             if a.number_of_nodes()]
    graphs = [h for g in atlas for h in (g, _complement(g))]
    automorphisms.cache_clear()
    for h in graphs:
        group = automorphisms(h)
        assert group.order == h.search[2], h.adj
        _automorphisms_of(h, group.generators)
    assert sum(map(_denser_than_half, (g.adj for g in atlas))) == 621


def _dense_ladder():
    """(graph, |Aut|, the vertex counts searched) for the dense ladder."""
    f = math.factorial
    members = [(catalog(f"complete({n})"), f(n), []) for n in range(4, 17)]
    for m, b in ((2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (4, 3), (5, 4), (6, 3), (8, 2)):
        members.append((catalog(f"complete_multipartite({m},{b})"), f(b) ** m * f(m), []))
    for n in range(5, 12):  # dense from n = 8; K(7,2) has exactly half the pairs
        members.append((kneser_graph(n, 2), f(n), [] if n >= 8 else [math.comb(n, 2)]))
    members += [(kneser_graph(n, 3), f(n), [math.comb(n, 3)]) for n in (7, 8, 9)]
    return members


@pytest.mark.parametrize("seed", range(3))
def test_the_search_never_runs_on_the_denser_side(monkeypatch, seed):
    """Complete, complete multipartite and Kneser graphs under relabellings:
    no adjacency searched is denser than half.  Complete and complete
    multipartite graphs reduce to one vertex by their twins, so they search
    nothing; K(n,2), from n = 8 on, reaches K_n through its complement
    T(n) = L(K_n), so it searches nothing either."""
    searched, search = [], linesym.refinement.automorphism_generators

    def spy(adj, colors=None):
        searched.append(adj)
        return search(adj, colors)

    monkeypatch.setattr(linesym.refinement, "automorphism_generators", spy)
    for g, order, sizes in _dense_ladder():
        automorphisms.cache_clear()
        searched.clear()
        assert automorphisms(relabelled(g, seed)).order == order, g.name
        assert not any(map(_denser_than_half, searched)), g.name
        assert [len(adj) for adj in searched] == sizes, g.name


@pytest.mark.parametrize("g", [
    kneser_graph(9, 2),
    catalog("complete_multipartite(4,3)"),
    _complement(catalog("cycle(30)")),
])
def test_dense_graphs_keep_no_edge_list(g):
    """The density test and `Graph.m` read the adjacency rows, so a dense
    graph's group leaves no edge tuple on the graph the cache keys on."""
    h = build_graph(g.n, g.edges)
    automorphisms.cache_clear()
    assert _denser_than_half(h.adj) and h.root is None
    assert automorphisms(h).order == h.search[2]
    assert h.m == len(g.edges)
    assert "edges" not in vars(h)


def test_the_group_of_a_long_cycle_holds_linear_memory():
    """Explicit transversals would hold 4000 tuples of 4000 entries (about
    120 MB); Schreier vectors hold one (parent, generator) pair per point."""
    g = catalog("cycle(4000)")
    g.search
    automorphisms.cache_clear()
    tracemalloc.start()
    try:
        assert automorphisms(g).order == 8000
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2_000_000


def test_the_level_predicates_on_a_long_cycle_hold_linear_memory():
    """The chain of each arc level is based at the level's first tuple; its
    Schreier vectors hold one entry per point, where a table of coset
    elements per level would hold 4000 tuples of 4000 entries."""
    g = catalog("cycle(4000)")
    automorphisms(g)
    transitive_on_level.cache_clear()
    tracemalloc.start()
    try:
        assert is_s_arc_transitive(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("name", ["petersen", "tutte_8_cage", "cycle(12)", "complete(6)"])
def test_build_falls_back_to_schreier_sims_when_the_generators_are_not_strong(name):
    """With a search generator dropped, the orbits no longer reach the given
    order, a stop that the chain checks: its order is that of the group the
    remaining generators generate."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    g = catalog(name)
    base, gens, order = g.search
    kept = [Permutation(p) for p in gens[:-1]]
    expected = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p.images)) for p in kept]).order()
    _, levels, up, _ = _stabilizer_chain([p.images for p in kept], g.n, base, order)
    assert _chain_order(levels) == expected < order
    _assert_levels_carry_keys_to_their_base_points(levels, up, set(g.edges))


def test_groups_of_equal_graphs_are_equal_and_hash_equal_whatever_is_tabled():
    """AutGroup keys lru caches, so its levels, tabled or not, stay out of
    comparison and hashing."""
    automorphisms.cache_clear()
    first = automorphisms(catalog("petersen"))
    automorphisms.cache_clear()
    second = automorphisms(catalog("petersen"))
    assert first is not second
    _, level, _, reps = first._chain
    for x in level:
        _coset(level, reps, x)
    assert first._chain[3] != second._chain[3]
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


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
    idx = EdgeIndex.from_graph(petersen)
    ind = induced_edge_action(idx, Permutation(tuple(range(10))))
    assert ind.images == tuple(range(len(idx)))


def test_induced_action_is_line_automorphism(petersen):
    lg = line_graph(petersen)
    ledges = {frozenset(e) for e in lg.graph.edges}
    for p in automorphisms(petersen).generators:
        q = induced_edge_action(EdgeIndex.from_graph(petersen), p)
        assert {frozenset((q(a), q(b))) for a, b in ledges} == ledges


def test_induced_action_maps_ranks_correctly(k33):
    idx = EdgeIndex.from_graph(k33)
    for p in automorphisms(k33).generators:
        q = induced_edge_action(idx, p)
        for i, (u, v) in enumerate(idx.edges):
            assert q(i) == idx.edges.index(tuple(sorted((p(u), p(v)))))


def test_induced_action_rejects_non_automorphism():
    p4 = catalog("path(4)")
    idx = EdgeIndex.from_graph(p4)
    # a permutation of the vertices that is not an automorphism
    with pytest.raises(ValueError):
        induced_edge_action(idx, Permutation((1, 0, 2, 3, 4)))


def test_induced_action_rejects_a_permutation_of_another_degree(petersen):
    with pytest.raises(ValueError, match="permutation degree does not match the host"):
        induced_edge_action(EdgeIndex.from_graph(petersen), Permutation(tuple(range(9))))


def test_arc_transitivity_needs_a_connected_graph():
    with pytest.raises(ValueError, match="transitivity tests need a connected graph"):
        is_s_arc_transitive(build_graph(4, [(0, 1), (2, 3)]), 2)


def test_induced_group_order_matches_host_for_k4(k4):
    """Aut(K4) embeds in Aut(L(K4)) with index 2: 24 against 48."""
    lg = line_graph(k4)
    host = automorphisms(k4)
    induced = tuple(induced_edge_action(EdgeIndex.from_graph(k4), p) for p in host.generators)
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
    images = [induced_edge_action(EdgeIndex.from_graph(g), p) for p in automorphisms(g).generators]
    group = AutGroup.from_permutations(lg.graph.n, images)
    assert group.order == automorphisms(g).order == order
    _assert_levels_carry_keys_to_their_base_points(*_chain_levels(group), set(lg.graph.edges))


def test_an_edge_group_chain_follows_the_base_of_its_host_group(monkeypatch):
    """An edge group is based at the edges at its host group's base points, so
    its own chain, the one `transitive_on` reads, needs little Schreier phase:
    on L(PG(2,7)) it composes 132 times, and 1,154 times with no base.  A work
    count does not vary between machines, so this guard cannot flake."""
    automorphisms.cache_clear()
    group = automorphisms(catalog("projective_plane(7)").line)
    compose, calls = linesym.symmetry._compose, []
    monkeypatch.setattr(linesym.symmetry, "_compose",
                        lambda p, q: calls.append(1) or compose(p, q))
    assert group._chain[0] == 11261376  # 2 |PGL(3, 7)|, by Whitney that of PG(2,7)
    assert len(calls) < 400


def test_each_schreier_generator_is_sifted_at_most_once(monkeypatch):
    """Counted through `_compose` on the induced group of a relabelled Q6,
    with no order to stop at.  Memoising a coset element costs one
    composition per orbit point and direction.  A pair (t, s) of a level's
    orbit O_i and generators S_i costs nothing when it is a tree edge: t's
    entry is s, or an involution s is s[t]'s entry.  Any other pair is
    visited once and costs down[t] s, and the Schreier generator only when
    that differs from down[s[t]], so no Schreier generator is the identity;
    each is sifted once, through at most the levels above its own."""
    g = _relabelled(_hypercube(6), random.Random(6))
    lg = line_graph(g)
    inputs = [induced_edge_action(EdgeIndex.from_graph(g), p).images for p in automorphisms(g).generators]
    calls = []
    real = linesym.symmetry._compose

    def counted(p, q):
        r = real(p, q)
        calls.append((sys._getframe(1).f_code.co_name, q, r))
        return r

    monkeypatch.setattr(linesym.symmetry, "_compose", counted)
    base, levels, _, steps = _stabilizer_chain(inputs, lg.graph.n)
    assert _chain_order(levels) == 2**6 * math.factorial(6)
    generators = {id(s) for pairs in steps for s, _ in pairs}
    by_caller = collections.Counter(caller for caller, _, _ in calls)
    in_chain = [(id(q) in generators, r) for caller, q, r in calls
                if caller == "_stabilizer_chain"]
    products = [r for product, r in in_chain if product]  # down[t] s
    schreier = [r for product, r in in_chain if not product]  # down[t] s up[s[t]]
    assert by_caller["_coset"] <= 2 * sum(len(level) - 1 for level in levels)
    # each non-base point's entry is one tree edge, and two when its generator is an involution
    tree = sum(1 + (entry[1] is entry[2]) for level in levels for entry in level.values() if entry)
    pairs = sum(len(level) * len(pairs) for level, pairs in zip(levels, steps))
    assert len(products) == pairs - tree
    assert schreier and tuple(range(lg.graph.n)) not in schreier
    assert by_caller["sift"] <= len(schreier) * (len(base) - 1)
    assert set(by_caller) <= {"_coset", "_stabilizer_chain", "sift"}


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
    7! = 5040 tuples of 8 entries each.  A closed universe never trips it."""
    group = automorphisms(catalog("complete(8)"))
    universe = [tuple(range(8))]
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", 8 * 5040 - 1)
    with pytest.raises(EnumerationCapExceeded, match="more than 40319 entries"):
        transitive_on(universe, group)
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", 8 * 5040)
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
        # Each word's product, left then right.
        products = [functools.reduce(lambda p, q: Permutation(q.apply(p.images)), w)
                    for w in words]
        return AutGroup.from_permutations(g.n, products), g
    if kind == "permutations":
        perms = data.draw(st.lists(st.permutations(range(g.n)), max_size=2))
        return AutGroup.from_permutations(g.n, [Permutation(tuple(p)) for p in perms]), g
    if kind == "induced" and g.edges:
        lg = line_graph(g)
        images = [induced_edge_action(EdgeIndex.from_graph(g), p) for p in full.generators]
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
    assert part.sizes() == [part.orbit_ids.count(i) for i in range(part.orbit_count)]


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


def _chain_levels(group):
    """(levels, memos): the group's first level from `_chain`, then every
    level of a stabilizer chain built on its generators, base and order."""
    _, level, _, memo = group._chain
    _, levels, up, _ = _stabilizer_chain([p.images for p in group.generators], group.degree,
                                         group._base, group._order)
    if not level:  # the trivial group's
        return levels, up
    return [level, *levels], [memo, *up]


def _transversals(levels, memos):
    """Every level's element table, its memo filled through `_coset`."""
    for level, reps in zip(levels, memos):
        for x in level:
            _coset(level, reps, x)
    return memos


def _assert_levels_carry_keys_to_their_base_points(levels, memos, edges=None):
    """Each level (a Schreier vector, with its memo) maps its base point to
    the identity and every key t to an element w with w[t] equal to the base
    point; with edges given, every w must also preserve them."""
    for level in _transversals(levels, memos):
        point = next(iter(level))
        assert level[point] == tuple(range(len(level[point])))
        for t, w in level.items():
            assert w[t] == point
            if edges is not None:
                assert {tuple(sorted((w[a], w[b]))) for a, b in edges} == edges


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_transversal_entries_are_automorphisms_carrying_their_keys_to_the_base_point(g):
    """On chains read off the search: every entry is an automorphism of g."""
    _assert_levels_carry_keys_to_their_base_points(*_chain_levels(automorphisms(g)), set(g.edges))


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
    levels, memos = _chain_levels(group)
    _assert_levels_carry_keys_to_their_base_points(levels, memos, edges if gens_preserve else None)
    assert all(w in elements for level in _transversals(levels, memos) for w in level.values())


def test_transitive_on_inverts_nothing(monkeypatch, petersen, k3_parts_of_2):
    """Tuples starting in the first base point's orbit reach the fibre by
    composition alone, on full, induced and subgroup groups.  Each chain,
    which inverts its generators, is built before the patch."""
    automorphisms.cache_clear()
    cases = []
    for g in (petersen, k3_parts_of_2):
        full = automorphisms(g)
        lg = line_graph(g)
        induced = AutGroup.from_permutations(
            lg.graph.n, [induced_edge_action(EdgeIndex.from_graph(g), p) for p in full.generators])
        first, last = full.generators[0], full.generators[-1]
        sub = AutGroup.from_permutations(g.n, [Permutation(last.apply(first.images))])
        for group, h in ((full, g), (induced, lg.graph), (sub, g)):
            group._chain
            for universe in (enumerate_arcs(h, 2), enumerate_geodesics(h, 2)):
                cases.append((universe, group))

    def refuse(p):
        raise AssertionError("transitive_on inverted a permutation")

    monkeypatch.setattr(linesym.symmetry, "_invert", refuse)
    for universe, group in cases:
        _, part = transitive_on(universe, group)
        assert part.orbit_ids == orbit_partition(universe, [p.images for p in group.generators])


def test_transitive_on_builds_only_the_start_points_schreier_path():
    """A one-tuple universe asks for one level element: it is built along the
    start point's path in the first level's Schreier vector, and no other
    point of the orbit gets one."""
    automorphisms.cache_clear()
    group = automorphisms(catalog("petersen"))
    _, level, _, reps = group._chain

    def path(x):
        while x is not None:
            yield x
            x = level[x] and level[x][0]

    start = max(level, key=lambda x: len(list(path(x))))
    assert set(reps) == {next(iter(level))}  # the search's generators are strong
    assert transitive_on([(start,)], group)[0]
    assert set(reps) == set(path(start)) and len(reps) < len(level) == 10


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
            line.graph.n, [induced_edge_action(EdgeIndex.from_graph(g), p) for p in full.generators])),
    ]
    if g.m > 1:  # a vertex of degree 2, so the edge action is faithful, its order |full|
        # based at edges, its generators not strong there: the one such kind of group
        cases.append((line.graph, _edge_group(g, g.edges, g.edge_rank, full)))
    for h, group in cases:
        for t in range(1, 5):
            expected = transitive_on(enumerate_arcs(h, t), group)[0]
            assert transitive_on_level(h, "arcs", t, group) == expected
        for t in range(1, diameter(h) + 1):
            expected = transitive_on(enumerate_geodesics(h, t), group)[0]
            assert transitive_on_level(h, "geodesics", t, group) == expected


def test_arc_transitivity_with_subgroup(petersen):
    trivial = AutGroup.from_permutations(10, (Permutation(tuple(range(10))),))
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
