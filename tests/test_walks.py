import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linesym import walks
from linesym.constructions import catalog, line_graph
from linesym.graphs import build_graph
from linesym.walks import (
    EnumerationCapExceeded,
    count_arcs,
    count_geodesics,
    edge_sequences,
    enumerate_arcs,
    enumerate_geodesics,
    first_tuple,
)
from oracles import all_arcs, all_geodesics

from conftest import random_connected_graph


# frozen counts; every DERIVED one is double-checked against the product-filter
# oracle right here rather than trusted


@pytest.mark.parametrize(
    "name, s, count",
    [
        ("complete(3)", 1, 6),
        ("cycle(5)", 2, 10),
        ("petersen", 3, 120),  # 10*3*2*2: cubic, girth 5, two extensions per step
    ],
)
def test_frozen_arc_counts(name, s, count):
    g = catalog(name)
    arcs = enumerate_arcs(g, s)
    assert len(arcs) == count
    assert set(arcs) == all_arcs(g, s)


@pytest.mark.parametrize(
    "name, s, count",
    [
        ("complete(4)", 1, 12),
        ("cycle(6)", 3, 12),
        ("complete_multipartite(3,2)", 2, 24),
    ],
)
def test_frozen_geodesic_counts(name, s, count):
    g = catalog(name)
    geos = enumerate_geodesics(g, s)
    assert len(geos) == count
    assert set(geos) == all_geodesics(g, s)


def test_one_geodesics_are_exactly_arcs(k4, petersen):
    for g in (k4, petersen):
        assert set(enumerate_geodesics(g, 1)) == set(enumerate_arcs(g, 1))


def test_enumeration_is_sorted_and_duplicate_free(petersen):
    arcs = enumerate_arcs(petersen, 3)
    assert arcs == sorted(arcs)
    assert len(arcs) == len(set(arcs))
    geos = enumerate_geodesics(petersen, 2)
    assert geos == sorted(geos)


def test_arcs_agreeing_with_oracle_on_random_graphs():
    from linesym.metrics import diameter

    rng = random.Random(31)
    hosts = [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(12)]
    hosts += [catalog(name) for name in ("path(4)", "cycle(5)", "k33", "petersen")]
    for g in hosts:
        for s in (1, 2, 3):
            arcs = all_arcs(g, s)
            assert set(enumerate_arcs(g, s)) == arcs
            assert count_arcs(g, s) == len(arcs)
        for s in (1, 2):
            if s <= diameter(g):
                geos = all_geodesics(g, s)
                assert set(enumerate_geodesics(g, s)) == geos
                assert count_geodesics(g, s) == len(geos)


def _core_with_runs(rng: random.Random, core: int, run: int):
    """A random connected core with a pendant degree-2 run of `run` vertices
    (ending in a leaf) and a one-vertex handle across two core vertices."""
    g = random_connected_graph(rng, core, 0.5)
    tail = [rng.randrange(core), *range(core, core + run)]
    handle = core + run
    edges = [*g.edges, *zip(tail, tail[1:]), (0, handle), (handle, core - 1)]
    return build_graph(core + run + 1, edges)


def test_enumerators_equal_the_oracle_in_order_across_the_tail_boundary():
    # s from 1 to 6 takes arcs through the fused comprehensions (s <= 4) and
    # the shared tails (s >= 5), and geodesics through the depth-first
    # prefix from depth 0 to depth 3 and the fused three-level tail.
    from linesym.metrics import diameter

    rng = random.Random(1729)
    hosts = [_core_with_runs(rng, 3, 2), _core_with_runs(rng, 2, 3), _core_with_runs(rng, 4, 1)]
    for g in hosts:
        assert min(map(len, g.adj)) == 1 and any(len(row) == 2 for row in g.adj)
        for s in range(1, 7):
            assert enumerate_arcs(g, s) == sorted(all_arcs(g, s))
        for s in range(1, min(diameter(g), 6) + 1):
            assert enumerate_geodesics(g, s) == sorted(all_geodesics(g, s))


@st.composite
def thin_hosts(draw):
    """A connected graph of valency at most 3 on at most 13 vertices: a
    random tree with a few extra edges, then subdivided edges (degree-2
    runs) and pendant vertices."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.add((min(u, v), max(u, v)))
    edges = {e for e in edges if e[0] != e[1]}
    for _ in range(draw(st.integers(0, 4))):
        u, v = draw(st.sampled_from(sorted(edges)))
        edges -= {(u, v)}
        edges |= {(u, n), (v, n)}
        n += 1
    for _ in range(draw(st.integers(0, 3))):
        edges.add((draw(st.integers(0, n - 1)), n))
        n += 1
    g = build_graph(n, edges)
    assume(max(map(len, g.adj)) <= 3)
    return g


def _check_against_the_oracle(g, lengths):
    from linesym.metrics import diameter

    for s in lengths:
        arcs = sorted(all_arcs(g, s))
        assert enumerate_arcs(g, s) == arcs
        assert first_tuple(g, s, False) == (arcs[0] if arcs else None)
        if s <= diameter(g):
            geos = sorted(all_geodesics(g, s))
            assert enumerate_geodesics(g, s) == geos
            assert first_tuple(g, s, True) == geos[0]


@settings(max_examples=40, deadline=None)
@given(thin_hosts())
def test_enumerators_equal_the_sorted_oracle_on_thin_graphs(g):
    # s from 1 to 7 reaches every branch of the kernel: fused short arcs,
    # shared arc tails, fused geodesic tails and degree-2 runs.
    _check_against_the_oracle(g, range(1, 8))


@pytest.mark.parametrize("name", [f"path({n})" for n in range(2, 9)]
                         + [f"cycle({n})" for n in range(3, 9)])
def test_enumerators_equal_the_sorted_oracle_on_paths_and_cycles(name):
    # s close to n and past it: a whole path or cycle is one degree-2 run.
    _check_against_the_oracle(catalog(name), range(1, 8))


def test_first_tuple_is_the_least_of_its_level():
    rng = random.Random(1729)
    hosts = [_core_with_runs(rng, 3, 2), _core_with_runs(rng, 4, 1), catalog("path(4)")]
    for g in hosts:
        for s in range(1, 6):
            assert first_tuple(g, s, False) == min(all_arcs(g, s), default=None)
            assert first_tuple(g, s, True) == min(all_geodesics(g, s), default=None)
    with pytest.raises(ValueError):
        first_tuple(hosts[0], 0, False)


def test_cap_bound_over_but_count_within_builds_the_tuples(monkeypatch):
    # path(4) has 4 3-arcs (and 3-geodesics) against a bound of 5 * 2 * 1 = 10,
    # each of 4 entries: 16 entries against a bound of 40.
    g = catalog("path(4)")
    counted = []
    for name in ("count_arcs", "count_geodesics"):
        real = getattr(walks, name)
        monkeypatch.setattr(walks, name, lambda g, s, real=real: counted.append(s) or real(g, s))
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 16)
    assert enumerate_arcs(g, 3) == sorted(all_arcs(g, 3))
    assert enumerate_geodesics(g, 3) == sorted(all_geodesics(g, 3))
    assert counted == [3, 3]
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 15)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_arcs(g, 3)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_geodesics(g, 3)


def test_cap_bound_within_never_counts(petersen, monkeypatch):
    def refuse(g, s):
        raise AssertionError("counted though the bound is within the cap")

    monkeypatch.setattr(walks, "count_arcs", refuse)
    monkeypatch.setattr(walks, "count_geodesics", refuse)
    # The Petersen graph's bounds are tight: 10 * 3 * 2**2 = 120 3-arcs of 4
    # entries and 10 * 3 * 2 = 60 2-geodesics of 3, so a cap equal to the
    # entries still builds.
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 4 * 120)
    assert len(enumerate_arcs(petersen, 3)) == 120
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 3 * 60)
    assert len(enumerate_geodesics(petersen, 2)) == 60
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 3 * 60 - 1)
    with pytest.raises(AssertionError, match="counted"):
        enumerate_geodesics(petersen, 2)


@pytest.mark.parametrize("s", [0, -1])
def test_enumerate_arcs_rejects_nonpositive_length(petersen, s):
    with pytest.raises(ValueError):
        enumerate_arcs(petersen, s)
    with pytest.raises(ValueError):
        enumerate_arcs(catalog("path(1)"), s)


@pytest.mark.parametrize("s", [0, -3])
def test_counts_reject_nonpositive_length(petersen, s):
    with pytest.raises(ValueError, match="arcs"):
        count_arcs(petersen, s)
    with pytest.raises(ValueError, match="geodesics"):
        count_geodesics(petersen, s)


def test_enumerate_arc_cap_raises(petersen, monkeypatch):
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 100)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_arcs(petersen, 3)


def test_enumerate_geodesics_cap_raises(petersen, monkeypatch):
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 3 * 60 - 1)  # there are 60, of 3 entries
    with pytest.raises(EnumerationCapExceeded, match="entries in geodesics"):
        enumerate_geodesics(petersen, 2)
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 3 * 60)
    assert len(enumerate_geodesics(petersen, 2)) == 60


def test_cap_is_checked_before_any_tuple_is_built(monkeypatch):
    # complete(9) has 9 * 8^8 (about 1.5e8) 9-arcs.
    g = catalog("complete(9)")
    monkeypatch.setattr(walks, "ENUMERATION_CAP", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded):
            enumerate_arcs(g, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_geodesics_rejects_bad_s(petersen):
    with pytest.raises(ValueError):
        enumerate_geodesics(petersen, 3)  # diameter is 2
    with pytest.raises(ValueError):
        enumerate_geodesics(build_graph(4, [(0, 1), (2, 3)]), 1)


def test_geodesics_with_distance_filter_match_arcs(petersen):
    """s-geodesics are exactly the s-arcs whose endpoints sit at distance s."""
    for s in (1, 2):
        arcs = enumerate_arcs(petersen, s)
        picked = {a for a in arcs if petersen.distances(a[0])[a[-1]] == s}
        assert picked == set(enumerate_geodesics(petersen, s))


# -- the edge-sequence map ------------------------------------------------------


def test_lmap_on_triangle():
    k3 = catalog("complete(3)")
    [out] = edge_sequences(k3, [(0, 1, 2)])
    assert out == (k3.edge_rank[0, 1], k3.edge_rank[1, 2]) == (0, 2)


def test_lmap_rejects_short_and_non_arcs(petersen):
    with pytest.raises(ValueError):
        edge_sequences(petersen, [(0, 1)])
    bad = (0, 1, 0)
    with pytest.raises(ValueError):
        edge_sequences(petersen, [bad])
    # not a walk: w-0 is an edge, 0-1 is not
    w = petersen.adj[0][0]
    assert 1 not in petersen.adj[0]
    with pytest.raises(ValueError, match="not an edge"):
        edge_sequences(petersen, [(w, 0, 1)])
    # a walk that backtracks
    with pytest.raises(ValueError, match="not an arc"):
        edge_sequences(petersen, [(0, w, 0)])
    with pytest.raises(ValueError):
        edge_sequences(petersen, [(0, w, 10)])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.integers(2, 5), st.randoms(use_true_random=False))
def test_edge_sequences_match_lmap_arc_by_arc(n, s, rnd):
    g = random_connected_graph(rnd, n, extra_p=rnd.choice((0.0, 0.2, 0.4)))
    arcs = enumerate_arcs(g, s)
    # every arc in order, or a random selection with repeats
    # (a plain Random: hypothesis' own refuses choices of more than 8192)
    if arcs and rnd.random() < 0.5:
        pick = random.Random(rnd.getrandbits(64))
        arcs = pick.choices(arcs, k=pick.randrange(2 * len(arcs) + 1))
    assert edge_sequences(g, arcs) == [edge_sequences(g, [a])[0] for a in arcs] == [
        tuple(g.edge_rank[e] for e in zip(a, a[1:])) for a in arcs]


def test_edge_sequences_reject_what_lmap_rejects(petersen):
    assert edge_sequences(petersen, []) == []
    good = enumerate_arcs(petersen, 2)[5:8]
    with pytest.raises(ValueError, match="one length"):
        edge_sequences(petersen, good + [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="one length"):
        edge_sequences(petersen, [good[0][:2], good[1]])
    w = petersen.adj[0][0]
    assert 1 not in petersen.adj[0]
    for bad, text in (((w, 0, 1), "not an edge"), ((0, w, 0), "not an arc")):
        with pytest.raises(ValueError, match=text) as bulk:
            edge_sequences(petersen, good[:2] + [bad] + good[2:])
        with pytest.raises(ValueError, match=text) as one:
            edge_sequences(petersen, [bad])
        assert str(bulk.value) == str(one.value)
        assert repr(bad) in str(one.value)


def test_lmap_image_lands_in_line_arcs(petersen):
    lg = line_graph(petersen)
    assert set(edge_sequences(petersen, enumerate_arcs(petersen, 3))) <= all_arcs(lg.graph, 2)


def test_bijection_characterization():
    """Onto all (s-1)-arcs exactly for s = 2 or cycle / path hosts."""
    c6 = catalog("cycle(6)")
    p7 = catalog("path(7)")
    pet = catalog("petersen")
    k4 = catalog("complete(4)")

    def onto(g, s):
        lg = line_graph(g)
        image = set(edge_sequences(g, enumerate_arcs(g, s)))
        return image == set(enumerate_arcs(lg.graph, s - 1))

    assert onto(c6, 3) and onto(c6, 4)
    assert onto(p7, 3)
    assert onto(pet, 2) and onto(k4, 2)   # s = 2 branch
    assert not onto(pet, 3)
    assert not onto(k4, 3)


def test_geodesic_images_are_geodesics(petersen, heawood, cube):
    for g, s in ((petersen, 2), (heawood, 3), (cube, 3)):
        lg = line_graph(g)
        assert set(edge_sequences(g, enumerate_geodesics(g, s))) <= all_geodesics(
            lg.graph, s - 1)


def test_image_equals_geodesics_frozen_cases(petersen, k4):
    """The s-arcs' edge sequences are exactly the line graph's
    (s-1)-geodesics when the girth is at least 2s - 2."""

    def image_equals(g, s):
        lg = line_graph(g)
        image = set(edge_sequences(g, enumerate_arcs(g, s)))
        return image == set(enumerate_geodesics(lg.graph, s - 1))

    assert image_equals(petersen, 3)  # girth 5 >= 4
    assert not image_equals(k4, 3)  # girth 3 < 4
    # girth 3 >= 2 always satisfies the s=2 threshold
    for g in (petersen, k4, catalog("k33")):
        assert image_equals(g, 2)


def test_counts_are_computed_once_per_graph_and_length():
    """Equal graphs share a count: the cache is keyed by adjacency, not by the
    Graph object or its name."""
    g = catalog("petersen")
    twin = build_graph(g.n, g.edges, name="copy")
    for count, s, expected in ((count_arcs, 3, 120), (count_geodesics, 2, 60)):
        count.cache_clear()
        assert count(g, s) == count(twin, s) == expected
        assert (count.cache_info().misses, count.cache_info().hits) == (1, 1)
