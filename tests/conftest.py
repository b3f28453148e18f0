"""Shared fixtures: catalog handles, ad-hoc hosts, and random-graph helpers."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import strategies as st

from linesym.constructions import catalog
from linesym.graphs import Graph, build_graph


def cube_graph(d: int = 3) -> Graph:
    """Q_d: d-bit strings joined when they differ in exactly one bit."""
    edges = [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b)]
    return build_graph(1 << d, edges, name="cube" if d == 3 else f"Q{d}")


def circulant(n: int, jumps) -> Graph:
    edges = [(v, (v + j) % n) for v in range(n) for j in jumps]
    return build_graph(n, edges, name=f"circulant({n},{sorted(jumps)})")


def triangulated_torus(k: int = 7) -> Graph:
    """k x k toroidal grid with one diagonal per square; 6-regular, locally C6."""
    def vid(i, j):
        return (i % k) * k + (j % k)

    edges = []
    for i in range(k):
        for j in range(k):
            edges.append((vid(i, j), vid(i + 1, j)))
            edges.append((vid(i, j), vid(i, j + 1)))
            edges.append((vid(i, j), vid(i + 1, j + 1)))
    return build_graph(k * k, edges, name=f"torus({k})")


@st.composite
def small_graphs(draw, max_n=8):
    """Any simple graph on 1..max_n vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


def kneser_graph(n: int, k: int) -> Graph:
    """K(n, k): the k-subsets of an n-set, joined when disjoint."""
    subsets = list(itertools.combinations(range(n), k))
    edges = [(i, j) for i, j in itertools.combinations(range(len(subsets)), 2)
             if not set(subsets[i]) & set(subsets[j])]
    return build_graph(len(subsets), edges, name=f"K({n},{k})")


def relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_connected_graph(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [rng.randrange(v)]}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


@functools.lru_cache(maxsize=None)
def _atlas() -> tuple[Graph, ...]:
    import networkx as nx

    return tuple(build_graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()
                 if a.number_of_nodes() and nx.is_connected(a))


def connected_atlas() -> tuple[Graph, ...]:
    """The connected graphs of networkx's atlas, on 1 to 7 vertices (996 of
    them); skips the calling test when networkx is missing."""
    pytest.importorskip("networkx")
    return _atlas()


def _has_5_cycle(adj) -> bool:
    n = len(adj)
    for a in range(n):
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            if len(path) == 5:
                if a in adj[v] and min(path) == a:
                    return True
                continue
            for w in adj[v]:
                if w not in path:
                    stack.append((w, path + (w,)))
    return False


def random_cubic_no_c5(rng: random.Random, n: int, tries: int = 2000) -> Graph:
    """Connected cubic graph with no 5-cycle, by configuration-model retry."""
    assert n % 2 == 0
    for _ in range(tries):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) < 3 * n // 2 or any(a == b for a, b in pairs):
            continue
        g = build_graph(n, sorted(pairs))
        # connectivity probe without importing metrics
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [w for v in frontier for w in g.adj[v] if w not in seen and not seen.add(w)]
        if len(seen) == n:
            if not _has_5_cycle([set(r) for r in g.adj]):
                return g
    raise RuntimeError("no cubic fixture found; widen the retry budget")


@pytest.fixture(scope="session")
def petersen():
    return catalog("petersen")


@pytest.fixture(scope="session")
def heawood():
    return catalog("heawood")


@pytest.fixture(scope="session")
def tutte():
    return catalog("tutte_8_cage")


@pytest.fixture(scope="session")
def icosahedron():
    return catalog("icosahedron")


@pytest.fixture(scope="session")
def k33():
    return catalog("k33")


@pytest.fixture(scope="session")
def k4():
    return catalog("complete(4)")


@pytest.fixture(scope="session")
def k3_parts_of_2():
    return catalog("complete_multipartite(3,2)")


@pytest.fixture(scope="session")
def cube():
    return cube_graph()


@pytest.fixture(scope="session")
def cubic_fixtures():
    """Two seeded connected cubic graphs without 5-cycles."""
    rng = random.Random(20260819)
    a = random_cubic_no_c5(rng, 10)
    b = random_cubic_no_c5(rng, 12)
    return Graph(a.n, a.adj, name="cubic10"), Graph(b.n, b.adj, name="cubic12")
