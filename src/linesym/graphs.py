"""Immutable simple undirected graphs on dense integer vertices.

Vertices are always 0..n-1 and every adjacency row is a strictly sorted
tuple, so a Graph is hashable, deterministic to iterate, and safe to share.
A Graph checks its rows in one pass over the adjacency entries, symmetry
against one set per row.  `build_graph` collapses duplicate edges; a
self-loop is rejected outright.  Facts derived from the
adjacency (the edge list and its ranks, distance rows, the line graph, a
line graph's root, the automorphism search) are cached on first use, so
every caller holding the graph shares them.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from . import refinement

Edge = tuple[int, int]  # (min, max)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; equality and hashing ignore the name."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        rows = list(map(frozenset, self.adj))  # symmetry is one set lookup per entry
        for v, row in enumerate(self.adj):
            prev = -1
            for w in row:
                if not 0 <= w < n:
                    raise ValueError(f"neighbor {w} of vertex {v} out of range")
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if w <= prev:
                    raise ValueError(f"adjacency row of vertex {v} not strictly sorted")
                if v not in rows[w]:
                    raise ValueError(f"edge {v}-{w} is not symmetric")
                prev = w

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as (min, max) pairs in lexicographic order."""
        return tuple((v, w) for v in range(self.n) for w in self.adj[v] if v < w)

    @cached_property
    def m(self) -> int:
        """The edge count, from the row lengths (so `edges` is not built)."""
        return sum(map(len, self.adj)) // 2

    @cached_property
    def edge_rank(self) -> dict[tuple[int, int], int]:
        """Rank of each edge in the order of `edges`, under (u, v) and (v, u) alike."""
        return {k: i for i, (u, v) in enumerate(self.edges) for k in ((u, v), (v, u))}

    @cached_property
    def line(self) -> "Graph":
        """Line graph; vertex i is edge i, adjacent when the edges share an endpoint."""
        if self.m == 0:
            raise ValueError("line graph of an edgeless graph is empty")
        incident: list[list[int]] = [[] for _ in range(self.n)]  # each vertex's edge ranks
        for i, (u, v) in enumerate(self.edges):
            incident[u].append(i)
            incident[v].append(i)
        pairs = [p for ranks in incident for p in itertools.combinations(ranks, 2)]
        return build_graph(self.m, pairs, name=f"L({self.name})" if self.name else None)

    @cached_property
    def root(self) -> "tuple[Graph, tuple[Edge, ...]] | None":
        """(H, ends) with self = L(H) under vertex x -> edge ends[x] of H, for
        a connected line graph; None for any other graph (see `_line_root`).
        Every root is certified; K3's comes back as K3, not K1,3."""
        return _line_root(self)

    @cached_property
    def search(self) -> tuple[list[int], list[tuple[int, ...]], int]:
        """(base, generators, group order) from one automorphism search: the
        group of a graph with no twin and no leaf."""
        return refinement.automorphism_generators(self.adj)

    @cached_property
    def _distance_rows(self) -> list[tuple[int | None, ...] | None]:
        return [None] * self.n

    def distances(self, source: int) -> tuple[int | None, ...]:
        """Distances from source, None marking unreachable vertices.

        Each row comes from one BFS, run the first time the row is asked for
        and kept for the graph's lifetime, so a one-row query never pays for
        the whole table.
        """
        if not 0 <= source < self.n:
            raise ValueError(f"vertex {source} out of range")
        row = self._distance_rows[source]
        if row is None:
            dist: list[int | None] = [None] * self.n
            dist[source] = 0
            q = deque([source])
            while q:
                u = q.popleft()
                for w in self.adj[u]:
                    if dist[w] is None:
                        dist[w] = dist[u] + 1
                        q.append(w)
            row = self._distance_rows[source] = tuple(dist)
        return row

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.m}>"


def build_graph(n: int, edges: Iterable[Iterable[int]], name: str | None = None) -> Graph:
    """Build a Graph from an edge iterable, collapsing duplicates.

    Raises ValueError on endpoints outside 0..n-1 or n < 1, and (from
    `Graph`) on self-loops, naming the lowest looped vertex.
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    seen: set[Edge] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} has an endpoint outside 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(seen):  # each row takes its lower neighbours, then its upper ones
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple(map(tuple, rows)), name)


def _line_root(g: Graph) -> tuple[Graph, tuple[Edge, ...]] | None:
    """Root of a connected line graph by clique propagation (Roussopoulos 1973).

    In L(H) the edges at each vertex u of H form a clique C_u, and a vertex
    x = uv of L(H) lies in exactly two of them, with N[x] = C_u | C_v.  So one
    clique of x gives its other one, and the cliques propagate from the one
    holding an edge {0, y} of g: {0, y} with each common neighbour z whose
    triangle {0, y, z} is odd, some other vertex seeing one or all three of
    its corners.  Three edges at one root vertex give an odd triangle unless
    the root has at most 4 vertices, and three edges of a root triangle never
    do (van Rooij & Wilf 1965).  On at most 6 vertices, where the root may
    have 4, every clique the edge can lie in is tried.  A candidate counts
    only once L(H), rebuilt under the bijection, equals g.
    """
    adj = g.adj
    if g.n == 1:
        return build_graph(2, [(0, 1)]), ((0, 1),)
    if not adj[0]:
        return None
    y = adj[0][0]
    common = sorted(set(adj[0]).intersection(adj[y]))
    starts = [[0, y, *(z for z in common if _odd_triangle(adj, (0, y, z)))]]
    if g.n <= 6:
        starts += [[0, y, *(w for w in common if w != z)] for z in [None, *common]]
    for start in starts:
        found = _propagate_cliques(adj, start)
        if found is not None:
            return found
    return None


def _odd_triangle(adj, t) -> bool:
    # each corner of the triangle t lies on the other two rows: count 2, neither 1 nor 3
    seen = Counter(itertools.chain.from_iterable(map(adj.__getitem__, t)))
    return 1 in seen.values() or 3 in seen.values()


def _propagate_cliques(adj, start) -> tuple[Graph, tuple[Edge, ...]] | None:
    """The root whose first vertex's edges are start, certified, or None."""
    cliques, at = [start], [[] for _ in adj]  # at[x]: the cliques holding x
    for x in start:
        at[x].append(0)
    for clique in cliques:
        members = set(clique)
        for y in clique:
            if len(at[y]) == 1:
                other = [y, *set(adj[y]).difference(members)]
                if len(clique) + len(other) != len(adj[y]) + 2:
                    return None  # y is not adjacent to all of its first clique
                for w in other:
                    at[w].append(len(cliques))
                    if len(at[w]) > 2:
                        return None
                cliques.append(other)
    # L(H) = g under the bijection iff each N[x] is its two cliques, meeting in x alone
    ends = tuple(map(tuple, at))
    for x, (row, pair) in enumerate(zip(adj, ends)):
        if len(pair) != 2 or sorted(cliques[pair[0]] + cliques[pair[1]]) != sorted((x, x, *row)):
            return None
    return build_graph(len(cliques), ends), ends


def is_regular(g: Graph) -> int | None:
    """The common valency, or None when degrees differ."""
    degs = {len(row) for row in g.adj}
    return degs.pop() if len(degs) == 1 else None


def is_complete(g: Graph) -> bool:
    """True iff every pair of distinct vertices is adjacent."""
    return all(len(row) == g.n - 1 for row in g.adj)


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are g's non-edges."""
    closed = [{v, *row} for v, row in enumerate(g.adj)]
    return Graph(g.n, tuple(tuple(w for w in range(g.n) if w not in c) for c in closed))


def isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """A vertex bijection phi carrying E(g1) onto E(g2), or None: {u, v} is
    an edge of g1 iff {phi[u], phi[v]} is one of g2.  Decided on the disjoint
    union g1 + g2, g2 shifted by g1's order, with no canonical form.  For a
    connected g1 they are isomorphic iff an automorphism of the union carries
    vertex 0 into g2, and then a generator does, since generators that keep
    g1's component generate a group that keeps it; phi is that generator on g1.
    A disconnected g1, and g2, are joined to a new vertex n, the joins' only vertex of degree n."""
    n = g1.n
    if n != g2.n or g1.m != g2.m or sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return None
    if None in g1.distances(0):  # disconnected, so no vertex has degree n - 1
        g1, g2 = (Graph(n + 1, (*(row + (n,) for row in h.adj), tuple(range(n)))) for h in (g1, g2))
    union = g1.adj + tuple(tuple(w + g1.n for w in row) for row in g2.adj)
    for p in refinement.automorphism_generators(union)[1]:
        if p[0] >= g1.n:
            return tuple(w - g1.n for w in p[:n])
    return None
