"""Immutable simple undirected graphs on dense integer vertices.

Vertices are always 0..n-1 and every adjacency row is a strictly sorted
tuple, so a Graph is hashable, deterministic to iterate, and safe to share.
Anything that looks like a multigraph (duplicate edges) is collapsed at
construction; self-loops are rejected outright.  Facts derived from the
adjacency (the edge list and its ranks, distance rows, the line graph, the
automorphism search) are cached on first use, so every caller holding the
graph shares them.
"""

from __future__ import annotations

import itertools
from collections import deque
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
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            prev = -1
            for w in row:
                if not 0 <= w < self.n:
                    raise ValueError(f"neighbor {w} of vertex {v} out of range")
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if w <= prev:
                    raise ValueError(f"adjacency row of vertex {v} not strictly sorted")
                prev = w
        for v, row in enumerate(self.adj):
            for w in row:
                if v not in self.adj[w]:
                    raise ValueError(f"edge {v}-{w} is not symmetric")

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as (min, max) pairs in lexicographic order."""
        return tuple((v, w) for v in range(self.n) for w in self.adj[v] if v < w)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_rank(self) -> dict[Edge, int]:
        """Rank of each edge in the lexicographic order of `edges`."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def line(self) -> "Graph":
        """Line graph; vertex i is edge i, adjacent when the edges share an endpoint."""
        if self.m == 0:
            raise ValueError("line graph of an edgeless graph is empty")
        rank = self.edge_rank
        pairs = []
        for v, row in enumerate(self.adj):
            incident = [rank[(v, w) if v < w else (w, v)] for w in row]
            pairs.extend(itertools.combinations(incident, 2))
        return build_graph(self.m, pairs, name=f"L({self.name})" if self.name else None)

    @cached_property
    def search(self) -> tuple[list[int], list[tuple[int, ...]], tuple[int, ...], int]:
        """(base, generators, canonical vertex order, group order) from one
        automorphism search, shared by the group and by isomorphism tests."""
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

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.m}>"


def build_graph(n: int, edges: Iterable[Iterable[int]], name: str | None = None) -> Graph:
    """Build a Graph from an edge iterable, collapsing duplicates.

    Raises ValueError on self-loops, endpoints outside 0..n-1, or n < 1.
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    seen: set[Edge] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(seen):
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple(tuple(sorted(r)) for r in rows), name)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled 0..k-1 in sorted order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError("induced subgraph vertex out of range")
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return build_graph(len(vs), edges)


def is_regular(g: Graph) -> int | None:
    """The common valency, or None when degrees differ."""
    degs = {len(row) for row in g.adj}
    return degs.pop() if len(degs) == 1 else None


def is_complete(g: Graph) -> bool:
    """True iff every pair of distinct vertices is adjacent."""
    return all(len(row) == g.n - 1 for row in g.adj)


def isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """A vertex bijection carrying E(g1) onto E(g2), or None.

    The mapping phi satisfies: {u, v} is an edge of g1 iff {phi[u], phi[v]}
    is an edge of g2.  The automorphism search gives each graph a canonical
    vertex order; the graphs are isomorphic iff their certificates (the
    adjacency relabelled by that order) are equal, and phi then sends one
    order onto the other.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(map(len, g1.adj)) != sorted(map(len, g2.adj)):
        return None
    order1, order2 = g1.search[2], g2.search[2]
    if refinement.certificate(g1.adj, order1) != refinement.certificate(g2.adj, order2):
        return None
    return tuple(w for _, w in sorted(zip(order1, order2)))
