"""Arc and geodesic enumeration, and the map sending an arc to its edge sequence.

An s-arc is a walk (v0, ..., vs) whose consecutive vertices are adjacent and
which never immediately backtracks; an s-geodesic additionally has its
endpoints at distance exactly s.  Tuples of vertex ids represent both; a
"line tuple" is the corresponding tuple of the host's `Graph.edge_rank` ranks.
Everything enumerates in lexicographic order so downstream reports are
reproducible.

Both enumerators build only the tuples they return.  A depth-first search
with an explicit stack grows one mutable prefix of length s-3 from each start
vertex, walking a degree-2 run in one loop, so a long thin walk costs linear
time at any s.  Arcs with s >= 5 append, to each prefix, the 3-step
continuations of its last arc, from a table built once per call and shared by
every prefix that ends in that arc; shorter arcs, and geodesics after their
prefix, come from one fused comprehension over the last three levels or fewer.
An enumerator raises EnumerationCapExceeded, before building any tuple,
exactly when its tuples would hold more than ENUMERATION_CAP entries (read at
call time), s + 1 per tuple, so memory is bounded however long the walks;
n * D * (D-1)^(s-1), D the largest valency, bounds the s-arcs and so the
s-geodesics, and the exact count runs only when that bound is over.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence

from .graphs import Graph
from .metrics import diameter

ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """Raised when an enumeration would hold more tuple entries than allowed."""


@lru_cache(maxsize=256)
def count_arcs(g: Graph, s: int) -> int:
    """Number of s-arcs, without building any.

    x_t, the t-arcs from each vertex, follows the non-backtracking walk
    recurrence x_2 = A x_1 - D x_0 and x_{t+1} = A x_t - (D - I) x_{t-1}
    (A adjacency, D valencies), so the count costs O(s m); it stops early
    once x repeats, as on cycles.
    """
    if s < 1:
        raise ValueError("arcs need length at least 1")
    deg = [len(row) for row in g.adj]
    before, now = [1] * g.n, deg
    for t in range(1, s):
        after = [sum(now[w] for w in row) - (d - (t > 1)) * b
                 for row, d, b in zip(g.adj, deg, before)]
        if t > 1 and after == now == before:
            break
        before, now = now, after
    return sum(now)


@lru_cache(maxsize=256)
def count_geodesics(g: Graph, s: int) -> int:
    """Number of s-geodesics, without building any: the shortest paths from
    each source to the vertices at distance s, counted layer by layer over
    the cached distance rows."""
    if s < 1:
        raise ValueError("geodesics need length at least 1")
    total = 0
    for v in range(g.n):
        dist = g.distances(v)
        paths = {v: 1}
        for k in range(1, s + 1):
            nxt: dict[int, int] = {}
            for x, c in paths.items():
                for y in g.adj[x]:
                    if dist[y] == k:
                        nxt[y] = nxt.get(y, 0) + c
            paths = nxt
        total += sum(paths.values())
    return total


def _prefixes(g: Graph, v: int, depth: int, dist):
    """v's arcs (dist None) or geodesics (dist: v's distance row) of length depth, in order."""
    adj, path = g.adj, [v]
    stack = [(1, x) for x in reversed(adj[v])]
    while stack:
        k, w = stack.pop()
        del path[k:]
        path.append(w)
        while dist is None and k < depth and len(adj[w]) == 2:  # a degree-2 run has one way on
            a, b = adj[w]
            w = b if a == path[-2] else a
            path.append(w)
            k += 1
        if k == depth:
            yield tuple(path)
        elif dist is None:
            stack.extend([(k + 1, x) for x in reversed(adj[w]) if x != path[-2]])
        else:
            stack.extend([(k + 1, x) for x in reversed(adj[w]) if dist[x] == k + 1])


def _enumerate(g: Graph, s: int, geodesic: bool) -> list[tuple[int, ...]]:
    if s < 1:
        raise ValueError("arcs need length at least 1")
    adj, d = g.adj, max(map(len, g.adj))
    if (s + 1) * g.n * d * (d - 1) ** (s - 1) > ENUMERATION_CAP and (
            (s + 1) * (count_geodesics if geodesic else count_arcs)(g, s) > ENUMERATION_CAP):
        raise EnumerationCapExceeded(f"enumeration cap reached: more than {ENUMERATION_CAP} "
                                     f"entries in {'geodesics' if geodesic else 'arcs'} of length {s}")
    vs = range(g.n)
    if s == 1:
        return [(v, w) for v in vs for w in adj[v]]
    if geodesic:
        if s == 2:
            return [(v, w, x) for v in vs for dist in (g.distances(v),) for w in adj[v]
                    for x in adj[w] if dist[x] == 2]
        a, b = s - 2, s - 1
        return [p + (x, y, z) for v in vs for dist in (g.distances(v),)
                for p in ([(v,)] if s == 3 else _prefixes(g, v, s - 3, dist))
                for x in adj[p[-1]] if dist[x] == a for y in adj[x] if dist[y] == b
                for z in adj[y] if dist[z] == s]
    if s == 2:
        return [(v, w, x) for v in vs for w in adj[v] for x in adj[w] if x != v]
    if s == 3:
        return [(v, w, x, y) for v in vs for w in adj[v] for x in adj[w] if x != v
                for y in adj[x] if y != w]
    if s == 4:
        return [(v, w, x, y, z) for v in vs for w in adj[v] for x in adj[w] if x != v
                for y in adj[x] if y != w for z in adj[y] if z != x]
    # every prefix that ends in the arc (u, w) shares its 3-step continuations
    tails = {(u, w): [(x, y, z) for x in adj[w] if x != u for y in adj[x] if y != w
                      for z in adj[y] if z != x] for u in vs for w in adj[u]}
    return [p + t for v in vs for p in _prefixes(g, v, s - 3, None) for t in tails[p[-2:]]]


def first_tuple(g: Graph, s: int, geodesic: bool) -> tuple[int, ...] | None:
    """The lexicographically first s-arc (or s-geodesic) of g, or None; the search stops there."""
    if s < 1:
        raise ValueError("arcs need length at least 1")
    return next((r for v in range(g.n)
                 for r in _prefixes(g, v, s, g.distances(v) if geodesic else None)), None)


def enumerate_arcs(g: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-arcs in lexicographic order, within the cap."""
    return _enumerate(g, s, False)


def enumerate_geodesics(g: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-geodesics in lexicographic order, within the cap; s must not
    exceed the diameter."""
    d = diameter(g)
    if d is None:
        raise ValueError("geodesics are only defined on connected graphs")
    if not 1 <= s <= d:
        raise ValueError(f"s={s} outside 1..diameter={d}")
    return _enumerate(g, s, True)


def edge_sequences(g: Graph, arcs: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Edge-rank sequences of equal-length s-arcs (s >= 2), built column by
    column: two vertex columns give a rank column, and two equal consecutive
    rank columns mark a backtrack.  Raises ValueError on mixed lengths, on
    arcs shorter than 3 entries, and on a non-edge or a backtrack, naming
    the offending arc."""
    if not arcs:
        return []
    if len(set(map(len, arcs))) > 1:
        raise ValueError("the edge-sequence map needs arcs of one length")
    if len(arcs[0]) < 3:
        raise ValueError("the edge-sequence map needs an arc of length >= 2")
    rank = g.edge_rank
    cols = list(zip(*arcs))
    ranks = []
    for a, b in zip(cols, cols[1:]):
        try:
            ranks.append(list(map(rank.__getitem__, zip(a, b))))
        except KeyError:
            i = next(i for i, e in enumerate(zip(a, b)) if e not in rank)
            raise ValueError(f"{a[i]}-{b[i]} is not an edge of the host, in {arcs[i]}") from None
    for r, q in zip(ranks, ranks[1:]):
        backtracks = list(map(operator.eq, r, q))
        if any(backtracks):
            raise ValueError(f"{arcs[backtracks.index(True)]} is not an arc of the host")
    return list(zip(*ranks))
