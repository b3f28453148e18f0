"""Distance metrics and neighborhood classification.

Disconnected graphs have no diameter and forests have no girth; both cases
come back as None rather than an exception, so callers can gate on
connectivity.  Every distance is read from the graph's memoised rows
(Graph.distances), and diameter and girth are memoised per graph too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, induced_subgraph, is_regular


def is_connected(g: Graph) -> bool:
    return None not in g.distances(0)


@lru_cache(maxsize=256)
def diameter(g: Graph) -> int | None:
    """Largest pairwise distance, or None for a disconnected graph."""
    if not is_connected(g):
        return None
    return max(max(g.distances(v)) for v in range(g.n))


@lru_cache(maxsize=256)
def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None when the graph has no cycle.

    Read off each root's distance row: a vertex w with two neighbours one
    level closer to the root closes a walk of length 2*d(w), and a neighbour
    on w's own level one of length 2*d(w) + 1.  Either walk contains a cycle,
    and for a root on a shortest cycle the vertex opposite it attains the
    bound.
    """
    best: int | None = None
    for r in range(g.n):
        dist = g.distances(r)
        for w, d in enumerate(dist):
            if d is None:
                continue
            levels = [dist[u] for u in g.adj[w]]
            if levels.count(d - 1) > 1:
                cand = 2 * d
            elif d in levels:
                cand = 2 * d + 1
            else:
                continue
            if best is None or cand < best:
                best = cand
    return best


@dataclass(frozen=True)
class LocalType:
    """Shape of a neighborhood graph.

    kind is "cycle" (params (n,)), "disjoint_cliques" (params (m, r) for m
    components of r vertices each), or "other" (params ()).
    """

    kind: str
    params: tuple[int, ...]


def _classify_local(local: Graph) -> LocalType:
    # Disjoint unions of equal cliques take precedence, so a triangle
    # neighborhood reads as one K3 rather than as a 3-cycle.
    comp_sizes = []
    seen = [False] * local.n
    all_cliques = True
    for v in range(local.n):
        if seen[v]:
            continue
        comp = [v]
        seen[v] = True
        stack = [v]
        while stack:
            u = stack.pop()
            for w in local.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comp_sizes.append(len(comp))
        if any(len(local.adj[u]) != len(comp) - 1 for u in comp):
            all_cliques = False
    if all_cliques and len(set(comp_sizes)) == 1:
        return LocalType("disjoint_cliques", (len(comp_sizes), comp_sizes[0]))
    if (
        local.n >= 3
        and len(comp_sizes) == 1
        and all(len(row) == 2 for row in local.adj)
    ):
        return LocalType("cycle", (local.n,))
    return LocalType("other", ())


def local_type(g: Graph) -> LocalType | None:
    """The shape shared by every vertex's neighborhood, or None.

    None comes back at once on a non-regular graph, even if the shapes
    would coincide, and otherwise when two neighborhoods differ.  Isolated
    vertices have empty neighborhoods, classified "other".
    """
    k = is_regular(g)
    if k is None:
        return None
    if k == 0:
        return LocalType("other", ())
    shapes = {_classify_local(induced_subgraph(g, row)) for row in g.adj}
    return shapes.pop() if len(shapes) == 1 else None
