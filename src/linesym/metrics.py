"""Distance metrics and neighborhood classification.

Disconnected graphs have no diameter and forests have no girth; both cases
come back as None rather than an exception, so callers can gate on
connectivity.  Every distance is read from the graph's memoised rows
(Graph.distances), and diameter and girth are memoised per graph too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, is_regular


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
    bound.  A triangle ends the scan: no simple graph has a shorter cycle.
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
        if best == 3:
            break
    return best


@dataclass(frozen=True)
class LocalType:
    """Shape of a neighborhood graph.

    kind is "cycle" (params (n,)), "disjoint_cliques" (params (m, r) for m
    components of r vertices each), or "other" (params ()).
    """

    kind: str
    params: tuple[int, ...]


def _neighborhood_type(g: Graph, v: int) -> LocalType:
    """Shape of the graph induced on v's neighbors, read off the rows of g."""
    nbhd = set(g.adj[v])
    degrees = {len(nbhd.intersection(g.adj[u])) for u in nbhd}
    if len(degrees) != 1:
        return LocalType("other", ())
    (d,) = degrees
    comps, unseen = 0, set(nbhd)
    while unseen:
        comps += 1
        stack = [unseen.pop()]
        while stack:
            reached = unseen.intersection(g.adj[stack.pop()])
            unseen -= reached
            stack.extend(reached)
    # A component of a d-regular graph has d + 1 or more vertices, and d + 1
    # exactly when it is a clique.  Cliques take precedence, so a triangle
    # neighborhood reads as one K3 rather than as a 3-cycle.
    if comps * (d + 1) == len(nbhd):
        return LocalType("disjoint_cliques", (comps, d + 1))
    if d == 2 and comps == 1:
        return LocalType("cycle", (len(nbhd),))
    return LocalType("other", ())


def local_type(g: Graph) -> LocalType | None:
    """The shape shared by every vertex's neighborhood, or None.

    None comes back at once on a non-regular graph, even if the shapes
    would coincide, and otherwise when two neighborhoods differ.  Isolated
    vertices have empty neighborhoods, classified "other".
    """
    if is_regular(g) is None:
        return None
    shapes = {_neighborhood_type(g, v) for v in range(g.n)}
    return shapes.pop() if len(shapes) == 1 else None


def octahedral_form(g: Graph) -> bool:
    """Whether g is K_{3[2]}: the 4-regular graphs on 6 vertices are, their
    complements being perfect matchings, and so are connected locally C4 ones."""
    return g.n == 6 and is_regular(g) == 4


def icosahedral_form(g: Graph) -> bool:
    """Whether g is the icosahedron, the one locally C5 graph on 12 vertices.
    A connected locally C5 graph triangulates a closed surface of Euler
    characteristic n/6, so n is 12 (n = 6 would be K6, locally K5)."""
    return g.n == 12 and local_type(g) == LocalType("cycle", (5,))
