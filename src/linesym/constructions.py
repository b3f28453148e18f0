"""Derived graphs (line, subdivision, clique) and a small catalog of named
graphs.  A line graph's root is `Graph.root`.

Edge numbering is the load-bearing convention here, and the host `Graph`
owns it: `Graph.edges` ranks the edges lexicographically by (min, max)
endpoint pair, and that rank ties a derived vertex back to a host edge.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .graphs import Edge, Graph, build_graph


@dataclass(frozen=True)
class EdgeIndex:
    """A host graph with its `Graph.edges`: the argument of
    `symmetry.induced_edge_action`, which sends edge {u, v} to the rank
    `host.edge_rank[p(u), p(v)]`.  Everything else reads the host's own
    `edges` and `edge_rank`."""

    host: Graph
    edges: tuple[Edge, ...]

    @staticmethod
    def from_graph(g: Graph) -> "EdgeIndex":
        return EdgeIndex(g, g.edges)

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class DerivedGraph:
    """A constructed graph and its kind: "line", "subdivision" or "clique".
    Vertex i of a line graph, and vertex n + i of a subdivision, is the
    host's edge `edges[i]`."""

    graph: Graph
    kind: str


def _derived_name(g: Graph, prefix: str) -> str | None:
    return f"{prefix}({g.name})" if g.name else None


def line_graph(g: Graph) -> DerivedGraph:
    """Line graph: one vertex per host edge, adjacent iff the edges share an endpoint.

    Requires at least one edge, since the empty graph is not representable.
    """
    return DerivedGraph(g.line, "line")


def subdivision_graph(g: Graph) -> DerivedGraph:
    """Subdivision: one new vertex in the middle of every host edge.

    Host vertex v keeps id v; edge of rank i becomes vertex n + i.  The
    result is bipartite between the "vertex" and "edge" classes.
    """
    if g.m == 0:
        raise ValueError("subdividing an edgeless graph changes nothing")
    edges = [(w, g.n + i) for i, e in enumerate(g.edges) for w in e]
    sg = build_graph(g.n + g.m, edges, name=_derived_name(g, "S"))
    return DerivedGraph(sg, "subdivision")


def _maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting.

    Branches wait on an explicit stack of (R, P, X) sets, so clique size is
    not limited by the recursion limit.
    """
    out: list[tuple[int, ...]] = []
    nbr = [set(row) for row in g.adj]
    stack = [(set(), set(range(g.n)), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(tuple(sorted(r)))
            continue
        pivot = max(p | x, key=lambda u: len(nbr[u] & p))
        for v in sorted(p - nbr[pivot]):
            stack.append((r | {v}, p & nbr[v], x & nbr[v]))
            p = p - {v}
            x = x | {v}
    return sorted(out)


def clique_graph(g: Graph) -> DerivedGraph:
    """Maximum-clique graph: vertices are the largest cliques, adjacent iff they meet.

    On an edgeless graph the maximum cliques are the single vertices, so the
    result is an edgeless copy of the host.
    """
    cliques = _maximal_cliques(g)
    top = max(len(c) for c in cliques)
    best = [c for c in cliques if len(c) == top]
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(best)), 2)
        if set(best[i]) & set(best[j])
    ]
    cg = build_graph(len(best), pairs, name=_derived_name(g, "C"))
    return DerivedGraph(cg, "clique")


# --- catalog ---------------------------------------------------------------


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    return build_graph(n, itertools.combinations(range(n), 2), name=f"complete({n})")


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle({n})")


def _path(r: int) -> Graph:
    # path(r) is the path of length r: r edges on r + 1 vertices.
    if r < 1:
        raise ValueError("path(r) needs r >= 1")
    return build_graph(r + 1, [(i, i + 1) for i in range(r)], name=f"path({r})")


def _complete_multipartite(m: int, b: int) -> Graph:
    """m parts of b vertices each; part i holds vertices i*b .. i*b+b-1."""
    if m < 2 or b < 1:
        raise ValueError("complete_multipartite(m, b) needs m >= 2, b >= 1")
    n = m * b
    part = lambda v: v // b
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part(u) != part(v)]
    return build_graph(n, edges, name=f"complete_multipartite({m},{b})")


def _petersen() -> Graph:
    """Vertices are the 2-subsets of {0..4} in lex order; adjacency is disjointness."""
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return build_graph(10, edges, name="petersen")


def _heawood() -> Graph:
    """Point-line incidence graph of the seven-point projective plane.

    Points are 0..6; line i is {i, i+1, i+3} mod 7 (a perfect difference
    set), stored as vertex 7 + i.
    """
    edges = [(p, 7 + i) for i in range(7) for p in (i, (i + 1) % 7, (i + 3) % 7)]
    return build_graph(14, edges, name="heawood")


def _tutte_8_cage() -> Graph:
    """Incidence graph of the generalized quadrangle of order 2.

    Points are the 15 2-subsets of {0..5} (lex order, ids 0..14); lines are
    the 15 perfect matchings of those six symbols into three pairs (lex
    order, ids 15..29); a point lies on a line when its pair is one of the
    matching's three.
    """
    duads = list(itertools.combinations(range(6), 2))
    matchings = [m for m in itertools.combinations(duads, 3) if len(set(itertools.chain(*m))) == 6]
    edges = [(duads.index(pair), 15 + j) for j, lines in enumerate(matchings) for pair in lines]
    return build_graph(30, edges, name="tutte_8_cage")


_ICOSAHEDRON_ADJ = {
    0: (1, 5, 7, 8, 11),
    1: (2, 5, 6, 8),
    2: (3, 6, 8, 9),
    3: (4, 6, 9, 10),
    4: (5, 6, 10, 11),
    5: (6, 11),
    7: (8, 9, 10, 11),
    8: (9,),
    9: (10,),
    10: (11,),
}


def _icosahedron() -> Graph:
    """1-skeleton of the regular icosahedron: 12 vertices, 30 edges, 5-regular."""
    edges = [(u, v) for u, row in _ICOSAHEDRON_ADJ.items() for v in row]
    return build_graph(12, edges, name="icosahedron")


def _k33() -> Graph:
    """Complete bipartite graph on parts {0,1,2} and {3,4,5}."""
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)], name="k33")


def _projective_plane(p: int) -> Graph:
    """Point-line incidence graph of PG(2, p), p prime: the normalised nonzero
    vectors of GF(p)^3 are the points and also the lines, incident when their
    dot product is 0 mod p.  Points are 0..q-1 and lines q..2q-1."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("projective_plane(p) needs a prime p")
    vecs = [(1, a, b) for a in range(p) for b in range(p)] + [(0, 1, b) for b in range(p)]
    vecs.append((0, 0, 1))
    q = len(vecs)
    edges = [(i, q + j) for i, x in enumerate(vecs) for j, y in enumerate(vecs)
             if sum(a * b for a, b in zip(x, y)) % p == 0]
    return build_graph(2 * q, edges, name=f"projective_plane({p})")


# The one catalog registry: kind -> (builder, listing, description).  A
# listing's parenthesised names are the builder's positional parameters.
CATALOG = {
    "complete": (_complete, "complete(n)", "complete graph on n vertices"),
    "cycle": (_cycle, "cycle(n)", "cycle on n >= 3 vertices"),
    "path": (_path, "path(r)", "path of length r (r edges, r+1 vertices)"),
    "complete_multipartite": (_complete_multipartite, "complete_multipartite(m,b)",
                              "m parts of b vertices, all cross edges"),
    "petersen": (_petersen, "petersen", "2-subsets of a 5-set, adjacent when disjoint"),
    "heawood": (_heawood, "heawood", "point-line incidence of the 7-point plane"),
    "tutte_8_cage": (_tutte_8_cage, "tutte_8_cage",
                     "incidence graph of the order-2 generalized quadrangle"),
    "icosahedron": (_icosahedron, "icosahedron", "1-skeleton of the regular icosahedron"),
    "k33": (_k33, "k33", "complete bipartite 3+3"),
    "projective_plane": (_projective_plane, "projective_plane(p)",
                         "point-line incidence of PG(2,p), p prime"),
}

_NAME = re.compile(r"(\w+)(?:\((\d+(?:,\d+)*)\))?")


def catalog(name: str) -> Graph:
    """Named graph by catalog string, e.g. "petersen" or "complete_multipartite(3,2)"."""
    m = _NAME.fullmatch("".join(name.lower().split()))
    if m is None or m[1] not in CATALOG:
        raise ValueError(f"unknown catalog name {name!r}")
    build, listing, _ = CATALOG[m[1]]
    args = [int(a) for a in m[2].split(",")] if m[2] else []
    arity = listing.count(",") + 1 if "(" in listing else 0
    if len(args) != arity:
        raise ValueError(f"{listing} takes {arity} parameter{'' if arity == 1 else 's'}, "
                         f"got {len(args)}")
    return build(*args)


def catalog_entries() -> list[tuple[str, str]]:
    """(name, short description) pairs for the CLI listing."""
    return [(listing, desc) for _, listing, desc in CATALOG.values()]
