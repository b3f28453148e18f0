"""Independent brute-force reference implementations for cross-checking.

Nothing here imports the package's algorithm code except the Graph container
itself.  Each oracle deliberately uses a different algorithm from the one
shipped in src/ so that agreement actually means something: Floyd-Warshall
instead of BFS, edge-deletion girth instead of BFS-tree girth, itertools
filtering instead of recursive DFS, and a flat backtracking search instead of
partition refinement.
"""

from __future__ import annotations

import itertools
import math

from linesym.graphs import Graph


def floyd_warshall(g: Graph) -> list[list[float]]:
    inf = float("inf")
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def diameter_oracle(g: Graph):
    dist = floyd_warshall(g)
    worst = max(max(row) for row in dist)
    return None if worst == float("inf") else int(worst)


def girth_oracle(g: Graph):
    """Shortest cycle via edge deletion: for each edge uv, the shortest cycle
    through uv has length 1 + d_{G-uv}(u, v)."""
    best = None
    for u, v in g.edges:
        adj = [set(row) for row in g.adj]
        adj[u].discard(v)
        adj[v].discard(u)
        # plain BFS on the punctured graph
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist:
            cand = dist[v] + 1
            if best is None or cand < best:
                best = cand
    return best


def _walks(g: Graph, s: int):
    """Every walk of length s, by filtering the product of neighbour choices:
    the i-th choice names a position in the adjacency row of the walk's
    i-th vertex, and a choice past the row's end drops the whole product.

    Exponential; keep the callers on thin or tiny graphs.
    """
    width = max(map(len, g.adj))
    for v in range(g.n):
        for choice in itertools.product(range(width), repeat=s):
            walk = [v]
            for i in choice:
                row = g.adj[walk[-1]]
                if i >= len(row):
                    break
                walk.append(row[i])
            else:
                yield tuple(walk)


def all_arcs(g: Graph, s: int) -> set[tuple[int, ...]]:
    """Every s-arc: the walks of length s with no immediate backtracking."""
    return {w for w in _walks(g, s) if all(w[i - 1] != w[i + 1] for i in range(1, s))}


def all_geodesics(g: Graph, s: int) -> set[tuple[int, ...]]:
    """Every s-geodesic: the walks of length s whose ends are s apart by Floyd-Warshall."""
    dist = floyd_warshall(g)
    return {w for w in _walks(g, s) if dist[w[0]][w[-1]] == s}


def automorphism_count_filter(g: Graph) -> int:
    """Count automorphisms by testing every permutation.  n <= 8 or so."""
    edges = {frozenset(e) for e in g.edges}
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in edges for u, v in edges) and len(
            {frozenset((perm[u], perm[v])) for u, v in edges}
        ) == len(edges):
            count += 1
    return count


def automorphism_count_backtrack(g: Graph) -> int:
    """Count automorphisms by assigning images in BFS order.

    The partial map must preserve adjacency and non-adjacency against every
    already-assigned vertex, which keeps the tree narrow even at 30 vertices.
    No partition refinement, no group theory; this is the slow honest version.
    """
    n = g.n
    if n == 0:
        return 1
    adj = [set(row) for row in g.adj]
    deg = [len(a) for a in adj]

    # BFS order from a max-degree vertex; append any stragglers (disconnected)
    start = max(range(n), key=lambda v: deg[v])
    order = [start]
    seen = {start}
    parent: dict[int, int] = {}
    i = 0
    while i < len(order):
        for w in sorted(adj[order[i]]):
            if w not in seen:
                seen.add(w)
                parent[w] = order[i]
                order.append(w)
        i += 1
    for v in range(n):
        if v not in seen:
            order.append(v)
            seen.add(v)

    image = [-1] * n
    used = [False] * n
    count = 0

    def place(k: int):
        nonlocal count
        if k == len(order):
            count += 1
            return
        v = order[k]
        assigned = order[:k]
        # a vertex's image must be adjacent to its BFS parent's image
        candidates = adj[image[parent[v]]] if v in parent else range(n)
        for cand in candidates:
            if used[cand] or deg[cand] != deg[v]:
                continue
            ok = True
            for w in assigned:
                if (w in adj[v]) != (image[w] in adj[cand]):
                    ok = False
                    break
            if ok:
                image[v] = cand
                used[cand] = True
                place(k + 1)
                used[cand] = False
                image[v] = -1

    place(0)
    return count


def tree_automorphism_count(g: Graph) -> int:
    """|Aut(T)| of a tree from AHU canonical forms (Aho, Hopcroft & Ullman,
    1974), with no search and no group.  Rooted at its centre, a vertex's
    count is m! |Aut(c)|^m over each class of m children c with equal forms;
    a bicentre multiplies its two halves' counts, and doubles that when the
    halves' forms are equal."""
    if g.n <= 1:
        return 1
    degree = [len(row) for row in g.adj]
    centre, left = [v for v in range(g.n) if degree[v] == 1], g.n
    while left > 2:  # strip the leaves until one or two vertices are left
        left -= len(centre)
        stripped, centre = centre, []
        for v in stripped:
            for w in g.adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    centre.append(w)

    def rooted(root, parent):
        """(form, count) of root's side of the tree, away from parent."""
        order, up = [root], {root: parent}
        for v in order:
            for w in g.adj[v]:
                if w != up[v]:
                    up[w] = v
                    order.append(w)
        form, count = {}, {}
        for v in reversed(order):
            kids = sorted((form[w], count[w]) for w in g.adj[v] if w != up[v])
            form[v], count[v] = "(" + "".join(f for f, _ in kids) + ")", 1
            for (_, c), same in itertools.groupby(kids):  # equal forms have equal counts
                m = len(list(same))
                count[v] *= math.factorial(m) * c**m
        return form[root], count[root]

    if len(centre) == 1:
        return rooted(centre[0], None)[1]
    (fu, cu), (fv, cv) = rooted(centre[0], centre[1]), rooted(centre[1], centre[0])
    return cu * cv * (2 if fu == fv else 1)


def encode_graph6_reference(g: Graph) -> bytes:
    """Second graph6 encoder, written round the bit-string rather than ints."""
    if g.n <= 62:
        head = [g.n + 63]
    elif g.n <= 258047:
        head = [126, (g.n >> 12) + 63, ((g.n >> 6) & 63) + 63, (g.n & 63) + 63]
    else:
        raise ValueError("out of range")
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append("1" if col in g.adj[row] else "0")
    text = "".join(bits)
    text += "0" * (-len(text) % 6)
    body = [int(text[i : i + 6], 2) + 63 for i in range(0, len(text), 6)] if text else []
    return bytes(head + body)


def maximal_cliques_reference(g: Graph) -> set[frozenset[int]]:
    """All maximal cliques by subset enumeration.  n <= 14 or so."""
    adj = [set(row) for row in g.adj]
    cliques = []
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    out = set()
    for c in cliques:
        if not any(c < other for other in cliques):
            out.add(frozenset(c))
    return out


def equitable_cells(adj, colors) -> set[frozenset[int]]:
    """Cells of the coarsest equitable refinement of a coloring.

    Whole-graph re-signature: each pass recolors every vertex by its color
    and the multiset of its neighbors' colors, until no class splits.
    Quadratic on long paths and cycles, but with no splitter bookkeeping.
    """
    n = len(adj)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(rank) == len(set(colors)):
            break
        colors = [rank[sig] for sig in sigs]
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(c) for c in cells.values()}


def individualize(colors: list[int], v: int) -> list[int]:
    """Give v its own cell: v keeps its color cv and the rest of its cell
    moves to cv + 1, the start of that remainder."""
    cv = colors[v]
    return [c + 1 if c == cv and w != v else c for w, c in enumerate(colors)]


def batch_base(gens, n: int, prefix=()):
    """(base, inputs per level) of a chain on gens before any Schreier
    generator, straight from the batch rule: past the prefix, the next base
    point is the first point moved by the first input fixing every base point
    so far, and level i holds the inputs, identities left out, fixing
    base[:i], shallowest first: by the first prefix point they move, ties in
    input order."""
    inputs = [tuple(p) for p in gens if any(v != i for i, v in enumerate(p))]
    inputs.sort(key=lambda p: next((i for i, b in enumerate(prefix) if p[b] != b), len(prefix)))
    base = list(prefix)
    while fixing := [p for p in inputs if all(p[b] == b for b in base)]:
        base.append(min(v for v in range(n) if fixing[0][v] != v))
    return base, [[p for p in inputs if all(p[b] == b for b in base[:i])]
                  for i in range(len(base))]


def orbit_partition(universe, gens) -> tuple[int, ...]:
    """Orbit ids of a tuple universe under permutations given as image tuples.

    A union-find over the universe's closure under the generators, joining
    each tuple with each of its images; no stabilizer, no fibre.  Ids number
    the classes by first appearance in the universe.
    """
    closure = set(universe)
    frontier = list(closure)
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                img = tuple(g[v] for v in t)
                if img not in closure:
                    closure.add(img)
                    nxt.append(img)
        frontier = nxt
    parent = {t: t for t in closure}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t in closure:
        for g in gens:
            a, b = find(t), find(tuple(g[v] for v in t))
            if a != b:
                parent[a] = b
    names: dict = {}
    return tuple(names.setdefault(find(t), len(names)) for t in universe)


def local_type_oracle(g: Graph):
    """(kind, params) of the neighborhood shape every vertex shares, or None.

    Straight from the definitions, one vertex at a time: components by
    merging the sets of adjacent neighbors; "disjoint_cliques" when every
    pair inside each component is adjacent and the components have one size;
    "cycle" when the neighborhood is connected, has 3 or more vertices and
    each has exactly two neighbors in it.  Cliques are tested first; anything
    else, the empty neighborhood included, is "other".  None when the graph
    is not regular or two neighborhoods differ.
    """
    if len({len(row) for row in g.adj}) != 1:
        return None
    shapes = set()
    for row in g.adj:
        comp = {u: {u} for u in row}
        for a, b in itertools.combinations(row, 2):
            if b in g.adj[a] and comp[a] is not comp[b]:
                merged = comp[a] | comp[b]
                for x in merged:
                    comp[x] = merged
        comps = list({id(c): c for c in comp.values()}.values())
        if (
            comps
            and all(b in g.adj[a] for c in comps for a, b in itertools.combinations(c, 2))
            and len({len(c) for c in comps}) == 1
        ):
            shapes.add(("disjoint_cliques", (len(comps), len(comps[0]))))
        elif (
            len(row) >= 3
            and len(comps) == 1
            and all(sum(w in g.adj[u] for w in row) == 2 for u in row)
        ):
            shapes.add(("cycle", (len(row),)))
        else:
            shapes.add(("other", ()))
    return shapes.pop() if len(shapes) == 1 else None
