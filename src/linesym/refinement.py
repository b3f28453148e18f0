"""Partition-refinement search kernel for isomorphism and automorphism search.

Everything here works on raw adjacency (a tuple of strictly sorted neighbor
tuples) so the module stays free of package imports.  A coloring is a list of
dense ints, one per vertex; it is "discrete" when every color class is a
singleton.  Refinement only ever splits classes, and class ids are renumbered
from sorted signatures, so two graphs refined together as one disjoint union
end up with directly comparable colorings.
"""

from __future__ import annotations

from collections import Counter

Adjacency = tuple[tuple[int, ...], ...]


def refine(adj: Adjacency, colors: list[int]) -> list[int]:
    """Split classes by neighbor-color multisets until the partition is equitable."""
    n = len(adj)
    ncolors = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [order[s] for s in sigs]
        # A pass that creates no new class leaves every class signature-uniform.
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def individualize(colors: list[int], v: int) -> list[int]:
    """Give v its own class, placed just before the remainder of its old class."""
    cv = colors[v]
    return [c if c < cv or w == v else c + 1 for w, c in enumerate(colors)]


def _first_nonsingleton(colors):
    """Lowest color id with class size > 1, or None when discrete.

    The choice depends only on the coloring, never on vertex ids, which keeps
    the target cell isomorphism-invariant across branches.
    """
    sizes = Counter(colors)
    small = [c for c, sz in sizes.items() if sz > 1]
    return min(small) if small else None


def _preserves_adjacency(adj1: Adjacency, adj2: Adjacency, phi) -> bool:
    for v in range(len(adj1)):
        if sorted(phi[w] for w in adj1[v]) != list(adj2[phi[v]]):
            return False
    return True


def find_isomorphism(adj1: Adjacency, adj2: Adjacency) -> tuple[int, ...] | None:
    """Edge-preserving bijection from adj1 to adj2, or None if none exists."""
    n = len(adj1)
    if len(adj2) != n:
        return None

    union = adj1 + tuple(tuple(w + n for w in row) for row in adj2)

    def search(c1, c2):
        colors = refine(union, c1 + c2)
        c1, c2 = colors[:n], colors[n:]
        if sorted(c1) != sorted(c2):
            return None
        target = _first_nonsingleton(c1)
        if target is None:
            pos2 = {c: v for v, c in enumerate(c2)}
            phi = tuple(pos2[c] for c in c1)
            return phi if _preserves_adjacency(adj1, adj2, phi) else None
        u = min(v for v in range(n) if c1[v] == target)
        for w in (v for v in range(n) if c2[v] == target):
            phi = search(individualize(c1, u), individualize(c2, w))
            if phi is not None:
                return phi
        return None

    return search([0] * n, [0] * n)


def automorphism_generators(adj: Adjacency) -> list[tuple[int, ...]]:
    """Generators of the automorphism group, found without enumerating it.

    Individualization-refinement search.  The first root-to-leaf path fixes a
    reference labeling; every other leaf whose coloring matches yields a
    candidate permutation, kept only if it actually preserves adjacency.  Two
    prunings keep the tree near-linear in the group's base length instead of
    its order:

    * sibling candidates already reachable from a tried sibling by a found
      automorphism fixing the branch prefix are skipped (orbit pruning);
    * a subtree hanging off the first path is abandoned as soon as it
      contributes one automorphism, since anything deeper in it is a product
      of that one with automorphisms found under the first path.
    """
    n = len(adj)
    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    first_leaf: list[int] | None = None

    def same_orbit(v, tried, fixed):
        # Union-find over the generators that fix the branch prefix pointwise.
        use = [p for p in gens if all(p[f] == f for f in fixed)]
        if not use:
            return False
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in use:
            for a in range(n):
                ra, rb = find(a), find(p[a])
                if ra != rb:
                    parent[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in tried)

    def search(colors, fixed, on_first_path):
        nonlocal first_leaf
        colors = refine(adj, colors)
        target = _first_nonsingleton(colors)
        if target is None:
            lam = [0] * n
            for v, c in enumerate(colors):
                lam[c] = v
            if first_leaf is None:
                first_leaf = lam
                return False
            p = [0] * n
            for c in range(n):
                p[first_leaf[c]] = lam[c]
            p = tuple(p)
            if p != identity and _preserves_adjacency(adj, adj, p):
                gens.append(p)
                return True
            return False
        found = False
        tried: list[int] = []
        for v in range(n):
            if colors[v] != target:
                continue
            if tried and same_orbit(v, tried, fixed):
                continue
            child_on_first = on_first_path and not tried
            got = search(individualize(colors, v), fixed + [v], child_on_first)
            tried.append(v)
            found = found or got
            if got and not on_first_path:
                return True
        return found

    search([0] * n, [], True)
    return gens
