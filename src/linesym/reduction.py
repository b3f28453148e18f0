"""Twin and pendant-tree reduction, run before the automorphism search.

This is the preprocessing that sassy runs before individualization-refinement
(Anders, Schweitzer & Stiess, "Engineering a preprocessor for symmetry
detection", SEA 2023).  Two open twins (equal neighbourhoods) or two closed
twins (equal once each takes its own vertex) are swapped by an automorphism.
To a fixpoint, each class of twins of one color collapses to one colored
vertex, and every leaf is peeled into its neighbour, whose color then reads
the colors hanging at it (AHU forms; Aho, Hopcroft & Ullman 1974, 3.2).
Only the colored core is searched (`refinement.automorphism_generators`),
and a core of one vertex is not: complete and complete multipartite graphs,
stars and trees search nothing.  Like `refinement`, the module works on raw
adjacency (a tuple of strictly sorted neighbor tuples) and returns raw
generators, each a tuple of images.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, itemgetter

from . import refinement


def _reducible(adj) -> bool:
    """Whether a graph has a leaf or two twins, in C-level passes over the
    rows, since every graph that reaches the search pays for it: open twins
    have equal rows, closed twins equal rows once each row takes its own
    vertex."""
    n = len(adj)
    return (1 in map(len, adj) or len(set(adj)) < n
            or len(set(map(frozenset, map(add, adj, zip(range(n)))))) < n)


class _Reduction:
    """A graph reduced by its twins and pendant trees, as a colored quotient.

    Each quotient vertex q (`rows`, `color`) stands for a block of the
    graph's vertices, `members[q]`, nested lists that `_flattened` reads in
    a canonical order starting at q: two blocks of one color are isomorphic
    position by position, and so are the joins between quotient neighbours.
    A class of k twins (equal open or closed rows and equal colors) becomes
    its first vertex, its block the members' blocks in turn, recorded in
    `classes` with their vertices.  A leaf is peeled into its neighbour,
    whose color then reads the colors hanging at it, which differ once equal
    ones are collapsed as twins first; its block joins the neighbour's,
    uncopied, so a long path takes linear time.  Colors are ids of nested
    keys (kind, ...), equal exactly when the blocks are isomorphic."""

    def __init__(self, adj):
        self.rows = dict(enumerate(map(set, adj)))
        self.color = dict.fromkeys(self.rows, 0)
        self.members = dict(enumerate(map(list, zip(self.rows))))  # v -> [v]
        self.classes: list[tuple[list[int], list[list]]] = []
        self.ids: dict = {(): 0}  # color keys -> colors

    def merge(self, vs: list[int], closed: bool) -> int:
        """Collapse the twin class vs, in increasing order, into vs[0]."""
        rows, r, dead, ids = self.rows, vs[0], vs[1:], self.ids
        parts = list(map(self.members.pop, vs))
        self.classes.append((vs, parts))
        self.members[r] = parts.copy()
        self.color[r] = ids.setdefault((int(closed), len(vs), self.color[r]), len(ids))
        for v in dead:
            del rows[v], self.color[v]
        for w in rows[r]:  # every live neighbour of a twin is one of r, or r itself
            if w in rows:
                rows[w].difference_update(dead)
        rows[r].difference_update(dead)
        return r

    def collapse_twins(self) -> bool:
        """Collapse every twin class at once; whether there was one."""
        groups: dict = {}
        for v, row in self.rows.items():
            c, row = self.color[v], frozenset(row)
            groups.setdefault((0, c, row), []).append(v)
            groups.setdefault((1, c, row.union((v,))), []).append(v)
        found = False
        for (closed, *_), vs in groups.items():  # no vertex has both an open and a closed twin
            if len(vs) > 1:
                self.merge(vs, closed)
                found = True
        return found

    def peel(self) -> bool:
        """Peel leaves, all of them each round, until none is left; whether there was one.
        Leaves of one color at one vertex are open twins, and collapse before they hang
        there.  An edge on its own is a closed twin pair, or its lesser color hangs at
        the other end, so a tree is rooted at its centre or bicentre."""
        rows, color, ids = self.rows, self.color, self.ids
        leaves = [v for v, row in rows.items() if len(row) == 1]
        found = bool(leaves)
        while leaves:
            hanging: dict = {}
            for x in leaves:
                (y,) = rows[x]
                if len(rows[y]) == 1 and color[x] >= color[y]:
                    if color[x] == color[y] and x < y:
                        hanging[x] = None
                    continue
                hanging.setdefault(y, []).append(x)
            leaves = []
            for y, xs in hanging.items():
                if xs is None:
                    self.merge([y, *rows[y]], True)
                    continue
                same: dict = {}
                for x in xs:
                    same.setdefault(color[x], []).append(x)
                kids = [self.merge(vs, False) if len(vs) > 1 else vs[0] for vs in same.values()]
                kids.sort(key=color.__getitem__)
                color[y] = ids.setdefault((2, color[y], tuple(map(color.__getitem__, kids))), len(ids))
                for x in kids:
                    self.members[y].append(self.members.pop(x))
                    del rows[x], color[x]
                rows[y].difference_update(kids)
                if len(rows[y]) == 1:
                    leaves.append(y)
        return found


def _flattened(block: list) -> list[int]:
    """A block's vertices in order, each entry a vertex or a nested block."""
    out, stack = [], [block]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def reduced_generators(adj) -> tuple[tuple[int, ...], list[tuple[int, ...]], int] | None:
    """(base, generators, group order) of the automorphism group from the
    reduction, or None when the graph has no twin and no leaf.  Each of the
    core's generators is lifted block to block, position by position, and
    each class of k blocks adds the k - 1 swaps of consecutive blocks,
    position by position, so |Aut| = |Aut core| * prod k!.  The base is the
    core's, then each class's blocks' first vertices, from the last class
    made to the first (a class may hold earlier ones, never later ones):
    fixing a block's first vertex fixes the block, so the generators are
    strong on that base."""
    if not _reducible(adj):
        return None
    q = _Reduction(adj)
    while q.collapse_twins() | q.peel():
        pass
    core = list(q.rows)
    base, gens, order = [], [], 1
    if len(core) > 1:
        index = dict(zip(core, range(len(core))))
        core_adj = tuple(tuple(sorted(map(index.__getitem__, q.rows[v]))) for v in core)
        found, lifted, _, order = refinement.automorphism_generators(
            core_adj, list(map(q.color.__getitem__, core)))
        blocks = list(map(_flattened, map(q.members.__getitem__, core)))
        flat = list(chain.from_iterable(blocks))
        lift = itemgetter(*sorted(range(len(adj)), key=flat.__getitem__))  # vertex -> position
        base = list(map(core.__getitem__, found))
        for p in lifted:
            gens.append(lift(tuple(chain.from_iterable(map(blocks.__getitem__, p)))))
    identity = list(range(len(adj)))
    for vs, parts in reversed(q.classes):
        order *= math.factorial(len(vs))
        base += vs
        parts = list(map(_flattened, parts))
        for part, other in zip(parts, parts[1:]):
            image = identity.copy()
            for a, b in zip(part, other):
                image[a], image[b] = b, a
            gens.append(tuple(image))
    return tuple(dict.fromkeys(base)), gens, order
