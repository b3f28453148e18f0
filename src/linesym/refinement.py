"""Partition-refinement search kernel for automorphisms and canonical labeling.

Everything here works on raw adjacency (a tuple of strictly sorted neighbor
tuples) so the module stays free of package imports.  A coloring is a list of
ints, one per vertex, ordered like its cells; `refine` returns each vertex's
cell start index, and a coloring is "discrete" when every cell is a
singleton.  Refinement only splits cells, by rules that read colors and
counts, never vertex ids, so relabelling a graph relabels its search tree.
The search carries one partition state down its tree: a child copies its
parent's, splits its vertex off the target cell and refines in place, and a
leaf's cell order is its vertex order.  The search keeps its own stack, so
depth is not limited by the recursion limit.  It returns its first path's
base, relative to which its generators are a strong generating set, the
group order, and a canonical vertex order, so two graphs are isomorphic
exactly when their certificates under those orders are equal.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from itertools import chain

Adjacency = tuple[tuple[int, ...], ...]


def refine(adj: Adjacency, colors: list[int], splitter: int | None = None) -> list[int]:
    """Coarsest equitable refinement of colors, as cell start indices.

    Splitter cells come off a heap in start order (Hopcroft-style, O(m log n);
    Junttila & Kaski, ALENEX 2007).  A touched cell splits by neighbor count
    in the splitter, untouched members first; when it is not queued, its
    first largest piece stays out of the queue.  Every cell starts queued,
    unless splitter is the color of a vertex just individualized from an
    equitable coloring: then only that new singleton can split anything.
    """
    elems, pos, color, size = _state(colors)
    _refine(adj, elems, pos, color, size, list(size) if splitter is None else [splitter])
    return color


def _state(colors: list[int]):
    """colors as a partition state (elems, pos, color, size): cells are runs of elems
    in color order, pos inverts elems, color[v] starts v's run, size[c] is c's length."""
    n = len(colors)
    elems = sorted(range(n), key=colors.__getitem__)
    pos, color, size = [0] * n, [0] * n, {}
    for i, v in enumerate(elems):
        pos[v] = i
        color[v] = color[elems[i - 1]] if i and colors[v] == colors[elems[i - 1]] else i
        size[color[v]] = size.get(color[v], 0) + 1
    return elems, pos, color, size


def _refine(adj: Adjacency, elems, pos, color, size, queue: list[int]):
    """`refine` on a partition state in place, from the splitter starts in queue (a heap)."""
    queued = set(queue)
    while queue:
        s = heappop(queue)
        queued.discard(s)
        single = size[s] == 1  # the common case deep in a search: all counts 1
        count = dict.fromkeys(adj[elems[s]], 1) if single else Counter(
            chain.from_iterable(map(adj.__getitem__, elems[s:s + size[s]])))
        touched: dict[int, list[int]] = {}
        for w in count:
            if size[color[w]] > 1:
                touched.setdefault(color[w], []).append(w)
        # Each split stays inside its own cell, so the order of cells is free.
        for x, members in touched.items():
            if not single:
                members.sort(key=count.__getitem__)
            end = x + size[x]
            first = end - len(members)
            if first == x and count[members[0]] == count[members[-1]]:
                continue
            # Swap the touched members behind the untouched ones, then lay
            # them out in count order: each count is one piece.
            for i, w in enumerate(members, first):
                u, p = elems[i], pos[w]
                elems[p], pos[u] = u, p
            starts = [x] if first > x else []
            for i, w in enumerate(members, first):
                elems[i], pos[w] = w, i
                if i == first or not single and count[w] != count[members[i - first - 1]]:
                    starts.append(i)
                color[w] = starts[-1]
            for a, b in zip(starts, starts[1:] + [end]):
                size[a] = b - a
            skip = x if x in queued else max(starts, key=size.__getitem__)
            for a in starts:
                if a != skip:
                    heappush(queue, a)
                    queued.add(a)


def _child(adj: Adjacency, state, v: int):
    """A refined copy of an equitable partition state in which v is split
    off the front of its cell x, and the rest of that cell starts at x + 1."""
    elems, pos, color, size = state = tuple(a.copy() for a in state)
    x, i, u = color[v], pos[v], elems[color[v]]
    elems[x], elems[i], pos[v], pos[u] = v, u, x, i
    size[x + 1], size[x] = size[x] - 1, 1
    for w in elems[x + 1:x + 1 + size[x + 1]]:
        color[w] = x + 1
    _refine(adj, *state, [x])
    return state


def certificate(adj: Adjacency, order) -> Adjacency:
    """adj relabelled so that vertex order[i] becomes i: row i holds the
    sorted new labels of order[i]'s neighbors."""
    label = [0] * len(order)
    for i, v in enumerate(order):
        label[v] = i
    return tuple(tuple(sorted(label[w] for w in adj[v])) for v in order)


class _Node:
    """A search node: its partition state and target cell (None at a leaf)
    and, from its second child on, a union-find of the orbits of the
    generators fixing its prefix, each orbit rooted at its least vertex."""

    __slots__ = ("state", "first", "cell", "next", "parent")

    def __init__(self, state, target: int, first: bool):
        # The target is the first non-singleton cell at or after the
        # parent's: it depends on cell sizes alone, never on vertex ids.
        elems, size = state[0], state[3]
        while target < len(elems) and size[target] == 1:
            target += 1
        self.state, self.first = state, first  # first: on the first root-to-leaf path
        # Sorted, so that children come in vertex order.
        self.cell = sorted(elems[target:target + size[target]]) if target < len(elems) else None
        self.next = 0
        self.parent: list[int] | None = None

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(self, p: tuple[int, ...]):
        for a, b in enumerate(p):
            if a != b:
                ra, rb = self.find(a), self.find(b)
                if ra != rb:
                    self.parent[max(ra, rb)] = min(ra, rb)


def automorphism_generators(
        adj: Adjacency) -> tuple[list[int], list[tuple[int, ...]], tuple[int, ...], int]:
    """(base, generators, canonical order, group order) of the automorphism
    group, found without enumerating the group.

    Individualization-refinement search.  The first root-to-leaf path fixes a
    reference labeling and the base it individualized; every other leaf whose
    coloring matches yields a candidate permutation, kept only if it actually
    preserves adjacency.  Children in the orbit of a tried sibling under the
    generators fixing the node's prefix are skipped, and a subtree off the
    first path is abandoned at its first automorphism, since anything deeper
    in it is a product of that one with automorphisms found under the first
    path.  So the generators fixing b1..b_{i-1} reach, or prune into their
    orbits, every child equivalent to b_i: they generate that pointwise
    stabilizer, a strong generating set relative to the base (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).

    Since a subtree is skipped only when an automorphism maps a searched one
    onto it, the search reaches every leaf up to automorphism; so the order
    of the leaf with the largest certificate is canonical.  A first-path
    node ends with the orbits of that stabilizer in its union-find, so the
    group order is the product of the sizes of b_i's classes.
    """
    n = len(adj)
    arcs = {(v, w) for v in range(n) for w in adj[v]}
    tails, heads = zip(*arcs) if arcs else ((), ())
    gens: list[tuple[int, ...]] = []
    base: list[int] = []
    first_colors: list[int] | None = None
    best: list[int] = []  # the vertex order of the best leaf so far
    best_cert: Adjacency | None = None  # its certificate, once one is needed
    path: list[int] = []  # path[i]: the vertex individualized below stack[i]
    group_order = 1
    stack = [_Node(_state(refine(adj, [0] * n)), 0, True)]
    while stack:
        node = stack[-1]
        if node.cell is not None and node.next < len(node.cell):
            v = node.cell[node.next]
            node.next += 1
            if node.next > 1:
                # Children come in vertex order, so one whose orbit has a
                # smaller vertex is equivalent to a child already tried.
                if node.parent is None:
                    node.parent = list(range(n))
                    for p in gens:
                        if all(p[f] == f for f in path):
                            node.merge(p)
                if node.find(v) != v:
                    continue
            path.append(v)
            x = node.state[2][v]
            stack.append(_Node(_child(adj, node.state, v), x, node.first and node.next == 1))
            continue
        if node.cell is None:
            leaf, pos, color, _ = node.state  # leaf[c]: the vertex colored c
            if first_colors is None:
                first_colors, base, best = color, path[:], leaf
            else:
                p = tuple(map(leaf.__getitem__, first_colors))
                if all(map(arcs.__contains__, zip(map(p.__getitem__, tails),
                                                  map(p.__getitem__, heads)))):
                    gens.append(p)
                    while not stack[-2].first:
                        stack.pop()
                    # What is left is the first path, whose prefixes p fixes.
                    for anc in stack[:-1]:
                        if anc.parent is not None:
                            anc.merge(p)
                else:
                    # An automorphic leaf has the first leaf's certificate,
                    # so only the others are compared, row by row (pos
                    # labels the leaf's vertices) until one row differs.
                    if best_cert is None:
                        best_cert = certificate(adj, best)
                    rows = (tuple(sorted(map(pos.__getitem__, adj[v]))) for v in leaf)
                    if next((r > top for r, top in zip(rows, best_cert) if r != top), False):
                        best, best_cert = leaf, certificate(adj, leaf)
        elif node.first:  # b_i = cell[0], the least vertex, roots its class
            group_order *= sum(node.find(v) == node.cell[0] for v in node.cell)
        stack.pop()
        del path[len(stack) - 1:]
    return base, gens, tuple(best), group_order
