"""Partition-refinement search kernel for automorphisms.

Everything here works on raw adjacency (a tuple of strictly sorted neighbor
tuples) so the module stays free of package imports.  A coloring is a list of
ints, one per vertex, ordered like its cells; `refine` returns each vertex's
cell start index, and a coloring is "discrete" when every cell is a singleton.
Refinement only splits cells, by rules that read colors and counts, never
vertex ids, so relabelling a graph relabels its search tree.  The search
carries one partition state down its tree: a child copies its parent's, splits
its vertex off the target cell, the first largest (Traces' rule: it splits the
most), and refines in place.  Off the first path it keeps only nodes with the
first path's cell sizes at their depth, each first trying the candidate that
maps the first path's partition onto its own by position.  The search keeps
its own stack, so depth is not limited by the recursion limit.  It returns its
first path's base, relative to which its generators are a strong generating
set, and the group order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, compress, repeat
from operator import ne

Adjacency = tuple[tuple[int, ...], ...]


def refine(adj: Adjacency, colors: list[int]) -> list[int]:
    """Coarsest equitable refinement of colors, as cell start indices.

    Splitter cells come off a heap in start order (Hopcroft-style, O(m log n);
    Junttila & Kaski, ALENEX 2007).  A touched cell splits by neighbor count
    in the splitter, untouched members first; when it is not queued, its
    first largest piece stays out of the queue.  Every cell starts queued.
    """
    elems, pos, color, size = _state(colors)
    _refine(adj, elems, pos, color, size, sorted(set(color)))
    return color


def _state(colors: list[int]):
    """colors as a partition state (elems, pos, color, size): cells are runs of elems in
    color order, pos inverts elems, color[v] starts v's run, size[i] counts color i."""
    n = len(colors)
    elems = sorted(range(n), key=colors.__getitem__)
    pos, color, size = [0] * n, [0] * n, [0] * n
    for i, v in enumerate(elems):
        pos[v] = i
        color[v] = color[elems[i - 1]] if i and colors[v] == colors[elems[i - 1]] else i
        size[color[v]] += 1
    return elems, pos, color, size


def _refine(adj: Adjacency, elems, pos, color, size, queue: list[int]):
    """`refine` on a partition state in place, from the splitter starts in queue (a heap).
    Once a vertex is split off an equitable state, only its new singleton can
    split anything, so `_child` queues that one start."""
    queued = set(queue)
    while queue:
        s = heappop(queue)
        queued.discard(s)
        count = None  # deep in a search the splitter is one vertex: one row, every count 1
        if size[s] > 1:
            count = {}
            for v in elems[s:s + size[s]]:
                for w in adj[v]:
                    count[w] = count.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in adj[elems[s]] if count is None else count:
            if size[color[w]] > 1:
                touched.setdefault(color[w], []).append(w)
        # Each split stays inside its own cell, so the order of cells is free.
        for x, members in touched.items():
            end = x + size[x]
            first = end - len(members)
            if count is not None:
                members.sort(key=count.__getitem__)
            if first == x and (count is None or count[members[0]] == count[members[-1]]):
                continue
            # Swap the touched members behind the untouched ones, then lay
            # them out in count order: each count is one piece.
            for i, w in enumerate(members, first):
                u, p = elems[i], pos[w]
                elems[p], pos[u] = u, p
            if count is None:  # untouched, then touched: the first larger piece stays out
                for i, w in enumerate(members, first):
                    elems[i], pos[w], color[w] = w, i, first
                size[x], size[first] = first - x, end - first
                push = [first if x in queued or size[first] <= size[x] else x]
            else:
                starts = [x] if first > x else []
                for i, w in enumerate(members, first):
                    elems[i], pos[w] = w, i
                    if i == first or count[w] != count[members[i - first - 1]]:
                        starts.append(i)
                    color[w] = starts[-1]
                for a, b in zip(starts, starts[1:] + [end]):
                    size[a] = b - a
                skip = x if x in queued else max(starts, key=size.__getitem__)
                push = [a for a in starts if a != skip]
            for a in push:
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


class _Node:
    """A search node: its partition state and target cell (None at a leaf)
    and a union-find of the orbits of the generators fixing its prefix, each
    orbit rooted at its least vertex.  The first path's nodes share one, given
    at creation; a node off it builds its own at its second child."""

    __slots__ = ("state", "first", "cell", "next", "parent")

    def __init__(self, state, parent: list[int] | None):
        # The target is the first largest cell, which splits the most.  size[i]
        # counts color i, so index finds its least start, reading no vertex id.
        elems, size = state[0], state[3]
        top = max(size)
        target = size.index(top)
        self.state, self.parent = state, parent
        self.first = parent is not None  # on the first root-to-leaf path
        # Sorted, so that children come in vertex order.
        self.cell = sorted(elems[target:target + top]) if top > 1 else None
        self.next = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(self, p: tuple[int, ...], moved: tuple[int, ...]):
        find, parent = self.find, self.parent
        for a in moved:
            ra, rb = find(a), find(p[a])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)


def automorphism_generators(
        adj: Adjacency, colors: list[int] | None = None,
) -> tuple[list[int], list[tuple[int, ...]], int]:
    """(base, generators, group order) of the automorphism group, found
    without enumerating the group; with colors, of the group keeping each
    vertex's color, the search starting from their refinement.

    Individualization-refinement search for automorphisms only (saucy;
    Darga, Sakallah & Markov, DAC 2008).  The first root-to-leaf path fixes
    the base and keeps its partition at each depth.  Refinement commutes with
    automorphisms, so one taking the first leaf to another takes the first
    path, node by node, onto that leaf's path, cell sizes and all: a node off
    the first path with other sizes at its depth is skipped with its subtree,
    and no node kept lies below the first leaf.  A kept node tries the
    candidate taking each position of the first path's partition to its own,
    kept if it maps each moved point's neighbors onto its image's.  A kept one
    fixes their common prefix and takes the next base point to the branch
    vertex, and the branch is abandoned: anything deeper in it is a product
    of that one with automorphisms found under the first path.  Children in
    the orbit of a tried sibling under the generators fixing the node's
    prefix, read at their moved points, are skipped.  So the generators fixing
    b1..b_{i-1} generate that pointwise stabilizer, a strong generating set
    relative to the base (McKay & Piperno, "Practical graph isomorphism, II",
    2014).

    The first path shares one union-find, into which each generator is
    merged once, when it is found: it fixes the first path down to the node
    whose later child found it, and every first-path node below that one has
    finished.  So a first-path node ends with the orbits of its prefix's
    stabilizer there, and the group order is the product of the sizes of
    b_i's classes.  A node off the first path builds its own union-find at its
    second child, from the generators that fix its prefix.
    """
    n = len(adj)
    arcs = {(v, w) for v in range(n) for w in adj[v]}
    gens: list[tuple[int, ...]] = []
    moves: list[tuple[int, ...]] = []  # moves[i]: the points gens[i] moves
    base: list[int] = []
    path: list[int] = []  # path[i]: the vertex individualized below stack[i]
    group_order = 1
    stack = [_Node(_state(refine(adj, colors or [0] * n)), list(range(n)))]
    reference = [stack[0].state[::3]]  # reference[d]: (elems, size) on the first path at depth d
    while stack:
        node = stack[-1]
        if node.cell is not None and node.next < len(node.cell):
            v = node.cell[node.next]
            node.next += 1
            if node.next > 1:
                # Children come in vertex order, so one whose orbit has a
                # smaller vertex is equivalent to a child already tried.
                if node.parent is None:  # off the first path
                    node.parent, fixed = list(range(n)), set(path)
                    for p, moved in zip(gens, moves):
                        if fixed.isdisjoint(moved):
                            node.merge(p, moved)
                if node.find(v) != v:
                    continue
            state, depth = _child(adj, node.state, v), len(stack)
            if node.first and node.next == 1:  # b_i = cell[0], the least vertex
                base.append(v)
                reference.append(state[::3])
            elif state[3] != reference[depth][1]:
                continue  # no image of the first path's node, so no automorphism below
            else:
                differ = list(map(ne, state[0], reference[depth][0]))
                moved = tuple(compress(reference[depth][0], differ))
                image = dict(zip(moved, compress(state[0], differ)))
                rows = tuple(map(adj.__getitem__, moved))
                heads = list(chain.from_iterable(rows))
                tails = chain.from_iterable(map(repeat, map(image.get, moved), map(len, rows)))
                if all(map(arcs.__contains__, zip(tails, map(image.get, heads, heads)))):
                    p = tuple(map(image.get, range(n), range(n)))
                    gens.append(p)
                    moves.append(moved)
                    while not stack[-1].first:
                        stack.pop()
                    # What is left is the first path, whose shared union-find takes p.
                    stack[-1].merge(p, moved)
                    del path[len(stack) - 1:]
                    continue
            path.append(v)
            stack.append(_Node(state, node.parent if node.first and node.next == 1 else None))
            continue
        if node.first and node.cell is not None:  # b_i = cell[0] roots its class
            group_order *= sum(node.find(v) == node.cell[0] for v in node.cell)
        stack.pop()
        del path[len(stack) - 1:]
    return base, gens, group_order
