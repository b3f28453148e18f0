"""Automorphism groups, induced edge actions, orbits, and transitivity tests.

Permutations compose in application order: (p * q) means "apply p, then q".
A group is its generators, a base and, where proven, its order: the
search's, its root's for a line graph, or its reduction's.
`AutGroup._levels` builds every chain a group needs, based at any points
asked for, then at its base, with `_stabilizer_chain`: incremental
Schreier-Sims (Seress, Permutation Group Algorithms, 2003, sections
4.1-4.2) over Schreier vectors, its coset elements built when needed and
memoised; no element is enumerated.  The search's generators are strong on
its base, and so are a reduction's, so such a group's first level, all that
`transitive_on` reads, comes from them with no chain.  A line graph
L(H) whose connected root has 5 <= |H| < |L(H)| vertices is not searched: by
Whitney's theorem (1932) Aut(H), acting on the edges through the certified
bijection `Graph.root`, is all of Aut(L(H)), the exceptions K2, K3, K1,3,
K4, K4 - e and K1,3 + e having fewer vertices.  Past its root, a graph
with twins or a leaf takes its group from `reduction`, which searches only
the colored core left once twin classes and pendant trees are collapsed, so
|Aut g| = |Aut core| * prod k! over the twin classes of k.  Past that, a
graph denser than half
(2m > n(n-1)/2) takes its complement's group, so no search runs on the
denser side: K(n,2), for n >= 8, reaches K_n through its complement
T(n) = L(K_n).
`transitive_on` splits an explicit tuple universe into orbits; the
transitivity predicates build no tuple and decide each level by
orbit-stabilizer (`transitive_on_level`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from . import reduction, walks
from .constructions import EdgeIndex
from .graphs import Graph, complement
from .metrics import diameter, is_connected


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not form a bijection")

    @classmethod
    def _built(cls, images: tuple[int, ...]) -> "Permutation":
        """images that the package built as a bijection, taken unchecked: the
        check sorts each, so over K_{1,n}'s n - 1 generators it is quadratic."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def from_one_line(text: str) -> "Permutation":
        """Parse one-line notation, e.g. "2 0 1 3" or "2,0,1,3"."""
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty permutation")
        return Permutation(tuple(int(p) for p in parts))

    def one_line(self) -> str:
        return " ".join(str(i) for i in self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def apply(self, seq: Sequence[int]) -> tuple[int, ...]:
        """Image of a tuple under the right action, coordinate by coordinate."""
        return _compose(tuple(seq), self.images)


def _compose(p, q):
    """Raw tuples: apply p, then q, in C when p has two or more entries
    (itemgetter of one index returns a scalar, of none fails)."""
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[v] for v in p)


# --- stabilizer chain -------------------------------------------------------


def _invert(p):
    """p^-1, and p itself when p is an involution (the chain tests with `is`)."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return p if (inv := tuple(inv)) == p else inv


def _coset(level, memo, x, down=False):
    """memo[x], built along x's path in a Schreier vector (x -> (t, s, s^-1)
    with s[x] = t) and memoised on the way: the element carrying x to the
    base point, or with down the one carrying the base point to x."""
    path = [x]
    while path[-1] not in memo:
        path.append(level[path[-1]][0])
    w = memo[path.pop()]
    for y in reversed(path):
        _, s, inverse = level[y]
        w = memo[y] = _compose(w, inverse) if down else _compose(s, w)
    return w


def _grow(level, steps, step):
    """step = (s, s^-1) joins steps, acting on the level's orbit, then every
    step acts on each new point x = s^-1[t], entered as x -> (t, s, s^-1)."""
    steps.append(step)
    s, inverse = step
    queue = []
    for t in list(level):
        if (x := inverse[t]) not in level:
            level[x] = (t, s, inverse)
            queue.append(x)
    for t in queue:
        for s, inverse in steps:
            if (x := inverse[t]) not in level:
                level[x] = (t, s, inverse)
                queue.append(x)


def _stabilizer_chain(gens: Sequence[tuple[int, ...]], n: int, prefix=(), order=None):
    """Incremental Schreier-Sims over Schreier vectors: (base, levels, up,
    steps), one entry per base point, the base starting with prefix however
    short its orbits.  levels[i] is the Schreier vector of base[i] (b -> None,
    x -> (t, s, s^-1) with s[x] = t) under S_i, held in steps[i] as (s, s^-1)
    pairs; up[i] memoises elements carrying points to base[i].  The orbit
    lengths multiply to the order of the group on gens.

    The prefix opens its levels bare.  Each input joins S_0..S_j as a residue
    does, j the first base point it moves, unsifted, shallowest first: in
    input order the chains of a `corpus` pass took 2.27 against 2.21 ms
    (best of 21 replays of the same inputs; 1.8-3.2% slower in three runs).
    Given the order, orbits that reach it prove the inputs strong.  Else the
    Schreier phase completes the levels bottom-up, visiting each pair (t, s)
    of level i's orbit and S_i once: a tree edge, either way round, costs
    nothing, and the Schreier generator down[t] s up[s[t]] (down[x] carrying
    base[i] to x, both memoised) is built only when down[t] s != down[s[t]].
    Its residue, sifted from level i+1, joins S_{i+1}..S_j when it stops at
    level j, and processing goes back to j."""
    identity, base = tuple(range(n)), list(prefix)
    levels, up, steps = [{b: None} for b in base], [{b: identity} for b in base], [[] for _ in base]
    down, settled = {}, {}  # per level in the Schreier phase; settled: point -> pairs visited

    def join(p, lo, j):
        """p joins S_lo..S_j, opening a level at its first moved point past the base."""
        if j == len(base):
            base.append(next(v for v in range(n) if p[v] != v))
            levels.append({base[j]: None})
            steps.append([])
            up.append({base[j]: identity})
        step = (p, _invert(p))
        for m in range(lo, j + 1):
            _grow(levels[m], steps[m], step)

    def first(p):  # the first base point p moves, or the next one to open
        return next((j for j, b in enumerate(base) if p[b] != b), len(base))

    def sift(p, lo):
        for j in range(lo, len(base)):
            x = p[base[j]]
            if x != base[j]:
                if x not in levels[j]:
                    return p, j
                p = _compose(p, up[j].get(x) or _coset(levels[j], up[j], x))
        return p, len(base)

    inputs = sorted((first(p), k, p) for k, p in enumerate(map(tuple, gens)) if p != identity)
    for j, _, p in inputs:  # past the prefix, the base may have grown since
        join(p, 0, j if j < len(prefix) else first(p))
    i = len(base) - 1
    while i >= 0 and _chain_order(levels) != order:
        level, pairs, ups, j = levels[i], steps[i], up[i], None
        downs, done = down.setdefault(i, {base[i]: identity}), settled.setdefault(i, {})
        for t, k in ((t, k) for t in level for k in range(done.get(t, 0), len(pairs))):
            done[t] = k + 1
            s, si = pairs[k]
            x = s[t]
            v, w = level[t], level[x]
            if v and v[0] == x and v[1] is s or w and w[0] == t and w[1] is si:
                continue  # a tree edge, one way round or the other
            ts = _compose(downs.get(t) or _coset(level, downs, t, True), s)
            if ts != (downs.get(x) or _coset(level, downs, x, True)):
                p, stop = sift(_compose(ts, ups.get(x) or _coset(level, ups, x)), i + 1)
                if p != identity:
                    join(p, i + 1, stop)
                    j = stop
                    break
        i = i - 1 if j is None else j
    return base, levels, up, steps


def _automorphisms_of(g: Graph, perms: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """The permutations as a tuple; ValueError unless each is an automorphism of g."""
    perms, rank = tuple(perms), g.edge_rank
    for p in perms:
        if p.degree != g.n:
            raise ValueError("generator degree does not match the graph")
        # a membership walk: `_edge_images` builds every image, ran slower on Q6, saved no line
        ends = map(p.images.__getitem__, chain.from_iterable(g.edges))
        if not all(map(rank.__contains__, zip(ends, ends))):
            u, v = next(e for e in g.edges if (p(e[0]), p(e[1])) not in rank)
            raise ValueError(f"permutation {p.one_line()!r} breaks edge {u}-{v}")
    return perms


def _chain_order(levels) -> int:
    return math.prod(map(len, levels))


@dataclass(frozen=True)
class AutGroup:
    """A permutation group: its generators, a base and, where proven, its
    order; compared and hashed by its generators.  `_chain`, built when first
    read, is (order, level, stabilizer, memo) for the first base point b the
    group moves: b's Schreier vector, generators of G_b, and a memo carrying
    points to b.  A search group's strong generators (`_strong`) give it with
    no chain: b's orbit, and those fixing b.  Others read it off `_levels`.
    A group from `from_generators` keeps the graph it was checked on
    (`_acts_on`), so `_acting_group` does not check it there again."""

    degree: int
    generators: tuple[Permutation, ...]
    _base: tuple = field(repr=False, compare=False, default=())
    _order: int | None = field(repr=False, compare=False, default=None)
    _strong: bool = field(repr=False, compare=False, default=False)
    _acts_on: Graph | None = field(repr=False, compare=False, default=None)

    @cached_property
    def order(self) -> int:
        return self._order or self._chain[0]

    @cached_property
    def _chain(self):
        gens = [p.images for p in self.generators]
        if not gens:
            return 1, {}, (), {}
        if self._strong:  # the generators fix the base points before b
            b = next(b for b in self._base if any(p[b] != b for p in gens))
            level, steps = {b: None}, []
            for p in gens:
                _grow(level, steps, (p, _invert(p)))
            stabilizer = tuple(p for p in gens if p[b] == b)
            return self._order, level, stabilizer, {b: tuple(range(self.degree))}
        _, levels, up, steps = self._levels()
        i = next(i for i, level in enumerate(levels) if len(level) > 1)
        # G fixes the base points before level i, so S_{i+1} generates G_b
        below = steps[i + 1] if i + 1 < len(steps) else ()
        return _chain_order(levels), levels[i], tuple(s for s, _ in below), up[i]

    def _levels(self, points=()):
        """Every chain the group builds: based at points, then at `_base`, on which
        a search group's generators are strong, so the Schreier phase has little
        or nothing to do; stopped at `_order`, or with points at `order`."""
        gens, stop = [p.images for p in self.generators], self.order if points else self._order
        return _stabilizer_chain(gens, self.degree, dict.fromkeys((*points, *self._base)), stop)

    @staticmethod
    def from_permutations(degree: int, perms: Iterable[Permutation]) -> "AutGroup":
        perms, identity = tuple(perms), tuple(range(degree))
        if any(p.degree != degree for p in perms):
            raise ValueError("generator degree mismatch")
        return AutGroup(degree, tuple(p for p in perms if p.images != identity))

    @staticmethod
    def from_generators(g: Graph, perms: Iterable[Permutation]) -> "AutGroup":
        """Validating constructor: every generator must preserve g's edge set."""
        perms, identity = _automorphisms_of(g, perms), tuple(range(g.n))
        return AutGroup(g.n, tuple(p for p in perms if p.images != identity), _acts_on=g)


@lru_cache(maxsize=256)
def automorphisms(g: Graph) -> AutGroup:
    """Full automorphism group of g, its order proven, from the first step
    that applies: a line graph's from its root (`_line_group`); a graph with
    twins or a leaf from its reduction (`reduction.reduced_generators`); a graph denser
    than half (2m > n(n-1)/2) has that of its complement, which is not,
    built here and kept by no cache; any other's from the search, whose
    generators are strong on its base."""
    group = _line_group(g)
    if group is None and (reduced := reduction.reduced_generators(g.adj)) is not None:
        base, gens, order = reduced
        group = AutGroup(g.n, tuple(map(Permutation._built, gens)), base, order, True)  # strong
    if group is None and 2 * g.m > g.n * (g.n - 1) // 2:
        g = complement(g)
        group = _line_group(g)  # g is now the complement, its root tried in turn
    if group is None:
        base, gens, order = g.search
        group = AutGroup(g.n, tuple(map(Permutation._built, gens)), tuple(base), order, True)  # strong
    return group


def _line_group(g: Graph) -> AutGroup | None:
    """Aut(g) as the action of Aut(H) on the edges of g's root H, or None.
    Taken only when g has a vertex of degree 3 or more and a connected root
    with 5 <= H.n < g.n: by Whitney's theorem the action is then onto Aut(g),
    and each recursive step is smaller."""
    if max(map(len, g.adj)) < 3 or g.root is None or not 5 <= g.root[0].n < g.n:
        return None
    h, ends = g.root
    point = {k: x for x, (u, v) in enumerate(ends) for k in ((u, v), (v, u))}
    return _edge_group(h, ends, point, automorphisms(h))


def _edge_images(p: Permutation, ends, point) -> tuple[int, ...]:
    """The point of each edge's image under p: edge ends[x] goes to
    point[p(u), p(v)].  KeyError when p breaks an edge."""
    images = map(p.images.__getitem__, chain.from_iterable(ends))
    return tuple(map(point.__getitem__, zip(images, images)))


def _edge_group(h: Graph, ends, point, group: AutGroup) -> AutGroup:
    """The action of a group of automorphisms of h on its edges, edge ends[x]
    becoming point x and point[u, v] that of {u, v} either way round.  Each
    caller's h is connected with two or more edges, so an element fixing every
    edge fixes each vertex where two edges meet, then each leaf: the action is
    faithful, its order |group|.  Based at the edges at the group's base points,
    its own chain, read by `transitive_on` (`linesym orbits` on a line graph),
    takes 223 compositions on L(PG(2,11)), and 24,162 with no base."""
    gens = tuple(Permutation._built(_edge_images(p, ends, point)) for p in group.generators)
    base = dict.fromkeys(point[b, w] for b in group._base for w in h.adj[b])
    return AutGroup(len(ends), gens, tuple(base), group.order)


def induced_edge_action(index: EdgeIndex, p: Permutation) -> Permutation:
    """Action of a host automorphism on edge ranks: {u,v} goes to {p(u),p(v)}."""
    if p.degree != index.host.n:
        raise ValueError("permutation degree does not match the host")
    try:
        return Permutation(_edge_images(p, index.edges, index.host.edge_rank))
    except KeyError:
        raise ValueError(f"permutation {p.one_line()!r} does not preserve edges") from None


# --- orbits and transitivity -------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
    """Orbit ids for a tuple universe, in the universe's given order.

    Ids number the group's orbits by first appearance in the universe, and
    every copy of a repeated tuple carries its orbit's id.
    """

    universe: tuple[tuple[int, ...], ...]
    orbit_ids: tuple[int, ...]
    orbit_count: int

    def sizes(self) -> list[int]:
        return list(Counter(self.orbit_ids).values())  # ids come by first appearance


def transitive_on(tuples: Sequence[tuple[int, ...]], group: AutGroup):
    """(is_transitive, OrbitPartition) for a tuple universe under the group.

    Let b be the point of the group's first chain level and O its orbit.  A
    tuple t starting in O is moved into the fibre over b as t * w, where w
    is the level element carrying t[0] to b, built along t[0]'s Schreier path
    when first asked for and memoised; two such tuples share a G-orbit
    exactly when their fibre images share an orbit of the stabilizer G_b,
    so only the fibre is searched, under G_b's strong generators.  Tuples
    starting outside O are searched under the group's generators.  Each
    orbit is searched once, from its first tuple in the universe.

    An empty universe is vacuously transitive.  The searches go through
    tuples missing from the universe, so a universe that is not closed under
    the group still gets its partition into G-orbits, and repeated tuples
    share their orbit's id.  Those searches raise EnumerationCapExceeded once
    their labels hold more than walks.ENUMERATION_CAP entries, each charged
    its length; a closed universe from the enumerators stays within the cap.
    """
    universe = tuple(tuples)
    cap = walks.ENUMERATION_CAP
    gens = [p.images for p in group.generators]
    _, level, stabilizer, reps = group._chain
    label: dict = {}  # fibre image, or tuple starting outside O -> orbit id
    ids, count, entries = [], 0, 0  # entries: those of the labels of finished searches
    for t in universe:
        w = reps.get(t[0]) if t else None
        if w is None and t and t[0] in level:
            w = _coset(level, reps, t[0])
        if w is None:
            key, members = t, gens
        else:  # `_compose(t, w)` here cost the `orbits` benchmark 7.7% of its wall time
            key = itemgetter(*t)(w) if len(t) > 1 else (w[t[0]],)
            members = stabilizer
        if (orbit_id := label.get(key)) is None:
            orbit_id = label[key] = count
            count += 1
            queue = [key]
            for cur in queue:  # one getter per tuple: `_compose` per image measured slower
                if entries + len(queue) * len(key) > cap:  # an orbit's labels share a length
                    raise walks.EnumerationCapExceeded(
                        f"enumeration cap reached: more than {cap} entries in an orbit search")
                image_of = itemgetter(*cur) if len(cur) > 1 else lambda q: tuple(q[v] for v in cur)
                for images in members:
                    if (img := image_of(images)) not in label:
                        label[img] = orbit_id
                        queue.append(img)
            entries += len(queue) * len(key)
        ids.append(orbit_id)
    return count <= 1, OrbitPartition(universe, tuple(ids), count)


@lru_cache(maxsize=256)
def transitive_on_level(g: Graph, kind: str, t: int, group: AutGroup) -> bool:
    """Whether the group, acting on g, is transitive on g's t-arcs (kind
    "arcs") or t-geodesics, once per process: an empty level is, else |G| =
    count * |G_r| for its first tuple r, |G_r| off the chain `_levels(r)`."""
    geodesic = kind == "geodesics"
    if (r := walks.first_tuple(g, t, geodesic)) is None:
        return True
    count = (walks.count_geodesics if geodesic else walks.count_arcs)(g, t)
    _, levels, _, _ = group._levels(r)
    return group.order == count * _chain_order(levels[len(set(r)):])


def _acting_group(g: Graph, group: AutGroup | None) -> AutGroup:
    """The given group, validated to act on g unless `from_generators` built it on g,
    or Aut(g); g must be connected.  The predicates, the library's validating entry
    points, and each check call it once."""
    if not is_connected(g):
        raise ValueError("transitivity tests need a connected graph")
    if group is None:
        return automorphisms(g)
    if group.degree != g.n:
        raise ValueError("group degree does not match the graph")
    if group._acts_on != g:
        _automorphisms_of(g, group.generators)
    return group


def is_s_arc_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """Validating entry point: g has an s-arc and the group is transitive on t-arcs, t <= s."""
    group = _acting_group(g, group)
    return walks.count_arcs(g, s) > 0 and all(
        transitive_on_level(g, "arcs", t, group) for t in range(1, s + 1))


def is_s_geodesic_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """Validating entry point: the group is transitive on i-geodesics for every i <= s."""
    group = _acting_group(g, group)
    d = diameter(g)
    if not 1 <= s <= d:
        raise ValueError(f"s={s} outside 1..diameter={d}")
    return all(transitive_on_level(g, "geodesics", i, group) for i in range(1, s + 1))
