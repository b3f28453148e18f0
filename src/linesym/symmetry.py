"""Automorphism groups, induced edge actions, orbits, and transitivity tests.

Permutations compose in application order: (p * q) means "apply p, then q",
so acting on the right with exponent-style notation composes the obvious
way.  Group orders come from a stabilizer chain (orbit sizes multiplied down
the chain), never from enumerating elements, and the same chain draws
uniformly random elements one coset representative per level.
`automorphisms` takes its chain from the search's first path, one orbit per
base point; Schreier-Sims sifting serves only `AutGroup.from_permutations`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from . import refinement
from .constructions import EdgeIndex
from .graphs import Graph
from .metrics import diameter, is_connected
from .walks import count_arcs, count_geodesics, enumerate_arcs, enumerate_geodesics


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not form a bijection")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

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

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self, then other."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def apply(self, seq: Sequence[int]) -> tuple[int, ...]:
        """Image of a tuple under the right action, coordinate by coordinate."""
        return tuple(self.images[v] for v in seq)

    def is_identity(self) -> bool:
        return all(i == v for v, i in enumerate(self.images))


# --- stabilizer chain -------------------------------------------------------


def _compose(p, q):
    # raw tuples: apply p, then q
    return tuple(q[i] for i in p)


def _invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _transversal(point, members, identity):
    """Orbit of point under members, each orbit point t mapped to a product
    of members carrying point to t (breadth-first, so words stay short)."""
    table = {point: identity}
    frontier = [point]
    while frontier:
        nxt = []
        for pt in frontier:
            for s in members:
                img = s[pt]
                if img not in table:
                    table[img] = _compose(table[pt], s)
                    nxt.append(img)
        frontier = nxt
    return table


def _stabilizer_chain(gens: Sequence[tuple[int, ...]], n: int):
    """Deterministic chain build: levels are completed bottom-up, and a
    residue surfacing at level j sends processing back down to j.

    Returns (base, transversals); the group order is the product of the
    transversal sizes.  Each transversal maps an orbit point t to a group
    element carrying the level's base point to t.  The strong set is global:
    level i works with every strong generator fixing base[:i] pointwise, so
    a generator discovered deep in the chain still contributes to every
    shallower orbit it belongs to.
    """
    identity = tuple(range(n))
    strong: list[tuple[int, ...]] = []
    for g in gens:
        g = tuple(g)
        if g != identity and g not in strong:
            strong.append(g)
    base: list[int] = []

    def cover(p):
        # every strong generator must move some base point
        if all(p[b] == b for b in base):
            base.append(min(v for v in range(n) if p[v] != v))

    for p in strong:
        cover(p)
    trans: list[dict[int, tuple[int, ...]]] = [{} for _ in base]

    def rebuild(i):
        members = [p for p in strong if all(p[b] == b for b in base[:i])]
        trans[i] = _transversal(base[i], members, identity)
        return members

    def strip(p, start):
        for j in range(start, len(base)):
            t = p[base[j]]
            if t not in trans[j]:
                return p, j
            p = _compose(p, _invert(trans[j][t]))
        return p, len(base)

    i = len(base) - 1
    while i >= 0:
        members = rebuild(i)
        new_level = None
        for t in sorted(trans[i]):
            u = trans[i][t]
            for s in members:
                schreier = _compose(_compose(u, s), _invert(trans[i][s[t]]))
                if schreier == identity:
                    continue
                residue, j = strip(schreier, i + 1)
                if residue != identity:
                    strong.append(residue)
                    if j == len(base):
                        cover(residue)
                        trans.append({})
                    new_level = j
                    break
            if new_level is not None:
                break
        if new_level is not None:
            i = new_level
        else:
            i -= 1
    return base, trans


def _chain_order(trans) -> int:
    return math.prod(len(t) for t in trans) if trans else 1


@dataclass(frozen=True)
class AutGroup:
    """A permutation group given by generators, with an exact order."""

    degree: int
    generators: tuple[Permutation, ...]
    order: int
    _transversals: tuple = field(repr=False, compare=False, default=())

    @staticmethod
    def from_permutations(degree: int, perms: Iterable[Permutation]) -> "AutGroup":
        gens = tuple(p for p in perms if not p.is_identity())
        for p in gens:
            if p.degree != degree:
                raise ValueError("generator degree mismatch")
        _, trans = _stabilizer_chain([p.images for p in gens], degree)
        return AutGroup(degree, gens, _chain_order(trans), tuple(trans))

    @staticmethod
    def from_generators(g: Graph, perms: Iterable[Permutation]) -> "AutGroup":
        """Validating constructor: every generator must preserve g's edge set."""
        perms = tuple(perms)
        edge_set = set(g.edges)
        for p in perms:
            if p.degree != g.n:
                raise ValueError("generator degree does not match the graph")
            for u, v in g.edges:
                a, b = p(u), p(v)
                if ((a, b) if a < b else (b, a)) not in edge_set:
                    raise ValueError(f"permutation {p.one_line()!r} breaks edge {u}-{v}")
        return AutGroup.from_permutations(g.n, perms)

    def random_element(self, rng: random.Random) -> Permutation:
        """A uniformly random element of the group.

        Every element is exactly one product of coset representatives, one
        per chain level, so choosing each uniformly gives a uniform element
        (Seress, Permutation Group Algorithms, 2003, section 2).
        """
        p = tuple(range(self.degree))
        for level in reversed(self._transversals):
            p = _compose(p, rng.choice(tuple(level.values())))
        return Permutation(p)


def automorphisms(g: Graph) -> AutGroup:
    """Full automorphism group of g via the refinement search kernel."""
    return _automorphisms_cached(g)


@lru_cache(maxsize=256)
def _automorphisms_cached(g: Graph) -> AutGroup:
    # The search's generators fixing b1..b_{i-1} generate that stabilizer, so
    # each level's orbit is exact and no Schreier generator needs sifting.
    base, gens = refinement.automorphism_generators(g.adj)
    identity = tuple(range(g.n))
    levels = (_transversal(b, [p for p in gens if all(p[f] == f for f in base[:i])], identity)
              for i, b in enumerate(base))
    trans = tuple(t for t in levels if len(t) > 1)
    return AutGroup(g.n, tuple(Permutation(p) for p in gens), _chain_order(trans), trans)


def induced_edge_action(index: EdgeIndex, p: Permutation) -> Permutation:
    """Action of a host automorphism on edge ranks: {u,v} goes to {p(u),p(v)}."""
    if p.degree != index.host.n:
        raise ValueError("permutation degree does not match the host")
    images = []
    for u, v in index.edges:
        a, b = p(u), p(v)
        if not index.host.has_edge(a, b):
            raise ValueError(f"permutation {p.one_line()!r} does not preserve edges")
        images.append(index.rank_of(a, b))
    return Permutation(tuple(images))


# --- orbits and transitivity -------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
    """Orbit ids for a tuple universe, in the universe's given order."""

    universe: tuple[tuple[int, ...], ...]
    orbit_ids: tuple[int, ...]
    orbit_count: int

    def sizes(self) -> list[int]:
        counts = [0] * self.orbit_count
        for i in self.orbit_ids:
            counts[i] += 1
        return counts


def orbit_of(t: tuple[int, ...], group: AutGroup) -> set[tuple[int, ...]]:
    """Closure of one tuple under the generators, by breadth-first search."""
    gens = [p.images for p in group.generators]
    seen = {tuple(t)}
    q = deque(seen)
    while q:
        cur = q.popleft()
        for images in gens:
            img = tuple(images[v] for v in cur)
            if img not in seen:
                seen.add(img)
                q.append(img)
    return seen


def transitive_on(tuples: Sequence[tuple[int, ...]], group: AutGroup):
    """(is_transitive, OrbitPartition) for a tuple universe under the group.

    An empty universe is vacuously transitive.  Tuples reached by the action
    but missing from the universe are ignored when assigning ids, so a
    universe that is not closed under the group still gets a partition.
    """
    universe = tuple(tuples)
    pos = {t: i for i, t in enumerate(universe)}
    ids = [-1] * len(universe)
    count = 0
    for i, t in enumerate(universe):
        if ids[i] != -1:
            continue
        for member in orbit_of(t, group):
            j = pos.get(member)
            if j is not None:
                ids[j] = count
        count += 1
    part = OrbitPartition(universe, tuple(ids), count)
    return count <= 1, part


def _require_connected(g: Graph):
    if not is_connected(g):
        raise ValueError("transitivity tests need a connected graph")


def is_s_arc_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """True iff g has an s-arc and the group is transitive on t-arcs for all t <= s.

    An orbit can never outgrow the group, so when some level's arc count
    exceeds the order the test fails before anything is enumerated.
    """
    _require_connected(g)
    if s < 1:
        raise ValueError("s must be at least 1")
    group = group if group is not None else automorphisms(g)
    levels = range(1, s + 1)
    if any(not 0 < count_arcs(g, t) <= group.order for t in levels):
        return False
    return all(transitive_on(enumerate_arcs(g, t), group)[0] for t in levels)


def is_s_geodesic_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """True iff the group is transitive on i-geodesics for every i <= s."""
    _require_connected(g)
    d = diameter(g)
    if not 1 <= s <= d:
        raise ValueError(f"s={s} outside 1..diameter={d}")
    group = group if group is not None else automorphisms(g)
    levels = range(1, s + 1)
    if any(count_geodesics(g, i) > group.order for i in levels):
        return False
    return all(transitive_on(enumerate_geodesics(g, i), group)[0] for i in levels)


def is_distance_transitive(g: Graph, group: AutGroup | None = None) -> bool:
    """True iff the group is transitive on ordered pairs at each distance."""
    _require_connected(g)
    group = group if group is not None else automorphisms(g)
    d = diameter(g)
    pairs_by_dist: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
    for u in range(g.n):
        dist = g.distances(u)
        for v in range(g.n):
            pairs_by_dist[dist[v]].append((u, v))
    for pairs in pairs_by_dist:
        if pairs and not transitive_on(pairs, group)[0]:
            return False
    return True
