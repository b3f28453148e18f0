"""Automorphism groups, induced edge actions, orbits, and transitivity tests.

Permutations compose in application order: (p * q) means "apply p, then q".
Group orders come from a stabilizer chain (orbit sizes multiplied down the
chain), never from enumerating elements; the same chain draws uniformly
random elements, one coset representative per level.  Each chain level maps
every point t of its base point's orbit to an element carrying t back to
that point.  Every chain comes from one incremental Schreier-Sims routine
(Seress, Permutation Group Algorithms, 2003, section 4.2; Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, section 4.4), which
stops once its order reaches a known one, such as the search's for
`automorphisms`.  `transitive_on` splits an explicit tuple
universe into orbits; the transitivity predicates build no tuple and decide
each level by orbit-stabilizer (`transitive_on_level`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from . import walks
from .constructions import EdgeIndex
from .graphs import Graph
from .metrics import diameter, is_connected


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
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

    def apply(self, seq: Sequence[int]) -> tuple[int, ...]:
        """Image of a tuple under the right action, coordinate by coordinate."""
        return _compose(tuple(seq), self.images)

    def is_identity(self) -> bool:
        return all(i == v for v, i in enumerate(self.images))


def _getter(t):
    """images -> tuple(images[v] for v in t), in C when t has two or more
    entries (itemgetter of one index returns a scalar, of none fails)."""
    if len(t) > 1:
        return itemgetter(*t)
    return lambda images: tuple(images[v] for v in t)


def _compose(p, q):
    # raw tuples: apply p, then q (the chain's hot path, so _getter inlined)
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[v] for v in p)


# --- stabilizer chain -------------------------------------------------------


def _invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _grow(table, gens, inverse, frontier, first=0):
    """Extend an orbit table breadth-first: gens[first:] act on the frontier,
    then every generator on each point added.  A new point x = s[t] maps to
    inverse[s] composed in front of table[t], which carries x to the table's
    base point.  Returns the tree edges (t, k, x), s = gens[k], in order."""
    edges, queue, pairs = [], list(frontier), list(enumerate(gens))
    for pos, t in enumerate(queue):
        for k, s in (pairs[first:] if pos < len(frontier) else pairs):
            x = s[t]
            if x not in table:
                table[x] = _compose(inverse[s], table[t])
                edges.append((t, k, x))
                queue.append(x)
    return edges


def _sift(p, base, trans, start):
    """Strip p through the levels from start on: (residue, level it stopped at).
    A level whose base point p already fixes costs no composition."""
    for j in range(start, len(base)):
        x = p[base[j]]
        if x != base[j]:
            w = trans[j].get(x)
            if w is None:
                return p, j
            p = _compose(p, w)
    return p, len(base)


def _stabilizer_chain(gens: Sequence[tuple[int, ...]], n: int, prefix=(), order=None):
    """Incremental Schreier-Sims: (base, transversals, strong), where strong
    holds every permutation that joined a level and the order is the product
    of the transversal sizes.  The base starts with prefix, one level per
    point however short its orbit.  Given the order, the Schreier phase ends
    once the product reaches it; an incomplete chain's product falls short.
    Level i keeps its own generators S_i: a permutation sifted from level lo
    whose residue stops at level j joins S_lo..S_j, the inputs sifted from
    level 0 and a Schreier generator of level i from i+1.  Levels are
    completed bottom-up, and a residue stopping at j sends processing back
    down to j.  Orbit tables are only extended, so a settled (i, t, k) stays
    settled: its Schreier generator lies in <S_{i+1}>, which only grows.
    Tree edges wait until the Schreier phase visits their level; there each
    is settled and gives its point t the forward element (base point -> t),
    so a chain complete once its inputs are in never builds them."""
    identity = tuple(range(n))
    base, level_gens, settled, inverse = list(prefix), [[] for _ in prefix], set(), {}
    trans, fwd = [{b: identity} for b in base], [{b: identity} for b in base]
    edges = [[] for _ in base]  # tree edges (t, k, x) per level, not yet visited

    def add(p, lo):
        p, j = _sift(p, base, trans, lo)
        if p == identity:
            return None
        inverse[p] = _invert(p)
        if j == len(base):
            base.append(min(v for v in range(n) if p[v] != v))
            trans.append({base[j]: identity})
            fwd.append({base[j]: identity})
            level_gens.append([])
            edges.append([])
        for m in range(lo, j + 1):
            level = level_gens[m]
            level.append(p)
            edges[m] += _grow(trans[m], level, inverse, list(trans[m]), len(level) - 1)
        return j

    for g in gens:
        add(tuple(g), 0)
    i = len(base) - 1
    while i >= 0 and (order is None or _chain_order(trans) != order):
        for t, k, x in edges[i]:
            fwd[i][x] = _compose(fwd[i][t], level_gens[i][k])
            settled.add((i, t, k))
        edges[i].clear()
        j = None
        for t, k in ((t, k) for t in trans[i] for k in range(len(level_gens[i]))
                     if (i, t, k) not in settled):
            settled.add((i, t, k))
            s = level_gens[i][k]
            ts = _compose(fwd[i][t], s)  # the Schreier generator is ts * trans[i][s[t]]
            if ts != fwd[i][s[t]] and (j := add(_compose(ts, trans[i][s[t]]), i + 1)) is not None:
                break
        i = i - 1 if j is None else j
    return base, trans, list(inverse)


def _automorphisms_of(g: Graph, perms: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """The permutations as a tuple; ValueError unless each is an automorphism of g."""
    perms = tuple(perms)
    for p in perms:
        if p.degree != g.n:
            raise ValueError("generator degree does not match the graph")
        for u, v in g.edges:
            a, b = p(u), p(v)
            if ((a, b) if a < b else (b, a)) not in g.edge_rank:
                raise ValueError(f"permutation {p.one_line()!r} breaks edge {u}-{v}")
    return perms


def _chain_order(trans) -> int:
    return math.prod(len(t) for t in trans) if trans else 1


@dataclass(frozen=True)
class AutGroup:
    """A permutation group given by generators, with an exact order.

    `_transversals` holds the non-trivial chain levels; each level's first
    key is its base point b, and each key t maps to an element carrying t to
    b.  `_stabilizer` holds the strong generators fixing the first level's
    base point, which generate that point's stabilizer.
    """

    degree: int
    generators: tuple[Permutation, ...]
    order: int
    _transversals: tuple = field(repr=False, compare=False, default=())
    _stabilizer: tuple = field(repr=False, compare=False, default=())

    @staticmethod
    def from_permutations(degree: int, perms: Iterable[Permutation]) -> "AutGroup":
        perms = tuple(perms)
        if any(p.degree != degree for p in perms):
            raise ValueError("generator degree mismatch")
        return AutGroup._build(degree, perms)

    @staticmethod
    def _build(degree: int, perms: Iterable[Permutation], prefix=(), order=None) -> "AutGroup":
        """The group on perms from one `_stabilizer_chain`, dropping identities
        and trivial levels, which prefix levels can be."""
        gens = tuple(p for p in perms if not p.is_identity())
        _, trans, strong = _stabilizer_chain([p.images for p in gens], degree, prefix, order)
        trans = tuple(t for t in trans if len(t) > 1)
        b = next(iter(trans[0])) if trans else None
        stabilizer = tuple(p for p in strong if p[b] == b) if trans else ()
        return AutGroup(degree, gens, _chain_order(trans), trans, stabilizer)

    @staticmethod
    def from_generators(g: Graph, perms: Iterable[Permutation]) -> "AutGroup":
        """Validating constructor: every generator must preserve g's edge set."""
        return AutGroup.from_permutations(g.n, _automorphisms_of(g, perms))

    def random_element(self, rng: random.Random) -> Permutation:
        """A uniformly random element of the group.

        Every element is exactly one product of coset representatives, one
        per chain level in base order, so choosing each uniformly gives a
        uniform element (Seress, Permutation Group Algorithms, 2003,
        section 2).
        """
        p = tuple(range(self.degree))
        for level in self._transversals:
            p = _compose(p, rng.choice(tuple(level.values())))
        return Permutation(p)


@lru_cache(maxsize=256)
def automorphisms(g: Graph) -> AutGroup:
    """Full automorphism group of g.  The search's generators are strong on
    its base, so their chain reaches its order with no Schreier generator."""
    base, gens, _, order = g.search
    return AutGroup._build(g.n, map(Permutation, gens), base, order)


def induced_edge_action(index: EdgeIndex, p: Permutation) -> Permutation:
    """Action of a host automorphism on edge ranks: {u,v} goes to {p(u),p(v)}."""
    if p.degree != index.host.n:
        raise ValueError("permutation degree does not match the host")
    try:
        images = tuple(index.rank_of(p(u), p(v)) for u, v in index.edges)
    except ValueError:
        raise ValueError(f"permutation {p.one_line()!r} does not preserve edges") from None
    return Permutation(images)


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
        counts = [0] * self.orbit_count
        for i in self.orbit_ids:
            counts[i] += 1
        return counts


def _label_orbit(t, gens, label: dict, orbit_id: int, cap: int):
    """Give orbit_id to t and every tuple the generators reach from it.

    Raises EnumerationCapExceeded once label holds more than cap tuples,
    checked once per dequeued tuple.
    """
    label[t] = orbit_id
    queue = [t]
    for cur in queue:
        if len(label) > cap:
            raise walks.EnumerationCapExceeded(
                f"enumeration cap reached: more than {cap} tuples in an orbit search")
        image_of = _getter(cur)
        for images in gens:
            img = image_of(images)
            if img not in label:
                label[img] = orbit_id
                queue.append(img)


def transitive_on(tuples: Sequence[tuple[int, ...]], group: AutGroup):
    """(is_transitive, OrbitPartition) for a tuple universe under the group.

    Let b be the first base point of the group's chain and O its orbit.  A
    tuple t starting in O is moved into the fibre over b as t * w, where w
    is the level element carrying t[0] to b; two such tuples share a G-orbit
    exactly when their fibre images share an orbit of the stabilizer G_b,
    so only the fibre is searched, under G_b's strong generators.  Tuples
    starting outside O are searched under the group's generators.  Each
    orbit is searched once, from its first tuple in the universe.

    An empty universe is vacuously transitive.  The searches go through
    tuples missing from the universe, so a universe that is not closed under
    the group still gets its partition into G-orbits, and repeated tuples
    share their orbit's id.  Those searches raise EnumerationCapExceeded once
    they have labelled more than walks.ENUMERATION_CAP tuples; a closed
    universe from the enumerators stays within the cap.
    """
    universe = tuple(tuples)
    cap = walks.ENUMERATION_CAP
    gens = [p.images for p in group.generators]
    level = group._transversals[0] if group._transversals else {}
    label: dict = {}  # fibre image, or tuple starting outside O -> orbit id
    ids = []
    count = 0
    for t in universe:
        w = level.get(t[0]) if t else None
        if w is None:
            key, members = t, gens
        else:
            key = itemgetter(*t)(w) if len(t) > 1 else (w[t[0]],)
            members = group._stabilizer
        orbit_id = label.get(key)
        if orbit_id is None:
            orbit_id = count
            count += 1
            _label_orbit(key, members, label, orbit_id, cap)
        ids.append(orbit_id)
    part = OrbitPartition(universe, tuple(ids), count)
    return count <= 1, part


@lru_cache(maxsize=256)
def transitive_on_level(g: Graph, kind: str, t: int, group: AutGroup) -> bool:
    """Whether the group, acting on g, is transitive on g's t-arcs (kind
    "arcs") or t-geodesics, once per process: an empty level is, else |G| =
    count * |G_r| for its first tuple r, with G_r off a chain based at r."""
    geodesic = kind == "geodesics"
    r = walks.first_tuple(g, t, geodesic)
    if r is None:
        return True
    count = (walks.count_geodesics if geodesic else walks.count_arcs)(g, t)
    prefix = tuple(dict.fromkeys(r))
    _, trans, _ = _stabilizer_chain([p.images for p in group.generators], g.n, prefix, group.order)
    return group.order == count * _chain_order(trans[len(prefix):])


def _acting_group(g: Graph, group: AutGroup | None) -> AutGroup:
    """The given group, checked to act on g, or Aut(g); g must be connected."""
    if not is_connected(g):
        raise ValueError("transitivity tests need a connected graph")
    if group is None:
        return automorphisms(g)
    if group.degree != g.n:
        raise ValueError("group degree does not match the graph")
    _automorphisms_of(g, group.generators)
    return group


def is_s_arc_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """True iff g has an s-arc and the group is transitive on t-arcs for all t <= s."""
    group = _acting_group(g, group)
    return walks.count_arcs(g, s) > 0 and all(
        transitive_on_level(g, "arcs", t, group) for t in range(1, s + 1))


def is_s_geodesic_transitive(g: Graph, s: int, group: AutGroup | None = None) -> bool:
    """True iff the group is transitive on i-geodesics for every i <= s."""
    group = _acting_group(g, group)
    d = diameter(g)
    if not 1 <= s <= d:
        raise ValueError(f"s={s} outside 1..diameter={d}")
    return all(transitive_on_level(g, "geodesics", i, group) for i in range(1, s + 1))
