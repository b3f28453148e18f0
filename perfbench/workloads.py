"""The benchmark's three workloads: inputs, operations and expected answers.

Every workload draws its inputs from the seed in one way only: each input
graph is relabelled by a random vertex permutation.  Every expected answer
(corpus records, group orders, orbit counts) is invariant under relabelling,
so one table of answers serves every seed.

A workload is built once per set-up from freshly imported linesym modules
(`ls`).  `Workload.prepare()` then returns the operations of one pass over
fresh copies of the inputs, so that no `cached_property` value carries over
from an earlier pass.  Operations look library functions up through their
module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CORPUS_EXPECTED = Path(__file__).resolve().parent / "corpus_expected.jsonl"


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its answer (the check is not timed)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    budget_s: float  # an operation running longer than this counts as failed
    prepare: Callable[[], list[Op]]


def relabel(ls, g, rng: random.Random):
    """g with vertex v renamed perm[v], and perm."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = ls.graphs.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], name=g.name)
    return h, perm


# The cost of a search, and of orbit work with the group it finds, depends on
# the labelling: up to 2x for one cycle, 10-20% for an orbit query.  So the
# aut-families and orbits workloads give each input graph under LABELLINGS
# distinct labellings, and no single labelling moves a total or a percentile
# much.  A complete graph has only one labelling.
LABELLINGS = 3


def labellings(ls, g, rng: random.Random) -> list:
    """Up to LABELLINGS distinct relabellings of g, each with its perm."""
    out = {}
    for _ in range(4 * LABELLINGS):
        h, perm = relabel(ls, g, rng)
        out.setdefault(h, perm)
        if len(out) == LABELLINGS:
            break
    return list(out.items())


def conjugate(images, perm) -> tuple[int, ...]:
    """A permutation given on the original labels, moved onto perm's labels."""
    out = [0] * len(images)
    for v, w in enumerate(images):
        out[perm[v]] = perm[w]
    return tuple(out)


def fresh(ls, g):
    """An equal Graph object with none of its cached properties computed."""
    return ls.graphs.Graph(g.n, g.adj, g.name)


# --- corpus -------------------------------------------------------------------
#
# The records of `linesym corpus run --all` at the commit that introduced the
# benchmark, without `seconds` and with orbit-size lists sorted.  One
# operation produces one record through the public checker for its claim.
# The three gated records with `"s": null` are made by `run_corpus` on a
# one-graph corpus, the only public call that produces them.

CHECKERS = {
    "thm-1.3": "check_line_equivalence",
    "lemma-2.2": "check_diameter_lemma",
    "subdiv-diam": "check_subdivision_diameter",
    "thm-3.2": "check_lmap_theorem",
    "thm-1.1": "classify_valency4_girth3",
    "cor-1.2": "check_locally_cyclic",
    "cor-1.4": "check_weiss_flag",
}
GATED_CHECK_NAMES = {"thm-1.3": "thm13", "thm-3.2": "thm32", "cor-1.4": "weiss"}


def normalise_record(report) -> dict:
    rec = json.loads(json.dumps(report.to_record(), default=list))
    del rec["seconds"]
    sizes = rec["details"].get("two_geodesic_orbit_sizes")
    if sizes is not None:
        sizes.sort()
    return rec


def corpus_call(ls, rec, g):
    verify = ls.verify
    claim, params = rec["claim"], rec["params"]
    if "s" in params and params["s"] is None:
        check = GATED_CHECK_NAMES[claim]
        return lambda: verify.run_corpus(verify.Corpus(((g.name, g),)), [check])
    name = CHECKERS[claim]
    if "s" in params:
        return lambda: getattr(verify, name)(g, params["s"])
    return lambda: getattr(verify, name)(g)


def corpus_check(expected):
    def check(result) -> bool:
        if isinstance(result, list):
            if len(result) != 1:
                return False
            result = result[0]
        return normalise_record(result) == expected
    return check


def corpus(ls, seed: int) -> Workload:
    expected = [json.loads(line) for line in CORPUS_EXPECTED.read_text().splitlines()]
    rng = random.Random(seed)
    names = sorted({rec["graph"] for rec in expected})
    hosts = {name: relabel(ls, ls.constructions.catalog(name), rng)[0] for name in names}

    def prepare() -> list[Op]:
        graphs = {name: fresh(ls, g) for name, g in hosts.items()}
        return [
            Op(f"{rec['claim']} {rec['graph']} {rec['params']}",
               corpus_call(ls, rec, graphs[rec["graph"]]), corpus_check(rec))
            for rec in expected
        ]

    return Workload(10.0, prepare)


# --- aut-families ---------------------------------------------------------------
#
# `automorphisms()` over dense ladders of growing size.  Expected orders are
# closed forms, not values from the code under test: 2n for cycles, 2^d d! for
# hypercubes, n! for complete graphs, (b!)^m m! for complete multipartite
# graphs, n! for Kneser graphs K(n, k) with n > 2k, and, by Whitney's theorem,
# |Aut L(G)| = |Aut G| for a connected host with at least 5 vertices.
#
# Dense ladders spread the time over many members, each under LABELLINGS
# labellings.  No two members are isomorphic and the labellings of a member
# are distinct, so no call is answered from the cache.


def hypercube(ls, d: int):
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d)]
    return ls.graphs.build_graph(n, edges, name=f"Q{d}")


def kneser(ls, n: int, k: int):
    subsets = list(itertools.combinations(range(n), k))
    edges = [(i, j) for i, j in itertools.combinations(range(len(subsets)), 2)
             if not set(subsets[i]) & set(subsets[j])]
    return ls.graphs.build_graph(len(subsets), edges, name=f"K({n},{k})")


def iterated_line(ls, g, times: int):
    for _ in range(times):
        g = ls.constructions.line_graph(g).graph
    return g


def aut_family_members(ls) -> list[tuple[object, int]]:
    """(graph, expected |Aut|) for every ladder member, smallest first per family."""
    cat = ls.constructions.catalog
    f = math.factorial
    members = []
    for n in (8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 20, 24, 29, 34, 41, 50, 60, 72, 86, 103,
              124, 149, 179):
        members.append((cat(f"cycle({n})"), 2 * n))
    for d in range(3, 7):
        members.append((hypercube(ls, d), 2**d * f(d)))
    for n in range(4, 17):
        members.append((cat(f"complete({n})"), f(n)))
    for m, b in ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (3, 5),
                 (4, 2), (4, 3), (4, 4), (4, 5), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3),
                 (7, 2), (7, 3), (8, 2)):
        members.append((cat(f"complete_multipartite({m},{b})"), f(b) ** m * f(m)))
    for n, k in ((5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (7, 3), (8, 3),
                 (9, 3)):
        members.append((kneser(ls, n, k), f(n)))
    for d, times in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2)):
        members.append((iterated_line(ls, hypercube(ls, d), times), 2**d * f(d)))
    for times in (1, 2, 3):
        members.append((iterated_line(ls, cat("petersen"), times), 120))
    for n, times in ((5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1), (5, 2), (6, 2), (5, 3)):
        members.append((iterated_line(ls, cat(f"complete({n})"), times), f(n)))
    for b, times in ((3, 1), (4, 1), (5, 1), (6, 1), (3, 2), (4, 2)):
        host = cat(f"complete_multipartite(2,{b})")
        members.append((iterated_line(ls, host, times), 2 * f(b) ** 2))
    for n in (15, 31, 63, 127):
        members.append((iterated_line(ls, cat(f"cycle({n})"), 1), 2 * n))
    return members


def aut_families(ls, seed: int) -> Workload:
    rng = random.Random(seed)
    members = [(h, order) for g, order in aut_family_members(ls)
               for h, _ in labellings(ls, g, rng)]
    symmetry = ls.symmetry

    def prepare() -> list[Op]:
        ops = []
        for g, order in members:
            h = fresh(ls, g)
            ops.append(Op(f"automorphisms {g.name}",
                          lambda h=h: symmetry.automorphisms(h).order,
                          lambda got, order=order: got == order))
        return ops

    return Workload(20.0, prepare)


# --- orbits -----------------------------------------------------------------------
#
# Orbit-count queries with the group given, so no search is timed.  Each host
# comes under LABELLINGS labellings, and the full group of each is computed
# once during set-up.  Three kinds:
#   full      host arcs or geodesics under the full group;
#   induced   line-graph (s-1)-geodesics under the induced edge action, whose
#             chain is rebuilt from the full group's generators each time;
#   subgroup  host tuples under a subgroup given by explicit generators
#             through AutGroup.from_generators, the CLI's --group path.
# Counts were taken at the commit that introduced the benchmark and checked
# against an independent union-find over generator images.


def tutte_subgroup_gens(ls) -> list[tuple[int, ...]]:
    """S6 acting on the duads and synthemes that label tutte_8_cage."""
    duads = list(itertools.combinations(range(6), 2))
    g = ls.constructions.catalog("tutte_8_cage")
    lines = []
    for j in range(15, 30):
        lines.append(tuple(sorted(duads[p] for p in g.adj[j])))
    gens = []
    for sigma in ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)):
        def img(pair):
            return tuple(sorted(sigma[x] for x in pair))
        points = [duads.index(img(p)) for p in duads]
        blocks = [15 + lines.index(tuple(sorted(img(p) for p in line))) for line in lines]
        gens.append(tuple(points + blocks))
    return gens


def subgroup_gens(ls, host: str) -> list[tuple[int, ...]]:
    if host.startswith("Q"):
        d = int(host[1:])
        return [tuple(v ^ (1 << b) for v in range(1 << d)) for b in range(d)]
    if host == "petersen":
        # rotation of the 5 symbols, acting on their 2-subsets
        pairs = list(itertools.combinations(range(5), 2))
        return [tuple(pairs.index(tuple(sorted(((a + 1) % 5, (b + 1) % 5))))
                      for a, b in pairs)]
    if host == "heawood":
        return [tuple([(p + 1) % 7 for p in range(7)] + [7 + (i + 1) % 7 for i in range(7)])]
    if host == "tutte_8_cage":
        return tutte_subgroup_gens(ls)
    raise ValueError(f"no subgroup defined for {host}")


HOSTS = ("petersen", "heawood", "tutte_8_cage", "Q4", "Q5", "Q6")

# (host, kind, tuples) -> {s: expected orbit count}.  Induced queries use the
# (s-1)-geodesics of the line graph.
ORBIT_COUNTS = {
    ("petersen", "full", "arcs"): {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 8},
    ("petersen", "subgroup", "arcs"): {1: 6, 2: 12, 3: 24, 4: 48, 5: 96, 6: 192},
    ("petersen", "full", "geodesics"): {1: 1, 2: 1},
    ("petersen", "subgroup", "geodesics"): {1: 6, 2: 12},
    ("petersen", "induced", "geodesics"): {2: 1, 3: 1, 4: 1},
    ("heawood", "full", "arcs"): {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 4},
    ("heawood", "subgroup", "arcs"): {1: 6, 2: 12, 3: 24, 4: 48, 5: 96, 6: 192},
    ("heawood", "full", "geodesics"): {1: 1, 2: 1, 3: 1},
    ("heawood", "subgroup", "geodesics"): {1: 6, 2: 12, 3: 24},
    ("heawood", "induced", "geodesics"): {2: 1, 3: 1, 4: 1},
    ("tutte_8_cage", "full", "arcs"): {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2},
    ("tutte_8_cage", "subgroup", "arcs"): {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 4},
    ("tutte_8_cage", "full", "geodesics"): {1: 1, 2: 1, 3: 1, 4: 1},
    ("tutte_8_cage", "subgroup", "geodesics"): {1: 2, 2: 2, 3: 2, 4: 2},
    ("tutte_8_cage", "induced", "geodesics"): {2: 1, 3: 1, 4: 1, 5: 1},
    ("Q4", "full", "arcs"): {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 41},
    ("Q4", "subgroup", "arcs"): {1: 4, 2: 12, 3: 36, 4: 108, 5: 324, 6: 972},
    ("Q4", "full", "geodesics"): {1: 1, 2: 1, 3: 1, 4: 1},
    ("Q4", "subgroup", "geodesics"): {1: 4, 2: 12, 3: 24, 4: 24},
    ("Q4", "induced", "geodesics"): {2: 1, 3: 2, 4: 2, 5: 1},
    ("Q5", "full", "arcs"): {1: 1, 2: 1, 3: 2, 4: 5, 5: 15},
    ("Q5", "subgroup", "arcs"): {1: 5, 2: 20, 3: 80, 4: 320, 5: 1280},
    ("Q5", "full", "geodesics"): {1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
    ("Q5", "subgroup", "geodesics"): {1: 5, 2: 20, 3: 60, 4: 120, 5: 120},
    ("Q5", "induced", "geodesics"): {2: 1, 3: 2, 4: 2, 5: 2, 6: 1},
    ("Q6", "full", "arcs"): {2: 1},
    ("Q6", "full", "geodesics"): {2: 1, 4: 1, 6: 1},
    ("Q6", "subgroup", "geodesics"): {2: 30, 4: 360},
    ("Q6", "induced", "geodesics"): {2: 1, 3: 2},
}


def build_host(ls, name: str):
    if name.startswith("Q"):
        return hypercube(ls, int(name[1:]))
    return ls.constructions.catalog(name)


def orbit_call(ls, kind, tuples, s, g, line, index, group, gens):
    symmetry, walks = ls.symmetry, ls.walks

    def universe(graph, length):
        if tuples == "arcs":
            return walks.enumerate_arcs(graph, length)
        return walks.enumerate_geodesics(graph, length)

    if kind == "full":
        return lambda: symmetry.transitive_on(universe(g, s), group)[1].orbit_count
    if kind == "induced":
        def induced():
            images = tuple(symmetry.induced_edge_action(index, p) for p in group.generators)
            lgroup = symmetry.AutGroup.from_permutations(len(index), images)
            return symmetry.transitive_on(universe(line, s - 1), lgroup)[1].orbit_count
        return induced

    def subgroup():
        perms = [symmetry.Permutation(p) for p in gens]
        sub = symmetry.AutGroup.from_generators(g, perms)
        return symmetry.transitive_on(universe(g, s), sub)[1].orbit_count
    return subgroup


def orbits(ls, seed: int) -> Workload:
    rng = random.Random(seed)
    hosts = []  # (name, graph, line graph, full group, subgroup generators)
    for name in HOSTS:
        for g, perm in labellings(ls, build_host(ls, name), rng):
            gens = [conjugate(p, perm) for p in subgroup_gens(ls, name)]
            line = ls.constructions.line_graph(g).graph
            hosts.append((name, g, line, ls.symmetry.automorphisms(g), gens))

    def prepare() -> list[Op]:
        ops = []
        for name, g, line, group, gens in hosts:
            h = fresh(ls, g)
            index = ls.constructions.EdgeIndex.from_graph(h)
            inputs = (h, fresh(ls, line), index, group, gens)
            for (host, kind, tuples), counts in ORBIT_COUNTS.items():
                if host != name:
                    continue
                for s, count in counts.items():
                    ops.append(Op(f"{kind} {tuples} {name} s={s}",
                                  orbit_call(ls, kind, tuples, s, *inputs),
                                  lambda got, count=count: got == count))
        return ops

    return Workload(10.0, prepare)


WORKLOADS = {"corpus": corpus, "aut-families": aut_families, "orbits": orbits}
