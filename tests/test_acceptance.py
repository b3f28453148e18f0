"""Acceptance gate: one test per numbered criterion, each printing a verdict line.

Run with `pytest -v`; passing criteria announce themselves on stdout (visible
in the -rP summary), and a failure prints its FAIL line before the assertion
surfaces.  Every expected value here is either computed from scratch on both
sides or cross-checked against the independent oracles in oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from linesym.constructions import EdgeIndex, catalog, clique_graph, line_graph
from linesym.graph6 import emit_graph6, parse_graph6
from linesym.graphs import build_graph, is_complete, is_regular, isomorphic
from linesym.metrics import diameter, girth, is_connected
from linesym.symmetry import (
    AutGroup,
    Permutation,
    automorphisms,
    induced_edge_action,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitive_on,
)
from linesym.verify import (
    NOT_APPLICABLE,
    PASS,
    DEFAULT_CORPUS_NAMES,
    check_line_equivalence,
)
from linesym.walks import edge_sequences, enumerate_arcs, enumerate_geodesics
from oracles import all_geodesics, automorphism_count_backtrack, encode_graph6_reference

from conftest import cube_graph, random_connected_graph, random_cubic_no_c5


def criterion(number: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL {label}")
                raise
            dt = time.perf_counter() - t0
            note = f" ({extra})" if extra else ""
            print(f"ACCEPTANCE {number} PASS {label}{note} [{dt:.1f}s]")

        return wrapper

    return deco


def _corpus_graphs():
    return [catalog(name) for name in DEFAULT_CORPUS_NAMES]


def _s_range(g):
    return range(2, diameter(line_graph(g).graph) + 2)


def _direct_equivalence(g, s) -> tuple[bool, bool]:
    """Both sides of the central claim computed from primitives only."""
    group = automorphisms(g)
    arcs = enumerate_arcs(g, s)
    lhs = bool(arcs) and transitive_on(arcs, group)[0]
    line = line_graph(g)
    lgroup = AutGroup.from_permutations(
        line.graph.n,
        tuple(induced_edge_action(EdgeIndex.from_graph(g), p) for p in group.generators),
    )
    geos = enumerate_geodesics(line.graph, s - 1)
    rhs = 2 * s <= girth(g) + 2 and transitive_on(geos, lgroup)[0]
    return lhs, rhs


@criterion(1, "s-arc transitivity matches the half-girth + line-geodesic test")
def test_criterion_1_equivalence_suite(petersen, heawood, tutte, k33, k4, cube, cubic_fixtures):
    cases = 0
    for g in (petersen, heawood, tutte, k33, cube, *cubic_fixtures):
        for s in _s_range(g):
            r = check_line_equivalence(g, s)
            assert r.verdict == PASS, (g.name, s, r.to_record())
            cases += 1
    # complete graphs sit outside the checker's hypotheses (it must say so),
    # but the equivalence itself still has to hold when computed directly
    for s in _s_range(k4):
        assert check_line_equivalence(k4, s).verdict == NOT_APPLICABLE
        lhs, rhs = _direct_equivalence(k4, s)
        assert lhs == rhs, s
        cases += 1
    return f"{cases} (graph, s) cases over 8 hosts"


@criterion(2, "named arc-transitivity levels hit their known ceilings")
def test_criterion_2_transitivity_facts(petersen, heawood, tutte):
    assert is_s_arc_transitive(petersen, 3)
    assert not is_s_arc_transitive(petersen, 4)
    assert is_s_arc_transitive(heawood, 4)
    assert not is_s_arc_transitive(heawood, 5)
    assert is_s_arc_transitive(tutte, 5)
    assert not is_s_arc_transitive(tutte, 6)


@criterion(3, "line graphs are geodesic transitive out to their diameters")
def test_criterion_3_line_geodesic_transitivity(petersen, heawood, tutte, k4, k3_parts_of_2, icosahedron):
    lp = line_graph(petersen).graph
    assert diameter(lp) == 3 and is_s_geodesic_transitive(lp, 3)
    lh = line_graph(heawood).graph
    assert diameter(lh) == 3 and is_s_geodesic_transitive(lh, 3)
    lt = line_graph(tutte).graph
    assert diameter(lt) == 4 and is_s_geodesic_transitive(lt, 4)
    lk4 = line_graph(k4).graph
    assert isomorphic(lk4, k3_parts_of_2) is not None
    assert is_s_geodesic_transitive(lk4, 2)
    assert is_s_geodesic_transitive(icosahedron, 2)


@criterion(4, "line-graph diameter stays within one of the host diameter")
def test_criterion_4_diameter_lemma():
    t0 = time.perf_counter()
    offsets = {}
    for name in ("complete(2)", "complete(3)", "complete(4)"):
        g = catalog(name)
        offsets[name] = diameter(line_graph(g).graph) - diameter(g)
    assert [offsets[k] for k in sorted(offsets)] == [-1, 0, 1]

    for g in _corpus_graphs():
        x = diameter(line_graph(g).graph) - diameter(g)
        assert x in (-1, 0, 1), g.name

    rng = random.Random(8451)
    for i in range(1000):
        g = random_connected_graph(rng, rng.randint(4, 10), extra_p=rng.choice([0.1, 0.3, 0.6]))
        x = diameter(line_graph(g).graph) - diameter(g)
        assert x in (-1, 0, 1), (i, g.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"{elapsed:.1f}s budget blown"
    return "1000 random + catalog, offsets all in {-1,0,1}"


@criterion(5, "edge-sequence map: injective, geodesic-preserving, exact image law, equivariant")
def test_criterion_5_lmap_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(90210)
    branch_tally = {True: 0, False: 0}
    graphs = 0
    while graphs < 200:
        n = rng.randint(4, 12)
        g = random_connected_graph(rng, n, extra_p=rng.choice([0.0, 0.05, 0.15, 0.35]))
        graphs += 1
        group = automorphisms(g)
        line = line_graph(g)
        index = EdgeIndex.from_graph(g)
        induced = {p: induced_edge_action(index, p) for p in group.generators}
        dl = diameter(line.graph)
        gg = girth(g)
        d = diameter(g)
        for s in (2, 3, 4):
            arcs = enumerate_arcs(g, s)
            if not arcs:
                continue
            images = edge_sequences(g, arcs)
            assert len(set(images)) == len(images), (g.edges, s)

            if s <= d:
                geos, line_geos = enumerate_geodesics(g, s), all_geodesics(line.graph, s - 1)
                for geo, image in zip(geos, edge_sequences(g, geos)):
                    assert image in line_geos, (g.edges, s, geo)

            if s - 1 <= dl:
                equal = set(images) == set(enumerate_geodesics(line.graph, s - 1))
                predicted = gg is None or gg >= 2 * s - 2
                assert equal == predicted, (g.edges, s, equal, predicted)
                if s >= 3:
                    branch_tally[predicted] += 1

        for _ in range(50):
            sigma = group.generators[rng.randrange(len(group.generators))] if group.generators else None
            if sigma is None:
                break
            word = sigma
            for _ in range(rng.randint(0, 3)):  # word, then a random generator
                word = Permutation(group.generators[rng.randrange(len(group.generators))].apply(
                    word.images))
            arc = arcs[rng.randrange(len(arcs))] if arcs else None
            if arc is None:
                break
            left = edge_sequences(g, [word.apply(arc)])[0]
            right_action = induced.get(word)
            if right_action is None:
                right_action = induced_edge_action(index, word)
            right = right_action.apply(edge_sequences(g, [arc])[0])
            assert left == right, (g.edges, word.one_line(), arc)

    assert branch_tally[True] > 0 and branch_tally[False] > 0, branch_tally
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"{elapsed:.1f}s budget blown"
    return f"200 graphs, image-law branches true/false = {branch_tally[True]}/{branch_tally[False]}"


@criterion(6, "host and line graph share their symmetry count (5+ vertices)")
def test_criterion_6_group_order_transfer():
    frozen = {
        "petersen": 120,
        "heawood": 336,
        "complete(4)": 24,
        "k33": 72,
        "icosahedron": 120,
        "tutte_8_cage": 1440,
    }
    for name, want in sorted(frozen.items()):
        g = catalog(name)
        assert automorphisms(g).order == want, name
        assert automorphism_count_backtrack(g) == want, name

    checked = []
    for g in _corpus_graphs():
        if g.n < 5:
            continue
        host = automorphisms(g).order
        shadow = automorphisms(line_graph(g).graph).order
        assert host == shadow, (g.name, host, shadow)
        checked.append(g.name)
    assert len(checked) >= 8
    return f"orders equal on {len(checked)} hosts, six frozen values oracle-confirmed"


@criterion(7, "maximum cliques rebuild the line graph when girth allows")
def test_criterion_7_clique_graph_identity(petersen):
    rebuilt = 0
    for g in _corpus_graphs():
        gg = girth(g)
        if gg is not None and gg < 4:
            continue
        assert isomorphic(clique_graph(g).graph, line_graph(g).graph) is not None, g.name
        rebuilt += 1
    assert rebuilt >= 6
    lp = line_graph(petersen).graph
    assert isomorphic(clique_graph(lp).graph, petersen) is not None
    return f"{rebuilt} corpus hosts plus the 10-vertex reconstruction round-trip"


@criterion(8, "graph6 codec round-trips exactly, against an independent encoder")
def test_criterion_8_graph6_round_trip():
    total = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            blob = emit_graph6(g)
            assert blob == encode_graph6_reference(g)
            back = parse_graph6(blob)
            assert back.n == g.n and back.edges == g.edges
            total += 1
    assert total == 1099  # 1 + 2 + 8 + 64 + 1024 labeled graphs

    rng = random.Random(606)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, [e for e in pairs if rng.random() < rng.choice([0.1, 0.5, 0.9])])
        blob = emit_graph6(g)
        assert parse_graph6(blob).edges == g.edges
        assert blob == encode_graph6_reference(g)
    return "1099 exhaustive + 10000 random forms, all exact"


@criterion(9, "observed transitivity levels respect the published ceiling")
def test_criterion_9_weiss_ceiling():
    flagged = []
    for g in _corpus_graphs():
        k = is_regular(g)
        if not is_connected(g) or k is None or k < 3 or is_complete(g):
            continue
        line = line_graph(g)
        group = automorphisms(g)
        lgroup = AutGroup.from_permutations(
            line.graph.n,
            tuple(induced_edge_action(EdgeIndex.from_graph(g), p) for p in group.generators),
        )
        for s in _s_range(g):
            if is_s_geodesic_transitive(line.graph, s - 1, lgroup):
                assert 2 <= s <= 7, (g.name, s)
                flagged.append((g.name, s))
        assert not is_s_arc_transitive(g, 8, group), g.name
    assert flagged, "no transitive levels observed at all"
    top = max(s for _, s in flagged)
    return f"{len(flagged)} transitive levels, max s = {top}, none beyond 7"
