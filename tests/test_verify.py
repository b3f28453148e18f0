import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linesym.symmetry
import linesym.verify
import linesym.walks
from linesym.constructions import EdgeIndex, catalog, line_graph
from linesym.graph6 import emit_graph6
from linesym.graphs import build_graph
from linesym.metrics import diameter, girth
from linesym.symmetry import (
    AutGroup,
    Permutation,
    _chain_order,
    _edge_group,
    _stabilizer_chain,
    automorphisms,
    induced_edge_action,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitive_on_level,
)
from linesym.verify import (
    DEFAULT_CORPUS_NAMES,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Corpus,
    check_diameter_lemma,
    check_line_equivalence,
    check_lmap_theorem,
    check_locally_cyclic,
    check_subdivision_diameter,
    check_weiss_flag,
    classify_valency4_girth3,
    format_records,
    format_table,
    graph_label,
    has_failures,
    run_corpus,
    write_report,
)
from linesym.walks import count_arcs, edge_sequences, enumerate_arcs, enumerate_geodesics
from oracles import all_arcs, all_geodesics

from conftest import (
    circulant,
    connected_atlas,
    cube_graph,
    random_connected_graph,
    triangulated_torus,
)

GOLDEN_RECORDS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus_expected.jsonl"


# -- thm-1.3 ---------------------------------------------------------------------


def test_equivalence_petersen_s3(petersen):
    r = check_line_equivalence(petersen, 3)
    assert r.verdict == PASS
    assert r.lhs is True and r.rhs is True
    assert r.details["girth"] == 5
    assert r.details["half_girth_ok"] is True
    assert r.details["lhs_all_levels"] is True
    assert r.witness is None


def test_equivalence_petersen_s4(petersen):
    r = check_line_equivalence(petersen, 4)
    assert r.verdict == PASS
    assert r.lhs is False and r.rhs is False
    assert r.details["half_girth_ok"] is False  # 8 > 7


def test_equivalence_heawood_s4(heawood):
    r = check_line_equivalence(heawood, 4)
    assert r.verdict == PASS
    assert r.lhs is True and r.rhs is True
    assert r.details["girth"] == 6
    assert r.details["line_geodesic_transitive"] is True


def test_equivalence_gates():
    r = check_line_equivalence(build_graph(4, [(0, 1), (2, 3)]), 2)
    assert r.verdict == NOT_APPLICABLE and "connected" in r.details["reason"]
    r = check_line_equivalence(catalog("path(3)"), 2)
    assert r.verdict == NOT_APPLICABLE and "regular" in r.details["reason"]
    r = check_line_equivalence(catalog("complete(4)"), 2)
    assert r.verdict == NOT_APPLICABLE and "complete" in r.details["reason"]
    r = check_line_equivalence(catalog("cycle(6)"), 2)
    assert r.verdict == NOT_APPLICABLE and "valency" in r.details["reason"]
    r = check_line_equivalence(catalog("petersen"), 9)
    assert r.verdict == NOT_APPLICABLE and "9" in r.details["reason"]


def test_equivalence_accepts_proper_subgroup(petersen):
    """The claim quantifies over subgroups: with the trivial group both sides
    must come out false, and the equivalence still holds."""
    trivial = AutGroup.from_permutations(10, (Permutation(tuple(range(10))),))
    r = check_line_equivalence(petersen, 2, group=trivial)
    assert r.verdict == PASS
    assert r.lhs is False and r.rhs is False
    assert r.details["group_order"] == 1


def test_equivalence_report_shape(petersen):
    r = check_line_equivalence(petersen, 2)
    rec = r.to_record()
    assert rec["claim"] == "thm-1.3"
    assert rec["graph"] == "petersen"
    assert rec["params"] == {"s": 2}
    assert rec["seconds"] >= 0
    json.dumps(rec)  # must serialize untouched


@pytest.mark.parametrize("checker, host", [
    (lambda g, grp: check_line_equivalence(g, 2, grp), "petersen"),
    (lambda g, grp: check_lmap_theorem(g, 2, grp), "petersen"),
    (lambda g, grp: check_weiss_flag(g, 2, grp), "petersen"),
    (classify_valency4_girth3, "complete_multipartite(3,2)"),
    (check_locally_cyclic, "complete_multipartite(3,2)"),
], ids=["thm-1.3", "thm-3.2", "cor-1.4", "thm-1.1", "cor-1.2"])
def test_checkers_reject_a_group_that_does_not_act_on_the_graph(checker, host):
    """Checked before anything is decided under it, so nothing is cached."""
    linesym.symmetry.transitive_on_level.cache_clear()  # far from its bound
    g = catalog(host)
    assert checker(g, None).verdict == PASS  # the host gets past the gates
    u, v = g.edges[0]
    swap = list(range(g.n))
    swap[u], swap[v] = v, u
    breaks_an_edge = AutGroup.from_permutations(g.n, [Permutation(tuple(swap))])
    with pytest.raises(ValueError):
        AutGroup.from_generators(g, breaks_an_edge.generators)
    wrong_degrees = [AutGroup.from_permutations(n, [Permutation((1, 0) + tuple(range(2, n)))])
                     for n in (g.n - 1, g.n + 1)]
    decided = linesym.symmetry.transitive_on_level.cache_info().currsize
    for group in (*wrong_degrees, breaks_an_edge):
        with pytest.raises(ValueError):
            checker(g, group)
    assert linesym.symmetry.transitive_on_level.cache_info().currsize == decided


def test_a_check_validates_its_group_once(monkeypatch, petersen):
    """A check validates a caller's group in its `_acting_group` and reads
    every level under it from `transitive_on_level`, so no check validates a
    group the package built (the default corpus validates none), and thm-1.3
    and cor-1.4 validate a caller's group once.  A work count does not vary
    between machines, so this guard cannot flake."""
    validate, calls = linesym.symmetry._automorphisms_of, []
    monkeypatch.setattr(linesym.symmetry, "_automorphisms_of",
                        lambda g, perms: calls.append(g) or validate(g, perms))
    assert {r.verdict for r in run_corpus(Corpus.default())} == {PASS, NOT_APPLICABLE}
    counts, group = [len(calls)], automorphisms(petersen)
    for check in (check_line_equivalence, check_weiss_flag):
        assert check(petersen, 3, group).verdict == PASS
        counts.append(len(calls) - sum(counts))
    assert counts == [0, 1, 1] and set(calls) == {petersen}


# -- lemma-2.2 and the subdivision variant ------------------------------------------


@pytest.mark.parametrize("name, x", [("complete(2)", -1), ("complete(3)", 0), ("complete(4)", 1)])
def test_diameter_lemma_realizes_all_three_offsets(name, x):
    r = check_diameter_lemma(catalog(name))
    assert r.verdict == PASS
    assert r.details["x"] == x


def test_diameter_lemma_cycle():
    r = check_diameter_lemma(catalog("cycle(9)"))
    assert r.verdict == PASS and r.details["x"] == 0


def test_diameter_lemma_gates():
    assert check_diameter_lemma(build_graph(3, [(0, 1)])).verdict == NOT_APPLICABLE
    assert check_diameter_lemma(build_graph(2, [])).verdict == NOT_APPLICABLE


def test_the_diameter_checks_need_an_edge_and_a_connected_graph():
    k1, split = catalog("complete(1)"), build_graph(4, [(0, 1), (2, 3)])
    reasons = [check_diameter_lemma(k1), check_subdivision_diameter(k1),
               check_subdivision_diameter(split)]
    assert [(r.claim, r.verdict, r.details) for r in reasons] == [
        ("lemma-2.2", NOT_APPLICABLE, {"reason": "graph has no edge"}),
        ("subdiv-diam", NOT_APPLICABLE, {"reason": "graph has no edge"}),
        ("subdiv-diam", NOT_APPLICABLE, {"reason": "graph is not connected"}),
    ]


def test_subdivision_deltas():
    # S(P3) = P6 stretches exactly 2x; S(C5) = C10 gains the odd leftover;
    # S(K4) puts disjoint edge-midpoints at distance 4 against diameter 1
    assert check_subdivision_diameter(catalog("path(3)")).details["delta"] == 0
    assert check_subdivision_diameter(catalog("cycle(5)")).details["delta"] == 1
    assert check_subdivision_diameter(catalog("complete(4)")).details["delta"] == 2
    assert check_subdivision_diameter(catalog("petersen")).details["delta"] == 2


# -- thm-3.2 ---------------------------------------------------------------------


def test_lmap_check_k4(k4):
    r = check_lmap_theorem(k4, 3)
    assert r.verdict == PASS
    assert r.lhs["injective"] is True
    assert r.lhs["image_equals_geodesics"] is False
    assert r.rhs["image_equals_geodesics"] is False  # girth 3 < 4


def test_lmap_check_c7_bijective():
    r = check_lmap_theorem(catalog("cycle(7)"), 3)
    assert r.verdict == PASS
    assert r.lhs["onto_line_arcs"] is True
    assert r.rhs["onto_line_arcs"] is True


def test_lmap_check_heawood_equality(heawood):
    r = check_lmap_theorem(heawood, 4)
    assert r.verdict == PASS
    assert r.lhs["image_equals_geodesics"] is True  # girth 6 >= 6


def test_lmap_check_under_the_trivial_group_samples_the_identity(petersen):
    """A group with no generator still gives the sampler an element to draw,
    the identity, and every one of its pairs commutes."""
    r = check_lmap_theorem(petersen, 3, AutGroup.from_permutations(petersen.n, ()))
    assert r.verdict == PASS and r.lhs["equivariant"] is True
    assert r.details["sampled_pairs"] == 50


def test_lmap_check_gates(petersen):
    assert check_lmap_theorem(petersen, 1).verdict == NOT_APPLICABLE
    assert check_lmap_theorem(build_graph(4, [(0, 1), (2, 3)]), 2).verdict == NOT_APPLICABLE
    assert check_lmap_theorem(catalog("path(2)"), 3).verdict == NOT_APPLICABLE


def test_lmap_check_degenerate_diameter_region(k4):
    # s = 4 on K4: the line graph has diameter 2, so the image comparison is
    # out of the theorem's range and must be skipped, not failed
    r = check_lmap_theorem(k4, 4)
    assert r.verdict == PASS
    assert r.lhs["image_equals_geodesics"] is None
    assert r.rhs["image_equals_geodesics"] is None


@pytest.mark.parametrize("name, s", [("tutte_8_cage", 5), ("complete(4)", 4)])
def test_lmap_check_builds_one_tuple_list(name, s, monkeypatch):
    # On K4 at s = 4, s - 1 exceeds the line graph's diameter.
    calls = []
    enumerate_ = linesym.walks._enumerate

    def recorded(g, t, geodesic):
        calls.append((g, t, geodesic))
        return enumerate_(g, t, geodesic)

    mapped = []

    def bulk(host, arcs):
        mapped.append(len(arcs))
        return edge_sequences(host, arcs)

    monkeypatch.setattr(linesym.walks, "_enumerate", recorded)
    monkeypatch.setattr(linesym.verify, "edge_sequences", bulk)
    g = catalog(name)
    assert check_lmap_theorem(g, s).verdict == PASS
    assert calls == [(g, s, False)]  # the host's s-arcs, once
    assert mapped == [count_arcs(g, s)]  # and mapped in one call, never arc by arc


def _lmap_facts_tuple_by_tuple(g, s):
    """thm-3.2's observed facts, one tuple at a time against the oracle sets,
    with equivariance checked on every generator and every s-arc."""
    line = g.line
    arcs = enumerate_arcs(g, s)
    images = [edge_sequences(g, [a])[0] for a in arcs]
    image_set = set(images)
    host_geos = enumerate_geodesics(g, s) if s <= diameter(g) else []
    line_arcs, line_geos = all_arcs(line, s - 1), all_geodesics(line, s - 1)
    facts = {
        "injective": len(image_set) == len(images),
        "images_are_arcs": image_set <= line_arcs,
        "onto_line_arcs": image_set == line_arcs,
        "geodesics_preserved": all(edge_sequences(g, [p])[0] in line_geos for p in host_geos),
        "image_covers_geodesics": None,
        "image_equals_geodesics": None,
    }
    if s - 1 <= diameter(line):
        facts["image_covers_geodesics"] = line_geos <= image_set
        facts["image_equals_geodesics"] = image_set == line_geos
    index = EdgeIndex.from_graph(g)
    actions = [(p, induced_edge_action(index, p)) for p in automorphisms(g).generators]
    image = dict(zip(arcs, images))
    facts["equivariant"] = all(image[p.apply(a)] == q.apply(image[a])
                               for p, q in actions for a in arcs)
    return facts


def _host(shape, n, rnd):
    if shape == "path":
        return build_graph(n, [(v, v + 1) for v in range(n - 1)])
    if shape == "cycle":
        return build_graph(n, [(v, (v + 1) % n) for v in range(n)])
    g = random_connected_graph(rnd, n, extra_p=0.0 if shape == "tree" else 0.3)
    if shape == "girth 3":
        g = build_graph(n, g.edges + ((0, 1), (1, 2), (0, 2)))
    return g


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("tree", "path", "cycle", "random", "girth 3")), st.integers(3, 9),
       st.integers(2, 5), st.randoms(use_true_random=False))
def test_lmap_check_matches_the_tuple_by_tuple_facts(shape, n, s, rnd):
    g = _host(shape, n, rnd)
    r = check_lmap_theorem(g, s)
    if r.verdict == NOT_APPLICABLE:
        assert not enumerate_arcs(g, s)
        return
    facts = _lmap_facts_tuple_by_tuple(g, s)
    assert r.lhs == facts
    assert r.verdict == PASS
    # Under a given subgroup the sampler draws from it, and the facts stay the same.
    subgroup = AutGroup.from_generators(g, automorphisms(g).generators[:1])
    assert check_lmap_theorem(g, s, subgroup).lhs == facts


# -- thm-1.1 ---------------------------------------------------------------------


def test_classify_octahedral_branch(k3_parts_of_2):
    r = classify_valency4_girth3(k3_parts_of_2)
    assert r.verdict == PASS
    assert r.lhs is True and r.rhs is True
    assert r.details["octahedral_form"] is True


def test_classify_line_of_petersen_branch(petersen):
    r = classify_valency4_girth3(line_graph(petersen).graph)
    assert r.verdict == PASS
    assert r.lhs is True and r.rhs is True
    assert r.details["cubic_preimage"] is True
    assert r.details["clique_graph_order"] == 10
    assert r.details["clique_graph_3_arc_transitive"] is True


def test_classify_line_of_cube_negative(cube):
    # cube is cubic girth 4 but only 2-arc transitive, so its line graph
    # cannot be 2-geodesic transitive; both sides false, checker passes
    r = classify_valency4_girth3(line_graph(cube).graph)
    assert r.verdict == PASS
    assert r.lhs is False and r.rhs is False


def test_classify_vertex_transitive_non_example():
    r = classify_valency4_girth3(circulant(9, (1, 2)))
    assert r.verdict == PASS
    assert r.lhs is False and r.rhs is False
    assert len(r.details["two_geodesic_orbit_sizes"]) >= 2


def test_classify_gates(petersen, icosahedron, k4):
    assert classify_valency4_girth3(petersen).verdict == NOT_APPLICABLE
    assert classify_valency4_girth3(icosahedron).verdict == NOT_APPLICABLE
    assert classify_valency4_girth3(k4).verdict == NOT_APPLICABLE
    assert classify_valency4_girth3(catalog("k33")).verdict == NOT_APPLICABLE


def test_classify_and_locally_cyclic_need_a_connected_graph():
    split = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for r, claim in ((classify_valency4_girth3(split), "thm-1.1"),
                     (check_locally_cyclic(split), "cor-1.2")):
        assert (r.claim, r.verdict, r.details) == (
            claim, NOT_APPLICABLE, {"reason": "graph is not connected"})


def test_line_petersen_third_sphere_structure(petersen):
    """Every 2-geodesic (u, v, w) of L(Petersen) sees exactly one vertex of
    w's neighborhood in the third distance cell around u."""
    lp = line_graph(petersen).graph
    for u, v, w in enumerate_geodesics(lp, 2):
        dist = lp.distances(u)
        assert sum(dist[x] == 3 for x in lp.adj[w]) == 1


# -- cor-1.2 ---------------------------------------------------------------------


def test_locally_cyclic_positive_cases(k3_parts_of_2, icosahedron):
    for g in (k3_parts_of_2, icosahedron):
        r = check_locally_cyclic(g)
        assert r.verdict == PASS
        assert r.lhs is True and r.rhs is True


def test_locally_cyclic_torus_negative():
    r = check_locally_cyclic(triangulated_torus())
    assert r.verdict == PASS
    assert r.lhs is False and r.rhs is False
    assert r.details["local_cycle_length"] == 6


def test_locally_cyclic_gates(petersen):
    assert check_locally_cyclic(petersen).verdict == NOT_APPLICABLE
    assert check_locally_cyclic(catalog("complete(4)")).verdict == NOT_APPLICABLE


# -- cor-1.4 ---------------------------------------------------------------------


def test_weiss_flag_first_branch(tutte, heawood):
    r = check_weiss_flag(tutte, 5)
    assert r.verdict == PASS and r.lhs is True
    r = check_weiss_flag(heawood, 4)
    assert r.verdict == PASS and r.lhs is True


@pytest.mark.parametrize("s", [1, 5])
def test_weiss_flag_na_outside_the_line_diameter_range(petersen, s):
    # L(Petersen) has diameter 3, so the flag is read at s = 2..4
    r = check_weiss_flag(petersen, s)
    assert (r.verdict, r.details) == (
        NOT_APPLICABLE, {"reason": f"s={s} outside 2..diam(L)+1=4"})


def test_weiss_flag_na_when_line_not_transitive(cubic_fixtures):
    g = cubic_fixtures[0]
    r = check_weiss_flag(g, 2)
    assert r.verdict == NOT_APPLICABLE
    assert "geodesic transitive" in r.details["reason"]


# -- corpus runner ------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_reports():
    return run_corpus(Corpus.default())


def test_default_corpus_never_fails(default_reports):
    assert not has_failures(default_reports)
    assert any(r.verdict == PASS for r in default_reports)


def test_every_check_passes_on_the_connected_atlas():
    """Every check of `CHECKS` over the 996 connected graphs of networkx's
    atlas (1 to 7 vertices): no record fails."""
    corpus = Corpus(tuple((f"atlas:{k}", g) for k, g in enumerate(connected_atlas())))
    reports = run_corpus(corpus)
    assert len(reports) == 8571
    assert {r.verdict for r in reports} == {PASS, NOT_APPLICABLE}


def test_thm13_holds_with_no_gate_on_the_connected_atlas():
    """The abstract states thm-1.3 for any graph and any G <= Aut(g); the check
    gates it to regular non-complete hosts of valency 3 or more.  With no gate,
    on each connected atlas graph with two or more edges and each
    2 <= s <= diam(L)+1, G is transitive on the s-arcs (some existing) exactly
    when the half-girth bound holds, a forest's girth infinite, and the induced
    group is transitive on L's (s-1)-geodesics.  That holds under Aut(g) and
    under the subgroups generated by four seeded random subsets of the
    search's generators per graph, the trivial group among them."""
    rng, cases, trivial = random.Random(1), [0] * 5, 0  # cases per group of a graph
    for g in connected_atlas():
        if g.m < 2:
            continue
        gens = tuple(map(Permutation, g.search[1]))
        subgroups = [AutGroup.from_permutations(g.n, [p for p in gens if rng.random() < 0.5])
                     for _ in range(4)]
        trivial += sum(not group.generators for group in subgroups)
        gg = girth(g)
        for k, group in enumerate((automorphisms(g), *subgroups)):
            lgroup = _edge_group(g, g.edges, g.edge_rank, group)
            for s in range(2, diameter(g.line) + 2):
                lhs = count_arcs(g, s) > 0 and transitive_on_level(g, "arcs", s, group)
                rhs = ((gg is None or 2 * s <= gg + 2)
                       and transitive_on_level(g.line, "geodesics", s - 1, lgroup))
                assert lhs == rhs, (emit_graph6(g), s, group.generators)
                cases[k] += 1
    assert cases == [2581] * 5 and trivial


def _strip(reports):
    """Records without their timings, with orbit-size lists sorted."""
    out = []
    for r in reports:
        rec = json.loads(json.dumps(r.to_record(), default=list))
        del rec["seconds"]
        sizes = rec["details"].get("two_geodesic_orbit_sizes")
        if sizes is not None:
            sizes.sort()
        out.append(rec)
    return out


def _golden():
    golden = GOLDEN_RECORDS.read_text().splitlines()
    return [json.loads(line) for line in golden if line.strip()]


def test_corpus_reports_are_deterministic(default_reports):
    """Two runs agree with each other and with the golden records."""
    again = run_corpus(Corpus.default())
    assert _strip(default_reports) == _strip(again) == _golden()


def test_transitivity_builds_no_tuple(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a transitivity test enumerated a level")

    linesym.symmetry.transitive_on_level.cache_clear()
    monkeypatch.setattr(linesym.walks, "_enumerate", refuse)
    cage = catalog("tutte_8_cage")
    assert is_s_arc_transitive(cage, 5) and not is_s_arc_transitive(cage, 6)
    assert is_s_geodesic_transitive(cube_graph(6), 6)
    reports = run_corpus(Corpus.default(), ["thm13", "weiss"])
    assert _strip(reports) == [r for r in _golden() if r["claim"] in ("thm-1.3", "cor-1.4")]


def test_corpus_report_ordering(default_reports):
    keys = [(r.graph, r.claim, r.params.get("s") or 0) for r in default_reports]
    assert keys == sorted(keys)


def test_a_graph6_corpus_reports_in_file_order(tmp_path):
    path = tmp_path / "cycles.g6"
    path.write_bytes(b"".join(emit_graph6(catalog(f"cycle({n})")) + b"\n" for n in range(3, 15)))
    reports = run_corpus(Corpus.from_graph6_file(str(path)), ["lemma22"])
    names = [f"{path}:{k}" for k in range(1, 13)]
    assert [r.graph for r in reports] == [name for name in names for _ in range(2)]
    assert [r.claim for r in reports] == ["lemma-2.2", "subdiv-diam"] * 12


def test_the_default_corpus_is_listed_in_name_order():
    assert list(DEFAULT_CORPUS_NAMES) == sorted(DEFAULT_CORPUS_NAMES)


def test_corpus_orders_s_as_a_number():
    reports = run_corpus(Corpus((("c", catalog("cycle(24)")),)), ["thm32"])
    assert [r.params["s"] for r in reports] == list(range(2, 14))


def test_corpus_check_selection():
    reports = run_corpus(Corpus.default(), checks=("lemma22",))
    assert {r.claim for r in reports} == {"lemma-2.2", "subdiv-diam"}
    with pytest.raises(ValueError):
        run_corpus(Corpus.default(), checks=("nonsense",))


def test_corpus_builds_one_induced_group_per_host(monkeypatch):
    calls = []
    made = AutGroup.__init__

    def counted(self, degree, *args):
        calls.append(degree)
        made(self, degree, *args)

    linesym.verify._induced_line_group.cache_clear()
    linesym.symmetry.automorphisms.cache_clear()
    monkeypatch.setattr(AutGroup, "__init__", counted)
    corpus = Corpus(tuple((n, catalog(n)) for n in ("petersen", "heawood")))
    reports = run_corpus(corpus, ["thm13", "weiss"])
    # s = 2, 3, 4 for each host and claim, all through the induced group
    assert len(reports) == 12 and {r.verdict for r in reports} == {PASS}
    # per host one full group, of degree n = 10 and 14, and one induced
    # group, of degree m = 15 and 21
    assert sorted(calls) == [10, 14, 15, 21]


@pytest.mark.parametrize("name", DEFAULT_CORPUS_NAMES)
def test_a_trusted_order_is_the_order_of_its_generators(name):
    """The full group of each default-corpus host, and its induced line group
    wherever thm-1.3 reaches it, carry an order that no chain checked: a
    chain on the same generators with no order to stop at reaches it."""
    g = catalog(name)
    groups = [automorphisms(g)]
    if linesym.verify._line_equivalence_gate(g, None) is None:
        groups.append(linesym.verify._induced_line_group(g, groups[0]))
    for group in groups:
        assert group._order is not None
        _, levels, _, _ = _stabilizer_chain([p.images for p in group.generators], group.degree)
        assert _chain_order(levels) == group.order


def test_corpus_decides_each_transitivity_level_once(monkeypatch):
    """Every chain the gated checks build is a level decision, based at the
    level's first tuple and then at the group's base: their groups' orders
    are proven, so no group builds its own chain."""
    levels, groups = [], []
    first_tuple = linesym.walks.first_tuple
    chain = linesym.symmetry._stabilizer_chain

    def located(g, s, geodesic):
        levels.append((g, s, geodesic, first_tuple(g, s, geodesic)))
        return levels[-1][-1]

    def counted(gens, n, prefix=(), order=None):
        base = sys._getframe(1).f_locals["self"]._base  # the group whose `_levels` calls
        groups.append((tuple(map(tuple, gens)), order, base, tuple(prefix)))
        return chain(gens, n, prefix, order)

    for module in (linesym.symmetry, linesym.verify):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    monkeypatch.setattr(linesym.walks, "first_tuple", located)
    monkeypatch.setattr(linesym.symmetry, "_stabilizer_chain", counted)
    reports = run_corpus(Corpus.default(), ["thm13", "weiss"])
    assert {r.verdict for r in reports} == {PASS, NOT_APPLICABLE}
    assert len(levels) == len(groups)
    keys = list(zip(levels, groups))
    assert keys and len(keys) == len(set(keys))
    assert all(prefix == tuple(dict.fromkeys(r + base))
               for (*_, r), (*_, base, prefix) in keys)


def test_corpus_builds_a_chain_only_to_decide_a_level(monkeypatch):
    """Over every check of the default corpus, each stabilizer chain is a
    level decision: a search group reads its first level off its strong
    generators, and the thm-3.2 sampler draws generators, not elements.  A
    work count does not vary between machines, so this guard cannot flake."""
    callers = []
    chain = linesym.symmetry._stabilizer_chain

    def counted(*args):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return chain(*args)

    for module in (linesym.symmetry, linesym.verify):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    monkeypatch.setattr(linesym.symmetry, "_stabilizer_chain", counted)
    reports = run_corpus(Corpus.default())
    assert {r.verdict for r in reports} == {PASS, NOT_APPLICABLE}
    assert callers and set(callers) == {("_levels", "transitive_on_level")}


def test_corpus_gives_thm32_on_a_disconnected_graph_one_record_with_no_s():
    split = build_graph(4, [(0, 1), (2, 3)])
    [r] = run_corpus(Corpus((("split", split),)), ["thm32"])
    assert (r.claim, r.params, r.verdict, r.details) == (
        "thm-3.2", {"s": None}, NOT_APPLICABLE, {"reason": "no usable s"})


def test_a_capped_check_gives_its_own_record_and_the_run_goes_on(monkeypatch):
    """Past walks.ENUMERATION_CAP a check gives a not-applicable record whose
    reason is the cap's message, and the run goes on: every other record,
    the first graph's included, is the uncapped run's."""
    corpus = Corpus(tuple((name, catalog(name)) for name in ("petersen", "tutte_8_cage")))
    full = run_corpus(corpus)
    monkeypatch.setattr(linesym.walks, "ENUMERATION_CAP", 2000)
    capped = run_corpus(corpus)

    def unclocked(r):
        return {**r.to_record(), "seconds": None}

    assert len(capped) == len(full)
    changed = [r for r, before in zip(capped, full) if unclocked(r) != unclocked(before)]
    assert [(r.graph, r.claim, r.params, r.verdict, r.details) for r in changed] == [
        ("tutte_8_cage", "thm-3.2", {"s": s}, NOT_APPLICABLE,
         {"reason": f"enumeration cap reached: more than 2000 entries in arcs of length {s}"})
        for s in (4, 5)]


def test_empty_corpus_runs_clean():
    reports = run_corpus(Corpus(()))
    assert reports == []
    assert not has_failures(reports)


def test_corpus_from_graph6_file(tmp_path, petersen, k33):
    p = tmp_path / "two.g6"
    p.write_bytes(emit_graph6(petersen) + b"\n" + emit_graph6(k33) + b"\n")
    c = Corpus.from_graph6_file(str(p))
    assert len(c.entries) == 2
    assert c.entries[0][1].n == 10
    empty = tmp_path / "none.g6"
    empty.write_bytes(b"\n")
    with pytest.raises(ValueError):
        Corpus.from_graph6_file(str(empty))


def test_witness_only_on_failures(default_reports):
    for r in default_reports:
        if r.verdict == FAIL:
            assert r.witness is not None
        else:
            assert r.witness is None


def test_format_records_one_json_per_line(default_reports):
    lines = format_records(default_reports).splitlines()
    assert len(lines) == len(default_reports)
    for line in lines:
        rec = json.loads(line)
        assert rec["verdict"] in (PASS, FAIL, NOT_APPLICABLE)


def test_format_table_tally(default_reports):
    table = format_table(default_reports)
    assert "pass," in table.splitlines()[-1]
    assert "fail," in table.splitlines()[-1]


def test_format_table_leaves_the_s_cell_empty_where_s_is_null(default_reports):
    """Gated records hold s null; the table shows an empty cell for them, as
    for checks that take no s, and the number wherever s is set."""
    table = format_table(default_reports).splitlines()
    assert table[0].split()[:3] == ["claim", "graph", "s"]
    gated = [r for r in default_reports if "s" in r.params and r.params["s"] is None]
    assert any(r.claim == "thm-1.3" and r.graph == "complete(4)" for r in gated)
    for r, row in zip(default_reports, table[1:]):
        s = r.params.get("s")
        assert row.split()[:3] == [r.claim, r.graph, r.verdict if s is None else str(s)]


def test_format_table_shortens_graph6_labels():
    """An unnamed graph's label holds its whole graph6 string, 270 characters
    for a 400-cycle; the table cuts it, and the record keeps it whole."""
    g = build_graph(400, [(i, (i + 1) % 400) for i in range(400)])
    report = check_diameter_lemma(g)
    assert report.graph == graph_label(g) and len(report.graph) > 200
    rows = format_table([report]).splitlines()
    assert max(map(len, rows)) < 80
    assert rows[1].split()[1] == report.graph[:29] + "..."


def test_write_report(tmp_path, default_reports):
    out = tmp_path / "report.jsonl"
    write_report(default_reports, str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(default_reports)


def test_graph_label_uses_name_then_graph6(petersen):
    assert graph_label(petersen) == "petersen"
    anon = build_graph(2, [(0, 1)])
    assert graph_label(anon) == "g6:A_"
