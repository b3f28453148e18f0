"""Every checker can fail: a table of hand-made faults, each of which must
turn at least one record of the default corpus, or of the short host list its
row names, into a `fail`.

A fault replaces one name in `linesym.verify`'s namespace, with the memo
caches cleared before and after, so no fact computed under the fault
outlives it.  The golden records catch any change of a record on the
default corpus; these faults show that the verdicts themselves can speak,
which is all there is on a corpus with no golden file (a `--graph6` one).
"""

from __future__ import annotations

import pytest

import linesym.metrics
import linesym.symmetry
import linesym.verify as verify
import linesym.walks
from linesym.constructions import DerivedGraph, catalog
from linesym.graphs import build_graph
from linesym.symmetry import AutGroup
from linesym.verify import FAIL, NOT_APPLICABLE, PASS, Corpus, run_corpus

from conftest import cube_graph, triangulated_torus

_girth, _count_geodesics = verify.girth, verify.count_geodesics
_edge_group, _level = verify._edge_group, verify.transitive_on_level
_edge_sequences, _transitive_on = verify.edge_sequences, verify.transitive_on


def _drop_last_generator(*args):
    group = _edge_group(*args)
    return AutGroup.from_permutations(group.degree, group.generators[:-1])


def _last_edge_unsubdivided(g):
    """The subdivision, but with the host's last edge kept whole."""
    edges = [(w, g.n + i) for i, e in enumerate(g.edges[:-1]) for w in e] + [g.edges[-1]]
    return DerivedGraph(build_graph(g.n + g.m - 1, edges), "subdivision")


def _eccentricity_of_vertex_0(g):
    """The diameter, but read off vertex 0's distance row alone."""
    return max(g.distances(0)) if linesym.metrics.is_connected(g) else None


# name -> (verify attribute, replacement, the claims whose records fail under it,
#          the hosts it runs on, or None for the default corpus)
FAULTS = {
    "girth + 2": ("girth", lambda g: None if _girth(g) is None else _girth(g) + 2,
                  {"thm-1.3", "thm-3.2"}, None),
    "count_geodesics + 1": ("count_geodesics", lambda g, s: _count_geodesics(g, s) + 1,
                            {"thm-3.2"}, None),
    "the induced line group drops its last generator": ("_edge_group", _drop_last_generator,
                                                        {"thm-1.3"}, None),
    # Level 1 stays level 1, since there is no level 0 to answer.
    "transitive_on_level answers level t - 1": (
        "transitive_on_level", lambda g, kind, t, group: _level(g, kind, max(t - 1, 1), group),
        {"thm-1.3"}, None),
    "subdivision_graph leaves the last edge unsubdivided": (
        "subdivision_graph", _last_edge_unsubdivided, {"subdiv-diam"}, None),
    # No default host is locally cyclic without being 2-geodesic transitive;
    # the 5 x 5 triangulated torus is (locally C6).  Its girth is 3, so
    # thm-1.3's rhs is false for s >= 3, where the faulty lhs is true.
    "transitive_on_level is always true": (
        "transitive_on_level", lambda *args: True, {"cor-1.2", "thm-1.3"},
        (triangulated_torus(5),)),
    # No default host reaches thm-1.1's cubic-preimage branch.  L(Q3) does, and
    # Q3 is 2-arc but not 3-arc transitive.
    "is_s_arc_transitive is always true": (
        "is_s_arc_transitive", lambda *args: True, {"thm-1.1"}, (cube_graph(3).line,)),
    # Ranks 2 and 3 of K4 are the edges {0,3} and {1,2}.  Swapping them is an
    # automorphism of L(K4), the octahedron (order 48), that S4 (order 24) does
    # not induce, so only the sampled equivariance can see it.
    "edge_sequences swaps ranks 2 and 3": (
        "edge_sequences",
        lambda g, arcs: [tuple({2: 3, 3: 2}.get(r, r) for r in image)
                         for image in _edge_sequences(g, arcs)],
        {"thm-3.2"}, (catalog("complete(4)"),)),
    # Under the trivial group the 24 2-geodesics of K_{3[2]} are 24 orbits, so
    # thm-1.1's lhs turns false while the octahedral rhs stays true.
    "transitive_on under the trivial group": (
        "transitive_on",
        lambda tuples, group: _transitive_on(tuples, AutGroup.from_permutations(group.degree, ())),
        {"thm-1.1"}, None),
    # The sampler then takes an arc's own edges for its image's, and a sampled
    # element that moves the arc shows it.
    "the sampler's edge map is the identity": (
        "_edge_images", lambda p, ends, point: tuple(point[e] for e in ends), {"thm-3.2"}, None),
}

# Faults no check can catch, each with the reason.
EQUIVALENT = {
    # Reversed images are still injective, arc-preserving and equivariant.
    "edge_sequences reverses each image": (
        "edge_sequences",
        lambda g, arcs: [image[::-1] for image in _edge_sequences(g, arcs)]),
    # Vertex 0 of L is an edge at vertex 0, so its eccentricity in L is within
    # 1 of vertex 0's eccentricity e in the host; in the subdivision vertex 0's
    # is 2e or 2e + 1.  So lemma-2.2 and subdiv-diam hold for these values as
    # they do for the diameters, and elsewhere the fault only narrows the
    # range of s that the gates admit.
    "diameter reads only vertex 0's row": ("diameter", _eccentricity_of_vertex_0),
}


def _clear_caches():
    for module in (linesym.metrics, linesym.walks, linesym.symmetry, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _corpus(hosts):
    return Corpus.default() if hosts is None else Corpus(tuple((g.name, g) for g in hosts))


def _run_under(monkeypatch, attr, fault, hosts=None):
    _clear_caches()
    monkeypatch.setattr(verify, attr, fault)
    try:
        return run_corpus(_corpus(hosts))
    finally:
        monkeypatch.undo()
        _clear_caches()


def _assert_fails_its_claims(name, monkeypatch):
    attr, fault, claims, hosts = FAULTS[name]
    failed = {r.claim for r in _run_under(monkeypatch, attr, fault, hosts) if r.verdict == FAIL}
    assert failed == claims


_ON_HOSTS = [name for name, row in FAULTS.items() if row[3] is not None]


@pytest.mark.parametrize("name", [name for name in FAULTS if name not in _ON_HOSTS])
def test_each_fault_fails_a_record_of_the_default_corpus(name, monkeypatch):
    _assert_fails_its_claims(name, monkeypatch)


@pytest.mark.parametrize("name", _ON_HOSTS)
def test_each_fault_fails_a_record_of_its_short_host_list(name, monkeypatch):
    _assert_fails_its_claims(name, monkeypatch)


@pytest.mark.parametrize("name", _ON_HOSTS)
def test_a_short_host_list_fails_nothing_without_its_fault(name):
    _clear_caches()
    assert {r.verdict for r in run_corpus(_corpus(FAULTS[name][3]))} <= {PASS, NOT_APPLICABLE}


@pytest.mark.parametrize("name", EQUIVALENT)
def test_an_equivalent_fault_fails_nothing(name, monkeypatch):
    attr, fault = EQUIVALENT[name]
    assert not [r for r in _run_under(monkeypatch, attr, fault) if r.verdict == FAIL]
