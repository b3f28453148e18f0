"""Every checker can fail: a table of hand-made faults, each of which must
turn at least one record of the default corpus into a `fail`.

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
from linesym.symmetry import AutGroup
from linesym.verify import FAIL, Corpus, run_corpus

_girth, _count_geodesics = verify.girth, verify.count_geodesics
_edge_group, _level = verify._edge_group, verify.transitive_on_level
_edge_sequences = verify.edge_sequences


def _drop_last_generator(*args):
    group = _edge_group(*args)
    return AutGroup.from_permutations(group.degree, group.generators[:-1])


# name -> (verify attribute, replacement, the claims whose records fail under it)
FAULTS = {
    "girth + 2": ("girth", lambda g: None if _girth(g) is None else _girth(g) + 2,
                  {"thm-1.3", "thm-3.2"}),
    "count_geodesics + 1": ("count_geodesics", lambda g, s: _count_geodesics(g, s) + 1,
                            {"thm-3.2"}),
    "the induced line group drops its last generator": ("_edge_group", _drop_last_generator,
                                                        {"thm-1.3"}),
    # Level 1 stays level 1, since there is no level 0 to answer.
    "transitive_on_level answers level t - 1": (
        "transitive_on_level", lambda g, kind, t, group: _level(g, kind, max(t - 1, 1), group),
        {"thm-1.3"}),
}

# Faults no check can catch, each with the reason.
EQUIVALENT = {
    # Reversed images are still injective, arc-preserving and equivariant.
    "edge_sequences reverses each image": (
        "edge_sequences",
        lambda index, arcs: [image[::-1] for image in _edge_sequences(index, arcs)]),
}


def _clear_caches():
    for module in (linesym.metrics, linesym.walks, linesym.symmetry, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _run_under(monkeypatch, attr, fault):
    _clear_caches()
    monkeypatch.setattr(verify, attr, fault)
    try:
        return run_corpus(Corpus.default())
    finally:
        monkeypatch.undo()
        _clear_caches()


@pytest.mark.parametrize("name", FAULTS)
def test_each_fault_fails_a_record_of_the_default_corpus(name, monkeypatch):
    attr, fault, claims = FAULTS[name]
    failed = {r.claim for r in _run_under(monkeypatch, attr, fault) if r.verdict == FAIL}
    assert failed == claims


@pytest.mark.parametrize("name", EQUIVALENT)
def test_an_equivalent_fault_fails_nothing(name, monkeypatch):
    attr, fault = EQUIVALENT[name]
    assert not [r for r in _run_under(monkeypatch, attr, fault) if r.verdict == FAIL]
