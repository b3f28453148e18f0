import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesym.graph6 import emit_graph6, parse_graph6
from linesym.graphs import Graph, build_graph
from oracles import encode_graph6_reference


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def test_k1_is_at_sign():
    g = build_graph(1, [])
    assert emit_graph6(g) == b"@"
    assert parse_graph6(b"@").n == 1


def test_header_variant_accepted():
    g = build_graph(3, [(0, 1), (1, 2)])
    blob = b">>graph6<<" + emit_graph6(g) + b"\n"
    back = parse_graph6(blob)
    assert back.edges == g.edges


def test_str_input_accepted():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert parse_graph6(emit_graph6(g).decode("ascii")).edges == g.edges


def test_emit_matches_reference_encoder_small():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert emit_graph6(g) == encode_graph6_reference(g)


def test_round_trip_all_graphs_up_to_4():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            back = parse_graph6(emit_graph6(g))
            assert back.n == g.n and back.edges == g.edges


def test_long_form_header():
    g = build_graph(100, [(0, 99), (1, 2)])
    blob = emit_graph6(g)
    assert blob[0:1] == b"~"
    back = parse_graph6(blob)
    assert back.n == 100 and back.edges == g.edges
    assert blob == encode_graph6_reference(g)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"", "empty graph6 input"),
        (b"\x1f", "malformed header byte 31"),
        (b"B", "body holds 0 bytes, needs 1"),  # n=3 needs one body byte
        (b"A??", "trailing garbage after graph body"),
        (b"A\x05", "byte 5 outside the printable graph6 range"),
        (b"~~", "graphs beyond 258047 vertices are out of scope"),
        (b"A" + bytes([63 + 1]), "nonzero padding bits"),  # n=2 has 5 padding bits, all must be 0
    ],
    # the ids keep the short labels that earlier test reports name
    ids=["-empty", "\x1f-range", "B-bit-length", "A??-trailing", "A\x05-range", "~~-header",
         "A@-padding"],
)
def test_parse_rejects_malformed(blob, message):
    with pytest.raises(ValueError, match=message):
        parse_graph6(blob)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"~??", "truncated long-form header"),  # three header bytes must follow the ~
        (b"~?\x1f?", "malformed long-form header byte"),
    ],
)
def test_parse_names_a_bad_long_form_header(blob, message):
    with pytest.raises(ValueError, match=message):
        parse_graph6(blob)


def test_emit_refuses_more_vertices_than_the_long_form_holds():
    with pytest.raises(ValueError, match="graphs beyond 258047 vertices are out of scope"):
        emit_graph6(Graph(258048, ((),) * 258048))


def test_parse_rejects_zero_vertices():
    with pytest.raises(ValueError):
        parse_graph6(bytes([63]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 13), st.randoms(use_true_random=False))
def test_round_trip_random(n, rnd):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rnd.random() < 0.4]
    g = build_graph(n, edges)
    assert parse_graph6(emit_graph6(g)) == g
    assert emit_graph6(g) == encode_graph6_reference(g)


def _cycle_complement(n):
    return Graph(n, tuple(tuple(w for w in range(n) if (w - v) % n not in (0, 1, n - 1)) for v in range(n)))


def _random_graph(n):
    rng = random.Random(n)
    return build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])


@pytest.mark.parametrize(
    "g",
    [_random_graph(1), _random_graph(62), _random_graph(63), _cycle_complement(90)],
    ids=["n=1", "n=62", "n=63-long-header", "dense"],
)
def test_round_trip_matches_the_reference(g):
    assert emit_graph6(g) == encode_graph6_reference(g)
    assert parse_graph6(emit_graph6(g)) == g


def test_large_dense_graph_builds_and_round_trips_in_linear_time():
    # about 179,000 edges: one pass over the rows, not a row scan per entry
    start = time.perf_counter()
    g = _cycle_complement(600)
    assert parse_graph6(emit_graph6(g)) == g and g.m == 600 * 597 // 2
    assert time.perf_counter() - start < 2


def test_round_trip_is_stable_under_reserialization():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, [e for e in pairs if rng.random() < 0.5])
        once = emit_graph6(g)
        assert emit_graph6(parse_graph6(once)) == once
