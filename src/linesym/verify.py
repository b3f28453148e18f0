"""Claim checkers producing verdict records, plus a corpus runner.

Every check computes both sides of its claim and reports pass / fail /
not-applicable, reading the host's derived facts (distance rows, line graph)
from the Graph and its groups from memoised builders.  A graph outside a
claim's hypotheses is not-applicable, never a failure.  Witnesses appear
exactly on failures.
All counting is integer arithmetic; the half-girth bound "s <= g/2 + 1"
is evaluated as 2s <= g + 2 so nothing touches floating point.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from functools import lru_cache

from .constructions import EdgeIndex, catalog, clique_graph, subdivision_graph
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, is_complete, is_regular, isomorphic
from .metrics import diameter, girth, is_connected, local_type
from .symmetry import (
    AutGroup,
    _acting_group,
    induced_edge_action,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitive_on,
    transitive_on_level,
)
from .walks import (
    count_arcs,
    count_geodesics,
    edge_sequences,
    enumerate_arcs,
    enumerate_geodesics,
    lmap,
)

# Published transitivity ceiling, used as an imported constant rather than
# anything this package could derive: no graph of valency >= 3 is
# (G,8)-arc transitive.
WEISS_MAX_S = 7

# thm-3.2 tests equivariance on this many (element, arc) pairs, drawn from
# a generator seeded with LMAP_SEED so the records are reproducible.
LMAP_SAMPLES = 50
LMAP_SEED = 0

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class VerdictReport:
    claim: str
    graph: str
    params: dict
    lhs: object
    rhs: object
    verdict: str
    witness: object
    details: dict
    seconds: float

    def to_record(self) -> dict:
        return asdict(self)


def graph_label(g: Graph) -> str:
    return g.name or "g6:" + emit_graph6(g).decode("ascii")


def _finish(claim, g, params, lhs, rhs, ok, witness, details, t0) -> VerdictReport:
    verdict = PASS if ok else FAIL
    if verdict != FAIL:
        witness = None
    elif witness is None:
        witness = {"lhs": lhs, "rhs": rhs}
    return VerdictReport(
        claim, graph_label(g), params, lhs, rhs, verdict, witness,
        details, round(time.perf_counter() - t0, 6),
    )


def _na(claim, g, params, reason, t0) -> VerdictReport:
    return VerdictReport(
        claim, graph_label(g), params, None, None, NOT_APPLICABLE, None,
        {"reason": reason}, round(time.perf_counter() - t0, 6),
    )


def _line_equivalence_gate(g: Graph, s: int | None = None) -> str | None:
    """Hypothesis gate shared by the equivalence and flag checks."""
    if not is_connected(g):
        return "graph is not connected"
    k = is_regular(g)
    if k is None:
        return "graph is not regular"
    if is_complete(g):
        return "graph is complete"
    if k < 3:
        return f"valency {k} is below 3"
    if s is not None:
        dl = diameter(g.line)
        if not 2 <= s <= dl + 1:
            return f"s={s} outside 2..diam(L)+1={dl + 1}"
    return None


# Catalog graphs compared against with `isomorphic`, built (so searched) once.
_reference = lru_cache(maxsize=None)(catalog)


@lru_cache(maxsize=256)
def _induced_line_group(g: Graph, group: AutGroup) -> AutGroup:
    """The group's action on the line graph of g, built once per host and group.
    |group| bounds its order (equal for connected g but K2, by Whitney): the chain's stop."""
    index = EdgeIndex.from_graph(g)
    gens = tuple(induced_edge_action(index, p) for p in group.generators)
    return AutGroup._build(len(index), gens, order=group.order)


def check_line_equivalence(g: Graph, s: int, group: AutGroup | None = None) -> VerdictReport:
    """s-arc transitivity on the host iff the half-girth bound holds and the
    induced group is transitive on (s-1)-geodesics of the line graph."""
    t0 = time.perf_counter()
    params = {"s": s}
    reason = _line_equivalence_gate(g, s)
    if reason:
        return _na("thm-1.3", g, params, reason, t0)
    group = _acting_group(g, group)
    arc_count = count_arcs(g, s)
    lhs = arc_count > 0 and transitive_on_level(g, "arcs", s, group)
    gg = girth(g)
    girth_ok = 2 * s <= gg + 2
    lgroup = _induced_line_group(g, group)
    line_transitive = transitive_on_level(g.line, "geodesics", s - 1, lgroup)
    rhs = girth_ok and line_transitive
    details = {
        "girth": gg,
        "half_girth_bound": f"2*{s} <= {gg}+2",
        "half_girth_ok": girth_ok,
        "line_geodesic_transitive": line_transitive,
        "arc_count": arc_count,
        "line_geodesic_count": count_geodesics(g.line, s - 1),
        # Cumulative reading: transitive on every t-arc level up to s; level s is lhs.
        "lhs_all_levels": lhs and is_s_arc_transitive(g, s - 1, group),
        "group_order": group.order,
    }
    witness = None
    if lhs != rhs:
        witness = {"lhs": lhs, "half_girth_ok": girth_ok,
                   "line_geodesic_transitive": line_transitive}
    return _finish("thm-1.3", g, params, lhs, rhs, lhs == rhs, witness, details, t0)


def check_diameter_lemma(g: Graph) -> VerdictReport:
    """diam(L(g)) - diam(g) lands in {-1, 0, 1} for connected g with an edge."""
    t0 = time.perf_counter()
    if not is_connected(g):
        return _na("lemma-2.2", g, {}, "graph is not connected", t0)
    if g.m == 0:
        return _na("lemma-2.2", g, {}, "graph has no edge", t0)
    d = diameter(g)
    dl = diameter(g.line)
    x = dl - d
    return _finish("lemma-2.2", g, {}, dl, d, -1 <= x <= 1, None, {"x": x}, t0)


def check_subdivision_diameter(g: Graph) -> VerdictReport:
    """diam(S(g)) - 2*diam(g) lands in {0, 1, 2}."""
    t0 = time.perf_counter()
    if not is_connected(g):
        return _na("subdiv-diam", g, {}, "graph is not connected", t0)
    if g.m == 0:
        return _na("subdiv-diam", g, {}, "graph has no edge", t0)
    d = diameter(g)
    ds = diameter(subdivision_graph(g).graph)
    delta = ds - 2 * d
    return _finish("subdiv-diam", g, {}, ds, 2 * d, 0 <= delta <= 2, None,
                   {"delta": delta}, t0)


def check_lmap_theorem(g: Graph, s: int, group: AutGroup | None = None) -> VerdictReport:
    """Structural facts about the edge-sequence map on s-arcs.

    Observed behaviour is compared key by key against what the statement
    predicts: injectivity always; surjectivity onto (s-1)-arcs exactly for
    s = 2 or cycle/path hosts; geodesics map to geodesics; the image captures
    every line-graph (s-1)-geodesic, with equality exactly when the girth is
    at least 2s - 2 (a forest counts as infinite girth); and the map commutes
    with every automorphism.
    """
    t0 = time.perf_counter()
    params = {"s": s}
    if s < 2:
        return _na("thm-3.2", g, params, "map needs s >= 2", t0)
    if not is_connected(g):
        return _na("thm-3.2", g, params, "graph is not connected", t0)
    arcs = enumerate_arcs(g, s)
    if not arcs:
        return _na("thm-3.2", g, params, f"graph has no {s}-arc", t0)
    group = _acting_group(g, group)
    line = g.line
    index = EdgeIndex.from_graph(g)
    images = edge_sequences(index, arcs)
    image_set = set(images)
    line_arcs = set(enumerate_arcs(line, s - 1))
    host_geos = enumerate_geodesics(g, s) if s <= diameter(g) else []
    dl = diameter(line)
    gg = girth(g)
    within = s - 1 <= dl
    # Images have s entries, so an image is an arc (a geodesic) of the line
    # graph exactly when it is one of its (s-1)-arcs ((s-1)-geodesics).
    line_geos = set(enumerate_geodesics(line, s - 1)) if within else set()
    # A sampled element preserves the edges, so it acts on the arc's own edges.
    rng = random.Random(LMAP_SEED)
    for pairs in range(1, LMAP_SAMPLES + 1):
        sigma = group.random_element(rng)
        arc = rng.choice(arcs)
        right = tuple(index.rank_of(sigma(u), sigma(v))
                      for u, v in map(index.edges.__getitem__, lmap(index, arc)))
        equivariant = lmap(index, sigma.apply(arc)) == right
        if not equivariant:
            break
    observed = {
        "injective": len(image_set) == len(images),
        "images_are_arcs": image_set <= line_arcs,
        "onto_line_arcs": image_set == line_arcs,
        "geodesics_preserved": set(edge_sequences(index, host_geos)) <= line_geos,
        "image_covers_geodesics": line_geos <= image_set if within else None,
        "image_equals_geodesics": image_set == line_geos if within else None,
        "equivariant": equivariant,
    }
    predicted = {
        "injective": True,
        "images_are_arcs": True,
        # g is connected with an s-arc, so valency <= 2 means a path or a cycle.
        "onto_line_arcs": s == 2 or max(map(len, g.adj)) <= 2,
        "geodesics_preserved": True,
        "image_covers_geodesics": True if within else None,
        "image_equals_geodesics": (gg is None or gg >= 2 * s - 2) if within else None,
        "equivariant": True,
    }
    mismatches = {k: {"observed": observed[k], "predicted": predicted[k]}
                  for k in observed if observed[k] != predicted[k]}
    details = {
        "arc_count": len(arcs),
        "sampled_pairs": pairs,
        "girth": gg,
        "line_diameter": dl,
    }
    return _finish("thm-3.2", g, params, observed, predicted, not mismatches,
                   mismatches or None, details, t0)


def classify_valency4_girth3(g: Graph, group: AutGroup | None = None) -> VerdictReport:
    """2-geodesic transitivity of a connected non-complete 4-valent girth-3
    graph iff it is the triangular K_{3[2]} form or the line graph of a
    3-arc-transitive cubic graph (reconstructed as the clique graph)."""
    t0 = time.perf_counter()
    if not is_connected(g):
        return _na("thm-1.1", g, {}, "graph is not connected", t0)
    if is_complete(g):
        return _na("thm-1.1", g, {}, "graph is complete", t0)
    if is_regular(g) != 4:
        return _na("thm-1.1", g, {}, "graph is not 4-regular", t0)
    if girth(g) != 3:
        return _na("thm-1.1", g, {}, "girth is not 3", t0)
    group = _acting_group(g, group)
    split = transitive_on(enumerate_geodesics(g, 2), group)[1]
    lhs = is_s_geodesic_transitive(g, 1, group) and split.orbit_count <= 1
    octahedral = isomorphic(g, _reference("complete_multipartite(3,2)")) is not None
    sigma = clique_graph(g).graph
    sigma_ok = False
    sigma_facts: dict = {"clique_graph_order": sigma.n}
    if is_connected(sigma) and is_regular(sigma) == 3:
        sg = girth(sigma)
        sigma_facts["clique_graph_girth"] = sg
        if sg is not None and sg >= 4 and isomorphic(sigma.line, g) is not None:
            sigma_ok = is_s_arc_transitive(sigma, 3)
            sigma_facts["clique_graph_3_arc_transitive"] = sigma_ok
    rhs = octahedral or sigma_ok
    details = {
        "octahedral_form": octahedral,
        "cubic_preimage": sigma_ok,
        "two_geodesic_orbit_sizes": split.sizes(),
        **sigma_facts,
    }
    return _finish("thm-1.1", g, {}, lhs, rhs, lhs == rhs, None, details, t0)


def check_locally_cyclic(g: Graph, group: AutGroup | None = None) -> VerdictReport:
    """2-geodesic transitivity of a connected non-complete locally cyclic
    graph iff it is the K_{3[2]} form or the icosahedron."""
    t0 = time.perf_counter()
    if not is_connected(g):
        return _na("cor-1.2", g, {}, "graph is not connected", t0)
    if is_complete(g):
        return _na("cor-1.2", g, {}, "graph is complete", t0)
    summary = local_type(g)
    if summary is None or summary.kind != "cycle":
        return _na("cor-1.2", g, {}, "graph is not locally cyclic", t0)
    group = _acting_group(g, group)
    lhs = is_s_geodesic_transitive(g, 2, group)
    octahedral = isomorphic(g, _reference("complete_multipartite(3,2)")) is not None
    icosa = isomorphic(g, _reference("icosahedron")) is not None
    details = {"local_cycle_length": summary.params[0],
               "octahedral_form": octahedral, "icosahedral_form": icosa}
    return _finish("cor-1.2", g, {}, lhs, octahedral or icosa,
                   lhs == (octahedral or icosa), None, details, t0)


def check_weiss_flag(g: Graph, s: int, group: AutGroup | None = None) -> VerdictReport:
    """When the line graph is (s-1)-geodesic transitive, s stays within the
    published ceiling or exceeds both it and the half-girth bound."""
    t0 = time.perf_counter()
    params = {"s": s}
    reason = _line_equivalence_gate(g, s)
    if reason:
        return _na("cor-1.4", g, params, reason, t0)
    group = _acting_group(g, group)
    lgroup = _induced_line_group(g, group)
    if not is_s_geodesic_transitive(g.line, s - 1, lgroup):
        return _na("cor-1.4", g, params,
                   f"line graph is not {s - 1}-geodesic transitive", t0)
    gg = girth(g)
    lhs = 2 <= s <= WEISS_MAX_S
    rhs = s > WEISS_MAX_S and 2 * s > gg + 2
    details = {"girth": gg, "ceiling": WEISS_MAX_S}
    return _finish("cor-1.4", g, params, lhs, rhs, lhs or rhs, None, details, t0)


# --- corpus ------------------------------------------------------------------

DEFAULT_CORPUS_NAMES = (
    "complete(4)",
    "k33",
    "petersen",
    "heawood",
    "tutte_8_cage",
    "icosahedron",
    "complete_multipartite(3,2)",
    "cycle(6)",
    "path(4)",
)

CHECK_NAMES = ("thm13", "lemma22", "thm32", "classify-v4g3", "locally-cyclic", "weiss")
# Checks swept over s behind the equivalence gate: check name -> (claim, checker).
_GATED_SWEEPS = {
    "thm13": ("thm-1.3", check_line_equivalence),
    "weiss": ("cor-1.4", check_weiss_flag),
}


@dataclass(frozen=True)
class Corpus:
    """Named graphs with their provenance baked into the name."""

    entries: tuple[tuple[str, Graph], ...]

    @staticmethod
    def default() -> "Corpus":
        return Corpus(tuple((n, catalog(n)) for n in DEFAULT_CORPUS_NAMES))

    @staticmethod
    def from_graph6_file(path: str) -> "Corpus":
        entries = []
        with open(path, "rb") as fh:
            for k, row in enumerate(fh):
                row = row.strip()
                if row:
                    entries.append((f"{path}:{k + 1}", parse_graph6(row)))
        if not entries:
            raise ValueError(f"{path} holds no graphs")
        return Corpus(tuple(entries))


def _theorem_s_range(g: Graph):
    if not is_connected(g) or g.m == 0:
        return []
    return range(2, diameter(g.line) + 2)


def run_corpus(corpus: Corpus, checks=None) -> list[VerdictReport]:
    """Run the selected checks over every corpus graph, deterministically.

    Reports come back sorted by graph name, then claim id, then s.  The
    s-parameterized checks sweep 2..diam(L)+1 for each graph; hypothesis
    failures surface as single not-applicable records.
    """
    selected = tuple(checks) if checks else CHECK_NAMES
    unknown = [c for c in selected if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    reports: list[VerdictReport] = []
    for name, g in sorted(corpus.entries, key=lambda e: e[0]):
        g = Graph(g.n, g.adj, name=name)
        for check in selected:
            if check in _GATED_SWEEPS:
                claim, checker = _GATED_SWEEPS[check]
                reason = _line_equivalence_gate(g)
                if reason:
                    reports.append(_na(claim, g, {"s": None}, reason, time.perf_counter()))
                else:
                    reports.extend(checker(g, s) for s in _theorem_s_range(g))
            elif check == "lemma22":
                reports.append(check_diameter_lemma(g))
                reports.append(check_subdivision_diameter(g))
            elif check == "thm32":
                srange = [s for s in _theorem_s_range(g) if count_arcs(g, s)]
                if srange:
                    reports.extend(check_lmap_theorem(g, s) for s in srange)
                else:
                    reports.append(_na("thm-3.2", g, {"s": None}, "no usable s", time.perf_counter()))
            elif check == "classify-v4g3":
                reports.append(classify_valency4_girth3(g))
            elif check == "locally-cyclic":
                reports.append(check_locally_cyclic(g))
    reports.sort(key=lambda r: (r.graph, r.claim, str(r.params.get("s"))))
    return reports


def has_failures(reports) -> bool:
    return any(r.verdict == FAIL for r in reports)


def format_records(reports) -> str:
    return "\n".join(json.dumps(r.to_record(), default=list) for r in reports)


def format_table(reports) -> str:
    rows = [("claim", "graph", "s", "verdict", "lhs", "rhs", "seconds")]
    for r in reports:
        rows.append((
            r.claim, r.graph, str(r.params.get("s", "")),
            r.verdict, _short(r.lhs), _short(r.rhs), f"{r.seconds:.3f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    tally = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
    for r in reports:
        tally[r.verdict] += 1
    lines.append("")
    lines.append(
        f"{tally[PASS]} pass, {tally[FAIL]} fail, {tally[NOT_APPLICABLE]} not-applicable"
    )
    return "\n".join(lines)


def _short(value) -> str:
    text = json.dumps(value, default=list)
    return text if len(text) <= 24 else text[:21] + "..."


def write_report(reports, path: str):
    with open(path, "w") as fh:
        fh.write(format_records(reports))
        fh.write("\n")
