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
import operator
import random
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .constructions import catalog, clique_graph, subdivision_graph
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, is_complete, is_regular, isomorphic
from .metrics import diameter, girth, icosahedral_form, is_connected, local_type, octahedral_form
from .symmetry import (
    AutGroup,
    Permutation,
    _acting_group,
    _edge_group,
    _edge_images,
    is_s_arc_transitive,
    transitive_on,
    transitive_on_level,
)
from .walks import (
    EnumerationCapExceeded,
    count_arcs,
    count_geodesics,
    edge_sequences,
    enumerate_arcs,
    enumerate_geodesics,
)

# Published transitivity ceiling, used as an imported constant rather than
# anything this package could derive: no graph of valency >= 3 is
# (G,8)-arc transitive.
WEISS_MAX_S = 7

# thm-3.2 tests equivariance on this many (generator, arc) pairs, drawn from
# a random source seeded with LMAP_SEED so the records are reproducible.
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


@lru_cache(maxsize=256)
def _induced_line_group(g: Graph, group: AutGroup) -> AutGroup:
    """The group's action on the line graph of g, built once per host and group."""
    return _edge_group(g, g.edges, g.edge_rank, group)


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
        "lhs_all_levels": lhs and all(transitive_on_level(g, "arcs", t, group) for t in range(1, s)),
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
    table = dict(zip(arcs, edge_sequences(g, arcs)))
    image_set = set(table.values())
    dl = diameter(line)
    gg = girth(g)
    within = s - 1 <= dl
    # An image is an arc of L when consecutive entries are adjacent and entries two apart
    # differ, a geodesic when also its ends are s-1 apart; L's own tuples are only counted.
    adjacent = line.edge_rank.__contains__  # keyed by L's ordered adjacent pairs
    line_arcs = {t for t in image_set
                 if all(map(adjacent, zip(t, t[1:]))) and all(map(operator.ne, t, t[2:]))}
    line_geos = {t for t in line_arcs if line.distances(t[0])[t[-1]] == s - 1}
    covers = len(line_geos) == count_geodesics(line, s - 1) if within else None
    # A map commuting with sigma and tau commutes with their product, so the generators
    # stand for the group; each is an automorphism, mapping the arc's own edges to edges.
    rng, gens = random.Random(LMAP_SEED), group.generators or (Permutation(tuple(range(g.n))),)
    for pairs in range(1, LMAP_SAMPLES + 1):
        sigma, arc = rng.choice(gens), rng.choice(arcs)
        equivariant = table.get(sigma.apply(arc)) == _edge_images(
            sigma, map(g.edges.__getitem__, table[arc]), g.edge_rank)
        if not equivariant:
            break
    observed = {
        "injective": len(image_set) == len(arcs),
        "images_are_arcs": len(line_arcs) == len(image_set),
        "onto_line_arcs": len(line_arcs) == len(image_set) == count_arcs(line, s - 1),
        "geodesics_preserved": all(table[a] in line_geos for a in arcs
                                   if g.distances(a[0])[a[-1]] == s),
        "image_covers_geodesics": covers,
        "image_equals_geodesics": covers and len(line_geos) == len(image_set),
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
    lhs = transitive_on_level(g, "geodesics", 1, group) and split.orbit_count <= 1
    octahedral = octahedral_form(g)
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
    details = {"octahedral_form": octahedral, "cubic_preimage": sigma_ok,
               "two_geodesic_orbit_sizes": split.sizes(), **sigma_facts}
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
    lhs = all(transitive_on_level(g, "geodesics", t, group) for t in (1, 2))
    octahedral, icosa = octahedral_form(g), icosahedral_form(g)
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
    if not all(transitive_on_level(g.line, "geodesics", t, lgroup) for t in range(1, s)):
        return _na("cor-1.4", g, params,
                   f"line graph is not {s - 1}-geodesic transitive", t0)
    gg = girth(g)
    lhs = 2 <= s <= WEISS_MAX_S
    rhs = s > WEISS_MAX_S and 2 * s > gg + 2
    details = {"girth": gg, "ceiling": WEISS_MAX_S}
    return _finish("cor-1.4", g, params, lhs, rhs, lhs or rhs, None, details, t0)


# --- corpus ------------------------------------------------------------------

# In name order, the order of the default corpus's reports.
DEFAULT_CORPUS_NAMES = (
    "complete(4)",
    "complete_multipartite(3,2)",
    "cycle(6)",
    "heawood",
    "icosahedron",
    "k33",
    "path(4)",
    "petersen",
    "tutte_8_cage",
)


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


class Check(NamedTuple):
    claim: str  # the claim id of its not-applicable record
    s_values: Callable | None  # g -> the s a corpus sweep runs, or a not-applicable reason
    takes_group: bool
    run: Callable  # (g, s, group or None for Aut(g)) -> reports


# The one registry of checks, read by run_corpus and the CLI.  s_values is None
# for a check without s.  Each run looks its checker up when called.
CHECKS = {
    "thm13": Check("thm-1.3", lambda g: _line_equivalence_gate(g) or _theorem_s_range(g), True,
                   lambda g, s, grp: [check_line_equivalence(g, s, grp)]),
    "lemma22": Check("lemma-2.2", None, False,
                     lambda g, s, grp: [check_diameter_lemma(g), check_subdivision_diameter(g)]),
    "thm32": Check("thm-3.2", lambda g: [s for s in _theorem_s_range(g) if count_arcs(g, s)]
                   or "no usable s", True, lambda g, s, grp: [check_lmap_theorem(g, s, grp)]),
    "classify-v4g3": Check("thm-1.1", None, True,
                           lambda g, s, grp: [classify_valency4_girth3(g, grp)]),
    "locally-cyclic": Check("cor-1.2", None, True, lambda g, s, grp: [check_locally_cyclic(g, grp)]),
    "weiss": Check("cor-1.4", lambda g: _line_equivalence_gate(g) or _theorem_s_range(g), True,
                   lambda g, s, grp: [check_weiss_flag(g, s, grp)]),
}


def run_corpus(corpus: Corpus, checks=None) -> list[VerdictReport]:
    """Run the selected checks over every corpus graph, deterministically.

    Reports come back in corpus order (a graph6 file's line order), each
    graph's sorted by claim id, then s.  Each check runs once per s of its s
    values (2..diam(L)+1, less what its hypotheses rule out), once if it has
    none; a graph whose s values are a reason gets a single not-applicable
    record with s null, and a check past the enumeration cap one with its s.
    """
    selected = tuple(checks) if checks else tuple(CHECKS)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    reports: list[VerdictReport] = []
    for name, g in corpus.entries:
        g = Graph(g.n, g.adj, name=name)
        records: list[VerdictReport] = []
        for check in map(CHECKS.__getitem__, selected):
            s_values = [None] if check.s_values is None else check.s_values(g)
            if isinstance(s_values, str):
                records.append(_na(check.claim, g, {"s": None}, s_values, time.perf_counter()))
            else:
                for s in s_values:
                    t0 = time.perf_counter()
                    try:
                        records.extend(check.run(g, s, None))
                    except EnumerationCapExceeded as exc:
                        records.append(_na(check.claim, g, {"s": s}, str(exc), t0))
        records.sort(key=lambda r: (r.claim, r.params.get("s") or 0))
        reports.extend(records)
    return reports


def has_failures(reports) -> bool:
    return any(r.verdict == FAIL for r in reports)


def format_records(reports) -> str:
    return "\n".join(json.dumps(r.to_record(), default=list) for r in reports)


def format_table(reports) -> str:
    rows = [("claim", "graph", "s", "verdict", "lhs", "rhs", "seconds")]
    for r in reports:
        s = r.params.get("s")
        rows.append((
            r.claim, r.graph[:29] + "..." if r.graph.startswith("g6:") and len(r.graph) > 32
            else r.graph, "" if s is None else str(s),
            r.verdict, _short(r.lhs), _short(r.rhs), f"{r.seconds:.3f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    tally = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
    for r in reports:
        tally[r.verdict] += 1
    lines += ["", f"{tally[PASS]} pass, {tally[FAIL]} fail, {tally[NOT_APPLICABLE]} not-applicable"]
    return "\n".join(lines)


def _short(value) -> str:
    text = json.dumps(value, default=list)
    return text if len(text) <= 24 else text[:21] + "..."


def write_report(reports, path: str):
    with open(path, "w") as fh:
        fh.write(format_records(reports))
        fh.write("\n")
