"""Per-layer spans recorded around linesym's public functions, from outside.

`Tracer.install()` replaces each traced function, in every linesym module
namespace that holds it, by a wrapper that records a span: its calls, its
self time (span duration minus the time of traced spans nested in it) and,
for enumerators and orbit searches, the number of tuples it returned.
`uninstall()` puts the original functions back, so untraced passes run the
library exactly as shipped.

Only functions at a layer boundary are traced.  Helpers inside a layer (such
as `refine` inside the search, or `is_arc` inside `lmap`) stay unwrapped and
count toward the self time of the traced function that called them.  A traced
function the library no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import time

# (module, function) -> span name.  Claim checkers are named by claim id.
TRACED = {
    ("graphs", "isomorphic"): "graphs.isomorphic",
    ("constructions", "line_graph"): "constructions.line_graph",
    ("metrics", "bfs_distances"): "metrics.bfs_distances",
    ("metrics", "diameter"): "metrics.diameter",
    ("metrics", "girth"): "metrics.girth",
    ("walks", "enumerate_arcs"): "walks.enumerate_arcs",
    ("walks", "enumerate_geodesics"): "walks.enumerate_geodesics",
    ("walks", "lmap"): "walks.lmap",
    ("refinement", "automorphism_generators"): "refinement.automorphism_generators",
    ("symmetry", "automorphisms"): "symmetry.automorphisms",
    ("symmetry", "induced_edge_action"): "symmetry.induced_edge_action",
    ("symmetry", "orbit_of"): "symmetry.orbit_of",
    ("symmetry", "transitive_on"): "symmetry.transitive_on",
    ("verify", "check_line_equivalence"): "verify.thm-1.3",
    ("verify", "check_diameter_lemma"): "verify.lemma-2.2",
    ("verify", "check_subdivision_diameter"): "verify.subdiv-diam",
    ("verify", "check_lmap_theorem"): "verify.thm-3.2",
    ("verify", "classify_valency4_girth3"): "verify.thm-1.1",
    ("verify", "check_locally_cyclic"): "verify.cor-1.2",
    ("verify", "check_weiss_flag"): "verify.cor-1.4",
}
# AutGroup methods: attribute -> span name.  from_permutations builds the
# stabilizer chain, so it is the chain layer.
TRACED_METHODS = {
    "from_permutations": "symmetry.chain",
    "elements": "symmetry.elements",
}

# Spans whose result size is counted: tuples, orbit members or generators.
SIZES = {
    "walks.enumerate_arcs": len,
    "walks.enumerate_geodesics": len,
    "symmetry.orbit_of": len,
    "symmetry.transitive_on": lambda result: len(result[1].universe),
    "refinement.automorphism_generators": len,
}


class SpanStats:
    __slots__ = ("calls", "self_s", "size", "visited", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.size = 0  # summed result sizes (see SIZES)
        self.visited = 0  # transitive_on: orbit tuples its orbit_of calls returned
        self.hits = 0  # automorphisms: calls answered without a search

    def counts(self) -> tuple[int, int, int, int]:
        return self.calls, self.size, self.visited, self.hits


class _Frame:
    __slots__ = ("name", "child_s", "visited", "searched")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.visited = 0
        self.searched = False


class Tracer:
    def __init__(self, modules: dict):
        """modules: short name -> imported linesym module, plus "linesym" itself."""
        self.modules = modules
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            if name == "refinement.automorphism_generators":
                for outer in reversed(stack):
                    if outer.name == "symmetry.automorphisms":
                        outer.searched = True
                        break
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = SpanStats()
                st.calls += 1
                st.self_s += elapsed - frame.child_s
                size = size_of(result) if size_of and result is not None else 0
                st.size += size
                st.visited += frame.visited
                if name == "symmetry.automorphisms" and not frame.searched:
                    st.hits += 1
                if stack:
                    parent = stack[-1]
                    parent.child_s += elapsed
                    if name == "symmetry.orbit_of" and parent.name == "symmetry.transitive_on":
                        parent.visited += size

        return traced

    def install(self):
        originals = {}
        for (mod, attr), name in TRACED.items():
            fn = getattr(self.modules[mod], attr, None)
            if fn is not None:
                originals[id(fn)] = (fn, self._wrap(name, fn))
        # Replace the function wherever a module imported it by name.
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        group = self.modules["symmetry"].AutGroup
        for attr, name in TRACED_METHODS.items():
            raw = group.__dict__.get(attr)
            if raw is None:
                continue
            static = isinstance(raw, staticmethod)
            wrapped = self._wrap(name, raw.__func__ if static else raw)
            self._saved.append((group, attr, raw))
            setattr(group, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
