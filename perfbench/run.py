#!/usr/bin/env python3
"""Benchmark of linesym: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

The library is imported from the checkout's `src/`; nothing is installed.
Everything runs in this one process on one thread.

The workload is set up SETUPS times at the start (fresh import of the
package, inputs built from the seed, any group the workload needs), and the
last set-up is kept.  Passes over its operations then repeat while
`--seconds` allow; each pass starts with cold caches, as a single CLI call
sees it: library LRU caches are cleared and the operations get fresh Graph
objects.  Every operation runs under a time budget and its answer is checked
outside the timed region.

Times are given at a reference speed.  This machine's speed drifts by up to
1.7x over minutes as other jobs share its cores, which moves every timing
of a run alike.  So each timed interval (a set-up or an operation) is
followed by a fixed reference kernel, a breadth-first search written here
that uses nothing from linesym, and the interval is scaled by REF_S over the
mean duration of the kernel runs just before and after it.  The figures are
thus the seconds the interval would take at the speed at which the kernel
takes REF_S; a change to linesym cannot change the kernel.

`setup_s` is the median set-up time.  Each operation's time is its median
over the passes; `wall_s` is the sum of those, the time to a full set of
answers, and `op_ms_p50` and `op_ms_p90` are Harrell-Davis percentile
estimates over them, one sample per operation.  `success_rate` is 1 - error_rate, the share of
attempted operations that returned the right answer within their budget.

With `--trace 1`, untraced and traced passes alternate, with at least two
traced passes, and the per-layer metrics come from the traced ones: counts
from the first (they must repeat exactly in every traced pass that had no
failure), self times as the best over traced passes (not scaled), and
`trace.overhead_s` = traced wall_s - untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units are those listed in
BENCHMARK.json at the checkout root.  Without that line, the exit code is 2
when the checkout holds no linesym sources and 3 when a set-up fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

from tracer import SpanStats, TRACED, TRACED_METHODS, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphs", "graph6", "constructions", "metrics", "walks",
           "refinement", "symmetry", "verify")
SETUPS = 5
# Past this many seconds of measurement, operations still queued in the pass
# are counted as failed without running, so the process ends well within the
# three minutes a run may take.  A set-up slower than SETUP_BUDGET_S ends the
# run with an error.
HARD_LIMIT_S = 120.0
SETUP_BUDGET_S = 30.0

# The reference kernel: breadth-first searches from 10 sources of the
# circulant graph on 400 vertices with steps 1, 37 and 101.  REF_S, its
# duration at the reference speed, is a fixed constant a little above its
# fastest (1.4-1.5 ms) on the 2-vCPU Intel Xeon VM with Python 3.11.7 where
# baseline.json was taken, so figures read about as that VM gives them when
# nothing else runs on it.
REF_N = 400
REF_ADJ = tuple(tuple(sorted({(v + d) % REF_N for step in (1, 37, 101) for d in (step, -step)}))
                for v in range(REF_N))
REF_S = 0.0016


def reference_kernel() -> int:
    total = 0
    for source in range(0, REF_N, REF_N // 10):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                d = dist[v] + 1
                for w in REF_ADJ[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    return total


class SpeedScale:
    """Converts measured intervals to seconds at the reference speed."""

    def __init__(self):
        self.raw_s = 0.0  # the unscaled seconds passed to scale()
        self.ref_s = 0.0  # the same intervals, scaled
        self.recalibrate()

    def _kernel_s(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0

    def recalibrate(self):
        """Run the kernel now, as the 'before' reading of the next interval."""
        self.last = self._kernel_s()

    def scale(self, seconds: float) -> float:
        """An interval that just ended, at the reference speed."""
        before, self.last = self.last, self._kernel_s()
        scaled = seconds * 2.0 * REF_S / (before + self.last)
        self.raw_s += seconds
        self.ref_s += scaled
        return scaled


class OpTimeout(BaseException):
    """Raised by the interval timer when an operation exceeds its budget.

    A BaseException, so no `except Exception` inside the library absorbs it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


def fresh_linesym() -> dict:
    """Import linesym from the checkout as if for the first time."""
    for name in [m for m in sys.modules if m == "linesym" or m.startswith("linesym.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"linesym.{name}") for name in MODULES}
    package = sys.modules["linesym"]
    if Path(package.__file__).resolve().parent != SRC / "linesym":
        raise ImportError(f"linesym was imported from {package.__file__}, not from {SRC}")
    modules["linesym"] = package
    return modules


def set_up(workload: str, seed: int):
    modules = fresh_linesym()
    return modules, WORKLOADS[workload](types.SimpleNamespace(**modules), seed)


def clear_caches(modules: dict):
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_op(op, budget_s: float):
    """(outcome, seconds, value); outcome is "ok", "timeout" or an error text."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok", time.perf_counter() - t0, value
    except OpTimeout:
        return "timeout", time.perf_counter() - t0, None
    except Exception as exc:  # the run goes on; the operation counts as failed
        return f"{type(exc).__name__}: {exc}", time.perf_counter() - t0, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ran to the end but raised or answered wrongly

    def fail(self, label: str, why: str, wrong: bool):
        self.failed += 1
        self.wrong += wrong
        if self.failed <= 10:
            print(f"FAILED {label}: {why}", file=sys.stderr)


def run_pass(ops, budget_s: float, hard_deadline: float, tally: Tally,
             speed: SpeedScale) -> list:
    """Run one pass; return each operation's scaled time, None for one not run."""
    times = []
    speed.recalibrate()
    for op in ops:
        tally.attempted += 1
        if time.perf_counter() > hard_deadline:
            tally.fail(op.label, "not run: past the run's hard time limit", False)
            times.append(None)
            continue
        outcome, seconds, value = run_op(op, budget_s)
        times.append(speed.scale(seconds))
        if outcome == "timeout":
            tally.fail(op.label, f"past its {budget_s} s budget", False)
        elif outcome != "ok":
            tally.fail(op.label, outcome, True)
        elif not op.check(value):
            tally.fail(op.label, f"wrong answer {value!r:.200}", True)
    return times


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / (c if abs(c) > tiny else tiny)
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from a Beta
    distribution centred on p.  Unlike a single order statistic it does not
    jump when two operations of different cost swap ranks between runs.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def median_times(passes: list[list]) -> list[float]:
    """Each operation's median time over the passes, skipping ops never run."""
    out = []
    for samples in zip(*passes):
        ran = [s for s in samples if s is not None]
        if ran:
            out.append(statistics.median(ran))
    return out


def layer_metrics(passes: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, self times at their best."""
    first = passes[0]
    empty = SpanStats()

    def calls(*names):
        return sum(first.get(n, empty).calls for n in names)

    def size(*names):
        return sum(first.get(n, empty).size for n in names)

    def self_s(*names):
        return min(sum(p[n].self_s for n in names if n in p) for p in passes)

    spans = {"walks.enumerate": ("walks.enumerate_arcs", "walks.enumerate_geodesics")}
    for name in list(TRACED.values()) + list(TRACED_METHODS.values()):
        spans.setdefault(name, (name,))
    out = {}
    for name, parts in spans.items():
        out[f"{name}.calls"] = (calls(*parts), "count")
        out[f"{name}.self_s"] = (self_s(*parts), "s")
    auts = first.get("symmetry.automorphisms", empty)
    trans = first.get("symmetry.transitive_on", empty)
    out.update({
        "walks.enumerate.tuples": (size(*spans["walks.enumerate"]), "count"),
        "symmetry.orbit_of.tuples": (size("symmetry.orbit_of"), "count"),
        "symmetry.transitive_on.universe": (trans.size, "count"),
        # Tuples decided per tuple visited by orbit_of.  With no orbit_of call
        # (a later design may decide orbits otherwise) every tuple counts as
        # decided at the cost of one visit in all, not as a ratio of 0.
        "symmetry.transitive_on.useful_ratio": (trans.size / max(trans.visited, 1), "ratio"),
        "refinement.automorphism_generators.generators":
            (size("refinement.automorphism_generators"), "count"),
        "symmetry.automorphisms.hit_ratio":
            (auts.hits / auts.calls if auts.calls else 0.0, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


def select(metrics: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} differs from BENCHMARK.json")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linesym" / "__init__.py").is_file():
        print(f"error: no linesym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    speed = SpeedScale()

    setups = []
    for _ in range(SETUPS):
        gc.collect()
        speed.recalibrate()
        outcome, seconds, built = run_op(
            Op("set-up", lambda: set_up(args.workload, args.seed), None), SETUP_BUDGET_S)
        if outcome != "ok":
            print(f"error: set-up failed: {outcome}", file=sys.stderr)
            return 3
        setups.append(speed.scale(seconds))
    modules, wl = built

    tally = Tally()
    times = {False: [], True: []}  # per pass, each operation's time
    traced_stats = []  # per traced pass: its spans, and whether an operation failed
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        t_pass = time.perf_counter()
        ops = wl.prepare()
        clear_caches(modules)
        gc.collect()
        if traced:
            tracer = Tracer(modules)
            tracer.install()
        failed_before = tally.failed
        try:
            times[traced].append(run_pass(ops, wl.budget_s, hard_deadline, tally, speed))
        finally:
            if traced:
                tracer.uninstall()
                traced_stats.append((tracer.stats, tally.failed > failed_before))
        longest = max(longest, time.perf_counter() - t_pass)
        need_traced = bool(args.trace) and len(times[True]) < 2
        if not need_traced and time.perf_counter() + longest > deadline:
            break

    if args.trace:
        # A pass cut short by a failure has partial counts; failures are reported anyway.
        counts = [{n: s.counts() for n, s in stats.items()}
                  for stats, failed in traced_stats if not failed]
        repeatable = all(c == counts[0] for c in counts)
        if len(counts) < 2:
            print(f"per-layer counts: repeatability not checked, {len(counts)} traced "
                  "pass(es) without a failure", file=sys.stderr)
        elif not repeatable:
            print("error: per-layer counts differ between traced passes", file=sys.stderr)
        overhead = sum(median_times(times[True])) - sum(median_times(times[False]))
        metrics = layer_metrics([stats for stats, _ in traced_stats], overhead)
        wanted = spec["per_layer"]
    else:
        repeatable = True
        per_op = median_times(times[False])
        per_op_ms = [1000.0 * s for s in per_op]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_op), "s"),
            "op_ms_p50": (quantile(per_op_ms, 0.5), "ms"),
            "op_ms_p90": (quantile(per_op_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        }
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  set-ups {len(setups)}  "
          f"passes {len(times[False]) + len(times[True])} ({len(times[True])} traced)  "
          f"percentiles over {len(ops)} operations, each at its median  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"error_rate {tally.failed / tally.attempted:.6f}")
    print(f"timed {speed.raw_s:.3f} s as measured = {speed.ref_s:.3f} s at the reference "
          f"speed (mean speed factor {speed.raw_s / speed.ref_s:.3f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:>14.6f} {unit}")
    result = {
        "correct": tally.wrong == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": select(metrics, wanted),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
