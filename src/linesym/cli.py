"""Command-line front end.

Exit code 0 means every executed check passed or was not applicable; 1 means
at least one failure; 2 covers usage and input errors (argparse's own among
them), an enumeration that would exceed its cap, and running out of memory.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import catalog, catalog_entries, clique_graph, line_graph, subdivision_graph
from .graph6 import _MAX_LONG_N, emit_graph6, parse_graph6
from .graphs import Graph, build_graph, is_complete, is_regular
from .metrics import diameter, girth, is_connected, local_type
from .symmetry import AutGroup, Permutation, automorphisms, transitive_on
from .verify import (
    CHECKS,
    Corpus,
    VerdictReport,
    format_records,
    format_table,
    graph_label,
    has_failures,
    run_corpus,
    write_report,
)
from .walks import EnumerationCapExceeded, enumerate_arcs, enumerate_geodesics


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", metavar="NAME", help="catalog graph name")
    src.add_argument("--graph6", metavar="FILE", help="file with one graph6 string per line")
    src.add_argument("--edges", metavar="FILE", help='file with "u v" lines, 0-based')


def _add_output_args(p):
    p.add_argument("--report", metavar="FILE", help="write JSON-lines records here")
    p.add_argument("--format", choices=("table", "records"), default="table")


def _load_graph(args) -> Graph:
    if args.catalog:
        return catalog(args.catalog)
    if args.graph6:
        with open(args.graph6, "rb") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return parse_graph6(line)
        raise ValueError(f"{args.graph6} holds no graphs")
    pairs = []
    with open(args.edges) as fh:
        for k, line in enumerate(fh, 1):
            if line.strip():
                try:
                    u, v = map(int, line.split())
                except ValueError:
                    raise ValueError(f'{args.edges}:{k}: expected "u v", got {line.strip()!r}') from None
                pairs.append((u, v))
    if not pairs:
        raise ValueError(f"{args.edges} holds no edges")
    n = max(max(u, v) for u, v in pairs) + 1
    if n > _MAX_LONG_N:
        raise ValueError(f"graphs beyond {_MAX_LONG_N} vertices are out of scope")
    return build_graph(n, pairs, name=args.edges)


def _load_group(g: Graph, text: str) -> AutGroup:
    perms = [Permutation.from_one_line(part) for part in text.split(";") if part.strip()]
    return AutGroup.from_generators(g, perms)


def _emit(reports: list[VerdictReport], args) -> int:
    if args.format == "records":
        print(format_records(reports))
    else:
        print(format_table(reports))
    if args.report:
        write_report(reports, args.report)
    return 1 if has_failures(reports) else 0


def _cmd_catalog(args) -> int:
    for name, desc in catalog_entries():
        print(f"{name:28} {desc}")
    return 0


def _cmd_construct(args) -> int:
    g = _load_graph(args)
    if args.line:
        derived = line_graph(g)
    elif args.subdivision:
        derived = subdivision_graph(g)
    else:
        derived = clique_graph(g)
    h = derived.graph
    print(f"{derived.kind} graph of {graph_label(g)}: {h.n} vertices, {h.m} edges")
    print(emit_graph6(h).decode("ascii"))
    return 0


def _cmd_invariants(args) -> int:
    g = _load_graph(args)
    summary = local_type(g)
    rows = [
        ("graph", graph_label(g)),
        ("vertices", g.n),
        ("edges", g.m),
        ("connected", is_connected(g)),
        ("regular", is_regular(g)),
        ("complete", is_complete(g)),
        ("girth", girth(g)),
        ("diameter", diameter(g)),
        ("local", f"{summary.kind}({', '.join(map(str, summary.params))})" if summary else None),
    ]
    for key, value in rows:
        print(f"{key:10} {value}")
    return 0


def _cmd_orbits(args) -> int:
    g = _load_graph(args)
    group = automorphisms(g) if args.group is None else _load_group(g, args.group)
    if args.arcs is not None:
        tuples = enumerate_arcs(g, args.arcs)
        label = f"{args.arcs}-arcs"
    else:
        tuples = enumerate_geodesics(g, args.geodesics)
        label = f"{args.geodesics}-geodesics"
    transitive, part = transitive_on(tuples, group)
    print(f"{len(tuples)} {label} of {graph_label(g)} under a group of order {group.order}")
    print(f"orbits: {part.orbit_count} with sizes {sorted(part.sizes(), reverse=True)}")
    print(f"transitive: {transitive}")
    return 0


def _cmd_verify(args) -> int:
    check = CHECKS[args.check]
    takes_s = check.s_values is not None
    if takes_s != (args.s is not None):
        print(f"error: --s {'is required for' if takes_s else 'does not apply to'} this check",
              file=sys.stderr)
        return 2
    if args.group is not None and not check.takes_group:
        print("error: --group does not apply to this check", file=sys.stderr)
        return 2
    g = _load_graph(args)
    group = None if args.group is None else _load_group(g, args.group)
    return _emit(check.run(g, args.s, group), args)


def _cmd_corpus(args) -> int:
    corpus = Corpus.from_graph6_file(args.graph6) if args.graph6 else Corpus.default()
    return _emit(run_corpus(corpus, [args.check] if args.check else None), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linesym")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="catalog operations")
    cat_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list catalog names").set_defaults(func=_cmd_catalog)

    p_con = sub.add_parser("construct", help="derive a graph")
    kind = p_con.add_mutually_exclusive_group(required=True)
    kind.add_argument("--line", action="store_true")
    kind.add_argument("--subdivision", action="store_true")
    kind.add_argument("--clique", action="store_true")
    _add_input_args(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_inv = sub.add_parser("invariants", help="basic invariants of a graph")
    _add_input_args(p_inv)
    p_inv.set_defaults(func=_cmd_invariants)

    p_orb = sub.add_parser("orbits", help="orbit structure on arcs or geodesics")
    which = p_orb.add_mutually_exclusive_group(required=True)
    which.add_argument("--arcs", type=int, metavar="S")
    which.add_argument("--geodesics", type=int, metavar="S")
    p_orb.add_argument("--group", help="semicolon-separated one-line permutations")
    _add_input_args(p_orb)
    p_orb.set_defaults(func=_cmd_orbits)

    p_ver = sub.add_parser("verify", help="run one claim check")
    p_ver.add_argument("--check", choices=CHECKS, required=True)
    p_ver.add_argument("--s", type=int)
    p_ver.add_argument("--group", help="semicolon-separated one-line permutations")
    _add_input_args(p_ver)
    _add_output_args(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_cor = sub.add_parser("corpus", help="run checks over a corpus")
    cor_sub = p_cor.add_subparsers(dest="corpus_command", required=True)
    p_run = cor_sub.add_parser("run", help="run checks over the default corpus")
    which = p_run.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every check (the default)")
    which.add_argument("--check", choices=CHECKS, help="run a single check")
    p_run.add_argument("--graph6", metavar="FILE", help="corpus from a graph6 file")
    _add_output_args(p_run)
    p_run.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
