import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linesym.cli
import linesym.refinement
import linesym.symmetry
import linesym.verify
from linesym.cli import main
from linesym.constructions import catalog
from linesym.graph6 import emit_graph6
from linesym.verify import CHECKS, PASS, VerdictReport
from linesym.walks import EnumerationCapExceeded


@pytest.fixture()
def petersen_g6(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_bytes(emit_graph6(catalog("petersen")) + b"\n")
    return str(p)


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "petersen" in out and "tutte_8_cage" in out


def test_construct_line(capsys):
    assert main(["construct", "--line", "--catalog", "complete(4)"]) == 0
    out = capsys.readouterr().out
    assert "6 vertices" in out and "12 edges" in out


def test_construct_subdivision_and_clique(capsys):
    assert main(["construct", "--subdivision", "--catalog", "petersen"]) == 0
    assert "25 vertices" in capsys.readouterr().out
    assert main(["construct", "--clique", "--catalog", "petersen"]) == 0
    assert "15 vertices" in capsys.readouterr().out


def test_invariants_from_edges_file(tmp_path, capsys):
    f = tmp_path / "tri.edges"
    f.write_text("0 1\n1 2\n2 0\n")
    assert main(["invariants", "--edges", str(f)]) == 0
    out = capsys.readouterr().out
    assert "girth" in out and "3" in out


def test_edges_file_ids_are_bounded(tmp_path, capsys):
    f = tmp_path / "far.edges"
    f.write_text("0 258048\n")
    assert main(["construct", "--line", "--edges", str(f)]) == 2
    err = capsys.readouterr().err
    assert "out of scope" in err and "Traceback" not in err


def test_edges_parse_errors_name_the_file_and_line(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    for bad in ("1 2 3", "x 2", "7"):
        f.write_text(f"0 1\n\n{bad}\n")
        assert main(["invariants", "--edges", str(f)]) == 2
        err = capsys.readouterr().err
        assert f"error: {f}:3: " in err and repr(bad) in err
        assert "unpack" not in err and "literal" not in err


_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "--", "3 4 5", "7\t8", "1e3"]),
    st.text(alphabet="ab #,;\t", max_size=4),
)
_EDGE_LINES = st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=6)


@settings(max_examples=150, deadline=None)
@given(_EDGE_LINES, st.binary(max_size=14), st.booleans())
def test_malformed_inputs_exit_0_or_2(tmp_path_factory, edge_lines, g6, edges_input):
    """Any --edges text or graph6 bytes end in exit 0 or 2, never a traceback."""
    d = tmp_path_factory.mktemp("input")
    if edges_input:
        f = d / "in.edges"
        f.write_text("\n".join(edge_lines))
        argv = ["construct", "--line", "--edges", str(f)]
    else:
        f = d / "in.g6"
        f.write_bytes(g6)
        argv = ["construct", "--line", "--graph6", str(f)]
    assert main(argv) in (0, 2)


def test_invariants_from_graph6(petersen_g6, capsys):
    assert main(["invariants", "--graph6", petersen_g6]) == 0
    out = capsys.readouterr().out
    assert "regular" in out
    assert "disjoint_cliques(3, 1)" in out


def test_invariants_print_the_local_params_as_a_list(capsys):
    expected = {"icosahedron": "cycle(5)", "complete_multipartite(4,2)": "other()"}
    for name, local in expected.items():
        assert main(["invariants", "--catalog", name]) == 0
        assert f"local      {local}\n" in capsys.readouterr().out


def test_orbits_arcs(capsys):
    assert main(["orbits", "--arcs", "3", "--catalog", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "120" in out and "transitive: True" in out


def test_orbits_on_arcs_longer_than_the_recursion_limit(capsys):
    # The full dihedral group is given, so the group comes from --group and
    # the test exercises the enumeration, not the search.
    n = 1200
    rotation = " ".join(str((v + 1) % n) for v in range(n))
    reflection = " ".join(str(-v % n) for v in range(n))
    argv = ["orbits", "--arcs", "1100", "--catalog", f"cycle({n})",
            "--group", f"{rotation};{reflection}"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2400 1100-arcs" in out and "order 2400" in out
    assert "transitive: True" in out


def test_orbits_geodesics(capsys):
    assert main(["orbits", "--geodesics", "2", "--catalog", "complete_multipartite(3,2)"]) == 0
    out = capsys.readouterr().out
    assert "transitive: True" in out


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "--check", "thm13", "--s", "3", "--catalog", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_verify_not_applicable_is_not_failure(capsys):
    assert main(["verify", "--check", "thm13", "--s", "2", "--catalog", "complete(4)"]) == 0
    assert "not-applicable" in capsys.readouterr().out


def test_verify_requires_s(capsys):
    with_s = [name for name, check in CHECKS.items() if check.s_values is not None]
    assert {"thm13", "thm32", "weiss"} <= set(with_s)
    for name in with_s:
        assert main(["verify", "--check", name, "--catalog", "petersen"]) == 2
        assert "--s is required" in capsys.readouterr().err


@pytest.mark.parametrize("check", [n for n, c in CHECKS.items() if c.s_values is None])
def test_verify_rejects_s_where_the_check_takes_none(check, capsys):
    assert main(["verify", "--check", check, "--s", "3", "--catalog", "petersen"]) == 2
    assert "--s does not apply" in capsys.readouterr().err


def test_verify_rejects_group_where_the_check_takes_none(capsys):
    # The identity of petersen: a valid group, rejected only by a check that takes none.
    identity = " ".join(map(str, range(10)))
    assert not CHECKS["lemma22"].takes_group
    for name, check in CHECKS.items():
        s = ["--s", "2"] if check.s_values is not None else []
        argv = ["verify", "--check", name, *s, "--catalog", "petersen", "--group", identity]
        assert main(argv) == (0 if check.takes_group else 2), name
        rejected = "error: --group does not apply to this check" in capsys.readouterr().err
        assert rejected == (not check.takes_group), name


@pytest.mark.parametrize("argv, searched_orders", [
    (["--check", "lemma22", "--catalog", "petersen"], []),  # takes no group
    (["--check", "thm13", "--s", "2", "--catalog", "complete(6)"], []),  # gated out
    (["--check", "thm13", "--s", "3", "--catalog", "petersen"], [10]),  # reaches its group
])
def test_verify_searches_only_when_the_check_reaches_its_group(argv, searched_orders,
                                                               monkeypatch, capsys):
    searched = []
    search = linesym.refinement.automorphism_generators

    def spy(adj, colors=None):
        searched.append(len(adj))
        return search(adj, colors)

    linesym.symmetry.automorphisms.cache_clear()
    monkeypatch.setattr(linesym.refinement, "automorphism_generators", spy)
    assert main(["verify", *argv]) == 0
    assert searched == searched_orders


def test_verify_checks_a_callers_group_once(monkeypatch, capsys):
    """`--group` is checked when it is loaded, and the check's `_acting_group`
    does not check it on the same graph again; a generator that breaks an edge
    still exits 2 with its message.  A work count does not vary between
    machines, so this guard cannot flake."""
    calls, validate = [], linesym.symmetry._automorphisms_of
    monkeypatch.setattr(linesym.symmetry, "_automorphisms_of",
                        lambda g, perms: calls.append(g) or validate(g, perms))
    gens = ";".join(p.one_line() for p in linesym.symmetry.automorphisms(catalog("petersen")).generators)
    argv = ["verify", "--check", "thm13", "--s", "3", "--catalog", "petersen"]
    assert main([*argv, "--group", gens]) == 0
    assert "pass" in capsys.readouterr().out and len(calls) == 1
    assert main([*argv, "--group", "1 0 2 3 4 5 6 7 8 9"]) == 2
    assert "error: permutation '1 0 2 3 4 5 6 7 8 9' breaks edge" in capsys.readouterr().err


def test_verify_records_format(capsys):
    assert main([
        "verify", "--check", "lemma22", "--catalog", "cycle(6)", "--format", "records",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert {r["claim"] for r in recs} == {"lemma-2.2", "subdiv-diam"}
    assert all(r["verdict"] == PASS for r in recs)


def test_verify_with_subgroup(capsys):
    import itertools

    # rotate the base 5-set; its action on 2-subsets is an order-5 subgroup
    # in the labeling the catalog uses for this graph
    pairs = list(itertools.combinations(range(5), 2))
    lift = {p: i for i, p in enumerate(pairs)}
    images = []
    for a, b in pairs:
        ra, rb = (a + 1) % 5, (b + 1) % 5
        images.append(lift[(min(ra, rb), max(ra, rb))])
    gen = " ".join(str(i) for i in images)
    assert main([
        "verify", "--check", "thm13", "--s", "2", "--catalog", "petersen",
        "--group", gen,
    ]) == 0
    out = capsys.readouterr().out
    assert "pass" in out  # both sides false under the small subgroup


def test_verify_rejects_non_automorphism_group(capsys):
    code = main([
        "verify", "--check", "thm13", "--s", "2", "--catalog", "petersen",
        "--group", "1 0 2 3 4 5 6 7 8 9",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_report_file(tmp_path, capsys):
    out_file = tmp_path / "r.jsonl"
    assert main([
        "verify", "--check", "lemma22", "--catalog", "petersen",
        "--report", str(out_file),
    ]) == 0
    capsys.readouterr()
    assert len(out_file.read_text().strip().splitlines()) == 2


def test_corpus_run_default(capsys):
    assert main(["corpus", "run", "--check", "lemma22"]) == 0
    out = capsys.readouterr().out
    assert "0 fail" in out


def test_corpus_run_all_and_check_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--all", "--check", "lemma22"])
    assert exc.value.code == 2
    assert "not allowed with argument --all" in capsys.readouterr().err


def test_corpus_run_from_graph6_file(petersen_g6, capsys):
    assert main(["corpus", "run", "--all", "--graph6", petersen_g6]) == 0
    out = capsys.readouterr().out
    assert "petersen.g6:1" in out


def test_corpus_one_corrupted_fixture_sets_exit_code(monkeypatch, capsys):
    """Harness behavior for a single failing record: exit 1, fail count 1.

    Every checker encodes a theorem, so no honest graph can make one fail;
    corrupt exactly one fixture's result instead and watch the plumbing.
    """
    real = linesym.verify.check_diameter_lemma

    def broken(g):
        if g.name == "petersen":
            return VerdictReport(
                "lemma-2.2", g.name, {}, 99, 2, "fail",
                {"lhs": 99, "rhs": 2}, {}, 0.0,
            )
        return real(g)

    monkeypatch.setattr(linesym.verify, "check_diameter_lemma", broken)
    code = main(["corpus", "run", "--check", "lemma22"])
    tally = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert "1 fail" in tally


def test_missing_file_is_usage_error(capsys):
    assert main(["invariants", "--graph6", "/nonexistent/x.g6"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_catalog_name_is_usage_error(capsys):
    assert main(["invariants", "--catalog", "mystery"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["invariants", "--catalog", "projective_plane(4)"]) == 2
    assert "needs a prime p" in capsys.readouterr().err


def test_enumeration_cap_is_exit_2(monkeypatch, capsys):
    def capped(g, s):
        raise EnumerationCapExceeded(f"enumeration cap reached: more than 10 arcs of length {s}")

    monkeypatch.setattr(linesym.cli, "enumerate_arcs", capped)
    assert main(["orbits", "--arcs", "3", "--catalog", "petersen"]) == 2
    err = capsys.readouterr().err
    assert "enumeration cap" in err and "Traceback" not in err


def test_long_thin_arcs_stop_at_the_cap_on_their_entries(capsys):
    # cycle(3) has 6 arcs of each length; at 3,000,001 entries each they
    # would take about 290 MB, so the cap counts entries, not tuples.
    assert main(["orbits", "--catalog", "cycle(3)", "--arcs", "3000000"]) == 2
    err = capsys.readouterr().err
    assert "more than 10000000 entries in arcs" in err and "Traceback" not in err


def test_running_out_of_memory_is_exit_2(monkeypatch, capsys):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(linesym.cli, "clique_graph", exhausted)
    assert main(["construct", "--clique", "--catalog", "petersen"]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linesym.cli", "catalog", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "icosahedron" in proc.stdout
