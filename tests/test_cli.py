import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linesym.cli
import linesym.verify
from linesym.cli import main
from linesym.constructions import catalog
from linesym.graph6 import emit_graph6
from linesym.verify import PASS, VerdictReport
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
    assert main(["verify", "--check", "thm13", "--catalog", "petersen"]) == 2
    assert "--s is required" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["lemma22", "classify-v4g3", "locally-cyclic"])
def test_verify_rejects_s_where_the_check_takes_none(check, capsys):
    assert main(["verify", "--check", check, "--s", "3", "--catalog", "petersen"]) == 2
    assert "--s does not apply" in capsys.readouterr().err


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


def test_enumeration_cap_is_exit_2(monkeypatch, capsys):
    def capped(g, s):
        raise EnumerationCapExceeded(f"enumeration cap reached: more than 10 arcs of length {s}")

    monkeypatch.setattr(linesym.cli, "enumerate_arcs", capped)
    assert main(["orbits", "--arcs", "3", "--catalog", "petersen"]) == 2
    err = capsys.readouterr().err
    assert "enumeration cap" in err and "Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linesym.cli", "catalog", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "icosahedron" in proc.stdout
