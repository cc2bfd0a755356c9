from __future__ import annotations

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from regulus.cli import run
from regulus.gadgets import full_star, star_plus
from regulus.hypercore import complete_uniform, parse, read_hypergraph, serialize, write_hypergraph
from regulus.regdetect import parse_certificate, verify_certificate

FANO_TEXT = "7 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def python(*argv):
    """A fresh interpreter that imports regulus from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_star_writes_file_and_descriptor(tmp_path, capsys):
    out = tmp_path / "s.hg"
    code, stdout, _ = invoke(capsys, "generate", "--kind", "star",
                             "--n", "6", "--k", "3", "--out", str(out))
    assert code == 0
    assert stdout == f"wrote {out} (6 vertices, 10 edges)\n"
    assert read_hypergraph(str(out)) == full_star(6, 3)[0]
    desc = (tmp_path / "s.desc").read_text()
    assert desc == "kind star\nparam k 3\nparam n 6\ncenter 0\n"


def test_generate_star_plus_descriptor(tmp_path, capsys):
    out = tmp_path / "sp.hg"
    code, _, _ = invoke(capsys, "generate", "--kind", "star-plus",
                        "--n", "8", "--k", "3", "--r", "3", "--out", str(out))
    assert code == 0
    assert read_hypergraph(str(out)) == star_plus(8, 3, 3)[0]
    desc = (tmp_path / "sp.desc").read_text()
    assert desc == ("kind star-plus\nparam k 3\nparam n 8\nparam r 3\n"
                    "center 0\npart 1 2 3\n")


def test_generate_layered_star_has_seeded_params(tmp_path, capsys):
    out = tmp_path / "c.hg"
    code, _, _ = invoke(capsys, "generate", "--kind", "bes-layer-star", "--n", "9",
                        "--k", "4", "--r", "3", "--seed", "5", "--out", str(out))
    assert code == 0
    desc = (tmp_path / "c.desc").read_text()
    assert "kind bes-layer-star\n" in desc
    assert "param seed 5\n" in desc
    assert "param r_prime 3\n" in desc


def test_generate_gadget_checks_vertex_count(tmp_path, capsys):
    out = tmp_path / "h.hg"
    code, _, err = invoke(capsys, "generate", "--kind", "hkl",
                          "--n", "7", "--k", "3", "--l", "1", "--out", str(out))
    assert code == 2
    assert "error:" in err and "2k" in err
    code, _, _ = invoke(capsys, "generate", "--kind", "hkl",
                        "--k", "3", "--l", "1", "--out", str(out))
    assert code == 0
    assert len(read_hypergraph(str(out)).edges) == 4


def test_generate_gadget_refuses_k_below_1(tmp_path, capsys):
    # each construction names the k it refuses, before any vertex count
    out = str(tmp_path / "h.hg")
    for k in ("-1", "0"):
        for extra in (["--kind", "example-b", "--n", "5", "--c", "2"],
                      ["--kind", "example-a", "--n", "5", "--variant", "r-eq-k"],
                      ["--kind", "hkl", "--l", "0", "--n", "4"]):
            code, _, err = invoke(capsys, "generate", *extra, "--k", k, "--out", out)
            assert code == 2, extra
            assert "error:" in err and f"got k={k}" in err and "2k" not in err, (extra, err)


def test_generate_missing_parameter(tmp_path, capsys):
    code, _, err = invoke(capsys, "generate", "--kind", "star-plus",
                          "--n", "8", "--k", "3", "--out", str(tmp_path / "x.hg"))
    assert code == 2
    assert "--r is required" in err


def test_detect_none_on_star(tmp_path, capsys):
    path = tmp_path / "s.hg"
    write_hypergraph(full_star(6, 3)[0], str(path))
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "2")
    assert code == 0
    assert stdout == "NONE (proved)\n"
    code, _, _ = invoke(capsys, "detect", "--input", str(path), "--r", "2",
                        "--expect-found")
    assert code == 1
    # The size count proves this host free before any node is searched.
    write_hypergraph(complete_uniform(7, 4), str(path))
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "3")
    assert (code, stdout) == (0, "NONE (proved)\n")
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "3",
                             "--format", "csv")
    assert stdout == "status,edges,nodes\nnone,0,0\n"


def test_detect_fano_with_certificate(tmp_path, capsys):
    path = tmp_path / "fano.hg"
    path.write_text(FANO_TEXT)
    cert_path = tmp_path / "fano.cert"
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "3",
                             "--certificate", str(cert_path))
    assert code == 0
    assert stdout == "FOUND 7 edges\n"
    cert = parse_certificate(cert_path.read_text())
    assert verify_certificate(parse(FANO_TEXT), cert) == (True, "ok")

    code, stdout, _ = invoke(capsys, "verify", "--input", str(path),
                             "--certificate", str(cert_path))
    assert code == 0
    assert stdout == "OK\n"


def test_detect_csv(tmp_path, capsys):
    path = tmp_path / "fano.hg"
    path.write_text(FANO_TEXT)
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "3",
                             "--format", "csv")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "status,edges,nodes"
    assert lines[1].startswith("found,7,")


def test_detect_budget_exhaustion(tmp_path, capsys):
    path = tmp_path / "s.hg"
    write_hypergraph(full_star(9, 4)[0], str(path))
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "2",
                             "--max-nodes", "3")
    assert code == 3
    assert stdout.startswith("BUDGET EXHAUSTED after ")


def test_detect_wide_host_ends_on_its_node_budget(tmp_path):
    # 1081 edges, more than the interpreter's default recursion limit
    path = tmp_path / "wide.hg"
    write_hypergraph(full_star(48, 3)[0], str(path))
    proc = python("-m", "regulus.cli", "detect", "--input", str(path), "--r", "2",
                  "--max-nodes", "2000", "--format", "csv")
    assert proc.returncode == 3
    assert proc.stdout == "status,edges,nodes\nbudget,0,2000\n"
    assert "Traceback" not in proc.stderr


def test_detect_env_budget_and_flag_override(tmp_path, capsys, monkeypatch):
    # No environment variable sets a budget: the same argv gives the same
    # stdout whatever the environment holds.
    path = tmp_path / "big.hg"
    write_hypergraph(full_star(10, 5)[0], str(path))
    monkeypatch.setenv("REGULUS_MAX_MILLIS", "1")
    code, stdout, _ = invoke(capsys, "detect", "--input", str(path), "--r", "2")
    assert code == 0
    assert stdout == "NONE (proved)\n"
    small = tmp_path / "small.hg"
    write_hypergraph(full_star(6, 3)[0], str(small))
    code, stdout, _ = invoke(capsys, "detect", "--input", str(small), "--r", "2",
                             "--max-millis", "60000")
    assert code == 0
    assert stdout == "NONE (proved)\n"


def test_verify_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "fano.hg"
    path.write_text(FANO_TEXT)
    cert_path = tmp_path / "bad.cert"
    cert_path.write_text("3 2\n0 1\n0 1 2 3 4\n")
    code, stdout, _ = invoke(capsys, "verify", "--input", str(path),
                             "--certificate", str(cert_path))
    assert code == 1
    assert stdout.startswith("FAIL ")
    code, stdout, _ = invoke(capsys, "verify", "--input", str(path),
                             "--certificate", str(cert_path), "--format", "csv")
    assert code == 1
    assert stdout.splitlines()[0] == "result,reason"
    assert stdout.splitlines()[1].startswith("fail,")


@pytest.mark.parametrize("text", [
    "1 1\n0\n0 1 2\nextra junk\n",  # r = 1 and a trailing line
    "3 1\n0\n0 1 2\n\n4 5\n",       # a trailing line after a blank one
    "-3 1\n0\n0 1 2\n",              # r < 2
], ids=["r1-and-trailing-line", "trailing-line-after-blank", "negative-r"])
def test_verify_malformed_certificate_is_input_error(tmp_path, text):
    path = tmp_path / "h.hg"
    path.write_text("4 2\n0 1 2\n1 2 3\n")
    cert_path = tmp_path / "bad.cert"
    cert_path.write_text(text)
    proc = python("-m", "regulus.cli", "verify", "--input", str(path),
                  "--certificate", str(cert_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_import_does_not_load_numpy():
    proc = python("-c", "import sys, regulus.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_find_sunflower(tmp_path, capsys):
    path = tmp_path / "m.hg"
    path.write_text("9 3\n0 1 2\n3 4 5\n6 7 8\n")
    code, stdout, _ = invoke(capsys, "find", "--pattern", "sunflower",
                             "--input", str(path), "--p", "3")
    assert code == 0
    assert stdout == "SUNFLOWER petals=0,1,2 core=\n"


def test_find_sunflower_negative(tmp_path, capsys):
    path = tmp_path / "f.hg"
    path.write_text("4 4\n0 2\n0 3\n1 2\n1 3\n")
    code, stdout, _ = invoke(capsys, "find", "--pattern", "sunflower",
                             "--input", str(path), "--p", "3")
    assert code == 0
    assert stdout == "NONE\n"
    code, _, _ = invoke(capsys, "find", "--pattern", "sunflower",
                        "--input", str(path), "--p", "3", "--expect-found")
    assert code == 1


def test_find_same_union(tmp_path, capsys):
    path = tmp_path / "q.hg"
    path.write_text("6 4\n0 1 2\n1 2 3\n0 4 5\n3 4 5\n")
    code, stdout, _ = invoke(capsys, "find", "--pattern", "same-union",
                             "--input", str(path))
    assert code == 0
    assert stdout == "SAME-UNION a=1 b=2 c=0 d=3\n"


def test_find_gadget_with_sidecar(tmp_path, capsys):
    path = tmp_path / "g.hg"
    path.write_text("6 4\n0 1 4\n2 3 4\n0 1 5\n2 3 5\n")
    sidecar = tmp_path / "g.found"
    code, stdout, _ = invoke(capsys, "find", "--pattern", "gadget",
                             "--input", str(path), "--k", "3", "--l", "1",
                             "--out", str(sidecar))
    assert code == 0
    assert stdout == "GADGET k=3 l=1 prime=0 parts=0,1|2,3 pairs=4,5 edges=0,1,2,3\n"
    assert sidecar.read_text() == stdout


def test_find_gadget_requires_dimensions(tmp_path, capsys):
    path = tmp_path / "g.hg"
    path.write_text("6 1\n0 1 2\n")
    code, _, err = invoke(capsys, "find", "--pattern", "gadget",
                          "--input", str(path), "--k", "3")
    assert code == 2
    assert "--l is required" in err


def test_search_text_output(capsys):
    code, stdout, stderr = invoke(capsys, "search", "--n", "5", "--k", "3", "--r", "2")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0:5] == ["n 5", "k 3", "r 2", "optimum 10", "complete yes"]
    assert lines[5].startswith("nodes ")
    assert lines[6].startswith("witness 0,1,2;")
    assert stderr.startswith("elapsed_ms ")


def test_search_csv_and_witness_file(tmp_path, capsys):
    out = tmp_path / "w.hg"
    code, stdout, _ = invoke(capsys, "search", "--n", "4", "--k", "3", "--r", "2",
                             "--format", "csv", "--out", str(out))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "n,k,r,optimum,complete,nodes"
    assert lines[1].startswith("4,3,2,4,1,")
    assert len(read_hypergraph(str(out)).edges) == 4


def test_search_budget_exit_code(capsys):
    code, stdout, _ = invoke(capsys, "search", "--n", "6", "--k", "3", "--r", "2",
                             "--max-nodes", "10")
    assert code == 3
    assert "complete no" in stdout


def test_search_node_budget_reports_exactly_the_budget(capsys):
    code, stdout, _ = invoke(capsys, "search", "--n", "7", "--k", "3", "--r", "2",
                             "--max-nodes", "10000", "--format", "csv")
    assert code == 3
    assert stdout.splitlines() == ["n,k,r,optimum,complete,nodes", "7,3,2,15,0,10000"]


def test_search_settled_by_the_count_is_complete_under_a_budget(capsys):
    # C(7,4) has no room for a 3-regular family, so no node is needed
    code, stdout, _ = invoke(capsys, "search", "--n", "7", "--k", "4", "--r", "3",
                             "--max-nodes", "1", "--format", "csv")
    assert code == 0
    assert stdout.splitlines() == ["n,k,r,optimum,complete,nodes", "7,4,3,35,1,0"]


def test_search_guard_is_usage_error(capsys):
    code, _, err = invoke(capsys, "search", "--n", "9", "--k", "4", "--r", "2")
    assert code == 2
    assert "error:" in err


def test_wedges_text(tmp_path, capsys):
    path = tmp_path / "sp.hg"
    write_hypergraph(star_plus(8, 3, 3)[0], str(path))
    code, stdout, _ = invoke(capsys, "wedges", "--input", str(path),
                             "--v", "0", "--r", "3")
    assert code == 0
    assert stdout == "v 0\nr 3\nk 3\nk_prime 1\nlambda 0\nedge 3 0\n"


def test_wedges_csv(tmp_path, capsys):
    path = tmp_path / "sp.hg"
    write_hypergraph(star_plus(8, 3, 3)[0], str(path))
    code, stdout, _ = invoke(capsys, "wedges", "--input", str(path),
                             "--v", "0", "--r", "3", "--format", "csv")
    assert code == 0
    assert stdout == "edge,count\n3,0\ntotal,0\n"


def test_classify_text(tmp_path, capsys):
    path = tmp_path / "st.hg"
    write_hypergraph(full_star(12, 5)[0], str(path))
    code, stdout, _ = invoke(capsys, "classify", "--input", str(path), "--v", "0")
    assert code == 0
    assert stdout == f"v 0\ngood {comb(11, 3)}\nbad 0\n"


def test_classify_csv_lists_every_3set(tmp_path, capsys):
    path = tmp_path / "st.hg"
    write_hypergraph(full_star(12, 5)[0], str(path))
    code, stdout, _ = invoke(capsys, "classify", "--input", str(path), "--v", "0",
                             "--format", "csv")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "a,b,c,bad"
    assert len(lines) == 1 + comb(11, 3)
    assert lines[1] == "1,2,3,0"


def test_table_mv_conjecture_reports_mismatch_honestly(capsys):
    code, stdout, _ = invoke(capsys, "table", "--claim", "mv-conjecture",
                             "--k", "3", "--n-max", "5", "--format", "csv")
    assert code == 0
    assert stdout.splitlines() == [
        "n,k,r,conjectured,optimum,match,method",
        "4,3,2,4,4,1,exhaustive",
        "5,3,2,7,10,0,exhaustive",
    ]


def test_table_star_extremal(capsys):
    code, stdout, _ = invoke(capsys, "table", "--claim", "star-extremal",
                             "--k", "3", "--r", "2", "--n-max", "7", "--format", "csv")
    assert code == 0
    assert stdout.splitlines() == [
        "n,k,r,edges,free,method",
        "4,3,2,3,1,solver",
        "5,3,2,6,1,solver",
        "6,3,2,10,1,solver",
        "7,3,2,15,1,solver",
    ]


def test_table_example_b(capsys):
    code, stdout, _ = invoke(capsys, "table", "--claim", "example-b",
                             "--k", "3", "--c", "2", "--n-max", "6", "--format", "csv")
    assert code == 0
    assert stdout.splitlines() == [
        "n,k,c,edges,r,free,method",
        "4,3,2,2,9,1,solver",
        "5,3,2,6,9,1,solver",
        "6,3,2,12,9,1,solver",
    ]


def test_table_example_b_refuses_k_below_2(capsys):
    code, stdout, err = invoke(capsys, "table", "--claim", "example-b", "--k", "1", "--n-max", "4")
    assert code == 2
    assert stdout == ""
    assert "k >= 2, got k=1" in err


def test_table_example_b_refuses_c_below_2(capsys):
    code, stdout, err = invoke(capsys, "table", "--claim", "example-b",
                               "--k", "3", "--c", "-1", "--n-max", "4")
    assert code == 2
    assert stdout == ""
    assert "c >= 2, got c=-1" in err


def test_table_text_is_aligned(capsys):
    code, stdout, _ = invoke(capsys, "table", "--claim", "star-extremal",
                             "--k", "3", "--r", "2", "--n-max", "5")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].split() == ["n", "k", "r", "edges", "free", "method"]
    assert lines[1].split() == ["4", "3", "2", "3", "1", "solver"]


def test_table_requires_n_max(capsys):
    code, _, err = invoke(capsys, "table", "--claim", "mv-conjecture", "--k", "3")
    assert code == 2
    assert "--n-max is required" in err


def test_usage_errors(tmp_path, capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "detect", "--input", "nope.hg")[0] == 2  # missing --r
    assert invoke(capsys, "generate", "--kind", "c64", "--n", "9", "--k", "4", "--r", "3",
                  "--out", str(tmp_path / "c.hg"))[0] == 2  # the alias is gone
    assert invoke(capsys, "table", "--claim", "sunflower-bounds", "--n-max", "5")[0] == 2
    # options nothing read are gone: --seed outside generate, generate
    # --format and table --n (not an abbreviation of --n-max either)
    assert invoke(capsys, "detect", "--input", "nope.hg", "--r", "2", "--seed", "1")[0] == 2
    assert invoke(capsys, "search", "--n", "4", "--k", "3", "--r", "2", "--seed", "1")[0] == 2
    assert invoke(capsys, "generate", "--kind", "star", "--n", "6", "--k", "3",
                  "--format", "csv", "--out", str(tmp_path / "s.hg"))[0] == 2
    assert invoke(capsys, "table", "--claim", "mv-conjecture", "--n", "5",
                  "--n-max", "5")[0] == 2
    code, _, err = invoke(capsys, "detect", "--input",
                          str(tmp_path / "missing.hg"), "--r", "2")
    assert code == 2
    assert "error:" in err


def test_parse_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("3 1\n0 1 9\n")
    code, _, err = invoke(capsys, "detect", "--input", str(path), "--r", "2")
    assert code == 2
    assert "error: line 2" in err


def test_huge_vertex_count_is_usage_error(tmp_path):
    path = tmp_path / "huge.hg"
    path.write_text("100000000000000000000 1\n99999999999999999999\n")
    proc = python("-m", "regulus.cli", "detect", "--input", str(path), "--r", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 1: vertex count")
    assert "Traceback" not in proc.stderr


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
