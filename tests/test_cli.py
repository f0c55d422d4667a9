"""Exit codes, report schemas and byte determinism of the CLI."""

import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lorentzroots.cli", *args],
                          capture_output=True, text=True)


def test_info_u():
    res = run_cli("info", "--lattice", "u.json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["signature"] == [1, 1]
    assert report["even"] is True
    assert report["exponent"] == 1


def test_vinberg_example():
    res = run_cli("vinberg", "--lattice", "ex134.json",
                  "--controller", "1,1,1", "--norms", "2")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert sorted(report["accepted"]) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert report["gram"] == [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]
    assert report["terminated"] is True
    assert report["bound_check"]["violations"] == []


def test_qseries_example():
    res = run_cli("qseries", "--eta-power", "-24", "--n", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "[1,24,324]"


def test_qseries_cusp_identity():
    res = run_cli("qseries", "--cusp-identity", "tau2m", "--coeffs", "24,24,24", "--n", "3")
    assert json.loads(res.stdout) == [24, -252, 1472]


def test_weyl_and_classify_and_cartan():
    res = run_cli("weyl", "--lattice", "ex134.json",
                  "--roots", "1,0,0;0,1,0;0,0,1", "--norm-bound", "64")
    report = json.loads(res.stdout)
    assert report["rho"] == ["1/2", "1/2", "1/2"]
    assert report["rho_norm"] == "-3/2"
    assert report["kind"] == "elliptic-type"
    assert [1, 0, 0] in report["candidates"]

    res = run_cli("classify", "--lattice", "ex134.json", "--roots", "1,0,0;0,1,0;0,0,1")
    report = json.loads(res.stdout)
    assert report["classification"] == "elliptic"
    assert report["symmetry_order"] == 6

    res = run_cli("cartan", "--lattice", "ex134.json", "--roots", "1,0,0;0,1,0;0,0,1")
    report = json.loads(res.stdout)
    assert report["cartan_matrix"] == [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]


def test_denominator_subcommand():
    res = run_cli("denominator", "--lattice", "ex134.json",
                  "--roots", "1,0,0;0,1,0;0,0,1", "--height", "4")
    report = json.loads(res.stdout)
    assert report["residual_zero"] is True
    assert report["anti_invariant"] is True
    mults = {tuple(row["root"]): row["mult"] for row in report["multiplicities"]}
    assert mults[(1, 1, 1)] == 2
    assert mults[(0, 1, 1)] == 1


def test_family_subcommand():
    res = run_cli("family", "--lattice", "ex134.json", "--k", "2", "--window", "2")
    report = json.loads(res.stdout)
    assert report["cusp"] == [0, 1, 1]
    assert sorted(report["wall_norms"]) == [2, 2, 8, 8, 8, 8, 8, 8]


def test_determinism_double_run():
    import hashlib

    argses = [
        ("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2"),
        ("denominator", "--lattice", "ex134.json", "--roots", "1,0,0;0,1,0;0,0,1",
         "--height", "5"),
        ("qseries", "--eta-power", "24", "--n", "12"),
    ]
    for args in argses:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        a = hashlib.sha256(first.stdout.encode()).hexdigest()
        b = hashlib.sha256(second.stdout.encode()).hexdigest()
        assert a == b


def test_exit_codes(tmp_path):
    assert run_cli("info", "--lattice", "no_such_file.json").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("info", "--lattice", str(bad)).returncode == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xd0\xcf\x11\xe0")
    assert run_cli("info", "--lattice", str(binary)).returncode == 2
    res = run_cli("info", "--lattice", str(tmp_path))    # a directory
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    # domain error: controller not timelike
    res = run_cli("vinberg", "--lattice", "ex134.json",
                  "--controller", "0,1,1", "--norms", "2")
    assert res.returncode == 1
    assert res.stdout == ""          # no partial JSON on error paths
    # the same mirror twice
    res = run_cli("family", "--lattice", "ex134.json", "--k", "2", "--window", "2",
                  "--mirror-a", "0,1,0", "--mirror-b", "0,1,0")
    assert res.returncode == 1 and "Traceback" not in res.stderr
    # usage error from argparse
    assert run_cli("vinberg", "--lattice", "ex134.json").returncode == 2


def test_vinberg_congruence_option():
    spec = '[[[2,0,0],[0,2,0],[0,0,2]], [[1,0,0]]]'
    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                  "--norms", "2", "--congruence", spec, "--max-height-sq", "36/2",
                  "--max-roots", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["accepted"][0] == [1, 0, 0]
    assert all((r[0] % 2, r[1] % 2, r[2] % 2) == (1, 0, 0) for r in report["accepted"])


def test_weyl_parabolic_candidates_need_budget():
    roots = "4,2,0;4,0,2;1,2,6"
    res = run_cli("weyl", "--lattice", "ex134.json", "--roots", roots,
                  "--norm-bound", "64")
    report = json.loads(res.stdout)
    assert report["kind"] == "parabolic-type"
    assert report["candidates"] is None      # no search budget given
    res = run_cli("weyl", "--lattice", "ex134.json", "--roots", roots,
                  "--norm-bound", "64", "--max-pairing", "14")
    report = json.loads(res.stdout)
    assert [1, 0, 0] in report["candidates"]
    assert [4, 2, 0] in report["candidates"]


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("--output", str(out), "info", "--lattice", "u.json")
    assert res.returncode == 0 and res.stdout == ""
    assert json.loads(out.read_text())["lattice"] == "u"


_ROOTS = "1,0,0;0,1,0;0,0,1"


@pytest.mark.parametrize("args, option", [
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "[[1]]"), "--congruence"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "[[[1]], [[0]]]"), "--congruence"),
    (("qseries", "--cusp-identity", "tau2m", "--coeffs", "1,x", "--n", "3"), "--coeffs"),
    (("denominator", "--lattice", "ex134.json", "--roots", _ROOTS, "--height", "-1"),
     "--height"),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "-1"), "--window"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--max-roots", "-1"), "--max-roots"),
    (("qseries", "--eta-power", "24", "--n", "-2"), "--n"),
    (("qseries", "--cusp-identity", "m2tau", "--coeffs", "1", "--n", "-2"), "--n"),
    (("cartan", "--lattice", "ex134.json", "--roots", "1,0;0,1"), "--roots"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1", "--norms", "2"),
     "--controller"),
    (("weyl", "--lattice", "ex134.json", "--roots", "1,0,0,0"), "--roots"),
    (("denominator", "--lattice", "ex134.json", "--roots=--"), "--roots"),
    (("qseries", "--eta-power=--", "--n", "3"), "--eta-power"),
])
def test_bad_inputs_are_usage_errors(args, option):
    res = run_cli(*args)
    assert res.returncode == 2
    assert option in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
