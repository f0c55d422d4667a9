"""Exit codes, report schemas and byte determinism of the CLI."""

import json
import os
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
    assert report["lorentzian"] is True


def test_denominator_subcommand():
    res = run_cli("denominator", "--lattice", "ex134.json",
                  "--roots", "1,0,0;0,1,0;0,0,1", "--height", "4")
    report = json.loads(res.stdout)
    assert report["residual_zero"] is True
    assert report["anti_invariant"] is True
    mults = {tuple(row["root"]): row["mult"] for row in report["multiplicities"]}
    assert mults[(1, 1, 1)] == 2
    assert mults[(0, 1, 1)] == 1


def test_denominator_walks_the_weyl_group_once(monkeypatch, capsys):
    from lorentzroots import cli, kacmoody

    calls = []
    walk = kacmoody.weyl_elements
    monkeypatch.setattr(kacmoody, "weyl_elements", lambda *a: calls.append(a) or walk(*a))
    assert cli.main(["denominator", "--lattice", "ex134.json",
                     "--roots", "1,0,0;0,1,0;0,0,1", "--height", "4"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["anti_invariant"] is True


@pytest.mark.parametrize("fixture, walls", [
    ("ex134", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ("diag_2_2_m2", ((1, -1, 0), (-1, 0, 0), (1, 1, 1))),      # walls of norms 4, 2, 2
])
def test_denominator_rows_are_the_root_vectors_and_their_norms(capsys, fixture, walls):
    # each row's vector is sum t_i a_i over the walls, and its norm is that
    # vector's lattice norm
    from lorentzroots import cli, linalg
    from lorentzroots.lattice import load_lattice, norm

    lat = load_lattice(os.path.join(os.path.dirname(cli.__file__), "fixtures", fixture + ".json"))
    roots = ";".join(",".join(map(str, w)) for w in walls)
    for height in range(9):
        assert cli.main(["denominator", "--lattice", fixture + ".json", f"--roots={roots}",
                         "--height", str(height)]) == 0
        rows = json.loads(capsys.readouterr().out)["multiplicities"]
        assert len(rows) > 0 or height == 0
        for row in rows:
            vector = linalg.mat_vec(linalg.transpose(walls), row["root"])
            assert row["vector"] == list(vector)
            assert row["norm"] == norm(lat, vector)


def test_a_file_in_the_working_directory_shadows_the_packaged_fixture(tmp_path, monkeypatch,
                                                                       capsys):
    from lorentzroots import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "ex134.json").write_text('{"name": "shadow", "gram": [[0, 1], [1, 0]]}')
    assert cli.main(["info", "--lattice", "ex134.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lattice"], report["rank"]) == ("shadow", 2)
    (tmp_path / "ex134.json").unlink()
    assert cli.main(["info", "--lattice", "ex134.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["lattice"], report["rank"]) == ("ex134", 3)


@pytest.mark.parametrize("path, make_dir", [
    ("no_such_lattice.json", False),
    ("ex134.json", True),         # a directory of a fixture's name
    ("", False),
])
def test_a_lattice_path_that_is_no_file_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                          path, make_dir):
    from lorentzroots import cli

    monkeypatch.chdir(tmp_path)
    if make_dir:
        (tmp_path / path).mkdir()
    assert cli.main(["info", f"--lattice={path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(path) in captured.err


def test_a_fixture_relative_path_to_a_file_that_is_no_lattice_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    # "../cli.py" is missing from the working directory, and beside the
    # fixtures it names a source file: a parse error, exit 2, no traceback
    from lorentzroots import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["info", "--lattice", "../cli.py"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse lattice file ../cli.py: ")


def test_family_subcommand():
    res = run_cli("family", "--lattice", "ex134.json", "--k", "2", "--window", "2")
    report = json.loads(res.stdout)
    assert report["cusp"] == [0, 1, 1]
    assert sorted(report["wall_norms"]) == [2, 2, 8, 8, 8, 8, 8, 8]


def test_family_checks_the_translation_once(monkeypatch, capsys):
    # one is_isometry check of phi and one fixed-space solve for its cusp,
    # shared by the wall sample and the report's "cusp" field
    from lorentzroots import cli, linalg, weylstruct

    calls = {"is_isometry": 0, "kernel_basis": 0}
    for owner, name in ((weylstruct, "is_isometry"), (linalg, "kernel_basis")):
        def spy(*a, _f=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*a, **kw)
        monkeypatch.setattr(owner, name, spy)
    assert cli.main(["family", "--lattice", "ex134.json", "--k", "2", "--window", "6"]) == 0
    assert calls == {"is_isometry": 1, "kernel_basis": 1}
    assert json.loads(capsys.readouterr().out)["cusp"] == [0, 1, 1]


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
    # a gram that is not a nonempty square symmetric integer matrix
    for i, gram in enumerate(([["a"]], [], [[1.5]], "x", [[1, 2]], [[1, 2], [3, 4]])):
        path = tmp_path / f"gram{i}.json"
        path.write_text(json.dumps({"gram": gram}))
        res = run_cli("info", "--lattice", str(path))
        assert res.returncode == 2, gram
        assert str(path) in res.stderr and "Traceback" not in res.stderr
    # booleans are not integer entries, and a name must be a string
    for i, data in enumerate(({"gram": [[True, False], [False, True]]},
                              {"gram": [[2]], "name": {"a": [1]}},
                              {"gram": [[2]], "name": 7})):
        path = tmp_path / f"lattice{i}.json"
        path.write_text(json.dumps(data))
        res = run_cli("info", "--lattice", str(path))
        assert res.returncode == 2, data
        assert str(path) in res.stderr and "Traceback" not in res.stderr
    # domain error: controller not timelike
    res = run_cli("vinberg", "--lattice", "ex134.json",
                  "--controller", "0,1,1", "--norms", "2")
    assert res.returncode == 1
    assert res.stdout == ""          # no partial JSON on error paths
    # the same with no root budget: the controller is still checked
    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,0,0",
                  "--norms", "2", "--max-roots", "0")
    assert res.returncode == 1 and "timelike" in res.stderr and res.stdout == ""
    # the same mirror twice
    res = run_cli("family", "--lattice", "ex134.json", "--k", "2", "--window", "2",
                  "--mirror-a", "0,1,0", "--mirror-b", "0,1,0")
    assert res.returncode == 1 and "Traceback" not in res.stderr
    # usage error from argparse
    assert run_cli("vinberg", "--lattice", "ex134.json").returncode == 2


@pytest.mark.parametrize("args, read", [
    (("qseries", "--eta-power=-24", "--n", "3000"), 5),   # about 540 kB, more than a pipe holds
    (("info", "--lattice", "u.json"), 0),                 # closed before the report is written
], ids=["large", "small"])
def test_a_closed_stdout_exits_141_quietly(args, read):
    # stdout block-buffered, as without PYTHONUNBUFFERED: a small report meets
    # the closed pipe only when main flushes it, not at the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "lorentzroots.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("text, kind", [("[1, 2]", "array"), ('"abc"', "string"),
                                        ("null", "null"), ("7", "number"), ("true", "boolean")])
def test_lattice_file_that_is_not_an_object_is_a_usage_error(tmp_path, text, kind):
    path = tmp_path / "lattice.json"
    path.write_text(text)
    res = run_cli("info", "--lattice", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: cannot parse lattice file {path}: ")
    assert f"JSON object, not {kind}" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_vinberg_congruence_option():
    spec = '[[[2,0,0],[0,2,0],[0,0,2]], [[1,0,0]]]'
    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                  "--norms", "2", "--congruence", spec, "--max-height-sq", "36/2",
                  "--max-roots", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["accepted"][0] == [1, 0, 0]
    assert all((r[0] % 2, r[1] % 2, r[2] % 2) == (1, 0, 0) for r in report["accepted"])


def test_vinberg_on_a_rank_one_lattice(tmp_path):
    # h^perp is 0: there is no slab to walk, and every shell is empty
    path = tmp_path / "rank1.json"
    path.write_text('{"name": "rank1", "gram": [[-2]]}')
    res = run_cli("vinberg", "--lattice", str(path), "--controller", "1", "--norms", "2")
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout == (
        '{"accepted":[],"bound_check":null,"command":"vinberg","controller":[1],'
        '"exhausted":true,"gram":[],"lattice":"rank1","max_height_sq":"1000",'
        '"max_roots":null,"norms":[2],"terminated":false}\n')


def test_vinberg_on_a_lattice_that_is_not_hyperbolic(tmp_path):
    # h = (1, 0, 0) is timelike, and the form on h^perp, diag(-2, 2), is indefinite
    path = tmp_path / "neg.json"
    path.write_text('{"name": "diag(-2,-2,2)", "gram": [[-2,0,0],[0,-2,0],[0,0,2]]}')
    res = run_cli("vinberg", "--lattice", str(path), "--controller", "1,0,0", "--norms", "2")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == ("error: lattice diag(-2,-2,2) is not hyperbolic: "
                          "the form is not positive definite on h^perp\n")


def test_vinberg_congruence_needs_a_residue():
    # with no residue every root would be rejected and the run would look exhausted
    spec = '[[[2,0,0],[0,1,0],[0,0,1]],[]]'
    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                  "--norms", "2", "--congruence", spec)
    assert res.returncode == 2
    assert f"--congruence {spec!r}" in res.stderr and "residue" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("spec", ['[[[true,0,0],[0,1,0],[0,0,1]],[[0,0,0]]]',
                                  '[[[1,0,0],[0,1,0],[0,0,1]],[[0,false,0]]]'])
def test_vinberg_congruence_booleans_are_usage_errors(spec):
    # JSON true is not the integer 1, as in the library's RootFilter
    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                  "--norms", "2", "--congruence", spec)
    assert res.returncode == 2
    assert f"--congruence {spec!r}" in res.stderr and "is not an integer" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize("spec", ["7", "[[1]]", "null", "[[], [[0,0,0]]]",
                                  "[[[1,0,0],[0,1,0],[0,0,1]],[[0,0]]]"])
def test_vinberg_congruence_of_the_wrong_shape_names_the_shape(spec):
    from lorentzroots.vinberg import CONGRUENCE_SHAPE

    res = run_cli("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                  "--norms", "2", "--congruence", spec)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: --norms '2' --congruence {spec!r}: {CONGRUENCE_SHAPE}\n"


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    nested = "[" * 50000 + "]" * 50000        # one argv string is capped at 128 KiB
    for args, named in ((("info", "--lattice", str(path)), str(path)),
                        (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                          "--norms", "2", "--congruence", nested), "--congruence")):
        res = run_cli(*args)
        assert res.returncode == 2
        assert named in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""


@pytest.mark.parametrize("lattice, roots", [
    ("u.json", "1,0;0,1"),                            # isotropic
    ("ex134.json", "1,0,0;0,1,0;0,0,1;1,1,1"),        # (1,1,1) is timelike
])
def test_classify_rejects_non_walls(lattice, roots):
    res = run_cli("classify", "--lattice", lattice, "--roots", roots)
    assert res.returncode == 1
    assert "not spacelike" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("modes", [(), ("--eta-power", "24", "--cusp-identity", "tau2m")])
def test_qseries_needs_exactly_one_mode(modes):
    res = run_cli("qseries", *modes, "--n", "3")
    assert res.returncode == 2
    assert "--eta-power" in res.stderr and "--cusp-identity" in res.stderr
    assert res.stdout == ""


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


def test_weyl_zero_rho_is_not_parabolic():
    # the isotropic walls of U solve to rho = 0: kind "none", and no search with a budget
    for budget in ((), ("--norm-bound", "3", "--max-pairing", "3")):
        res = run_cli("weyl", "--lattice", "u.json", "--roots", "1,0;0,1", *budget)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["rho"] == ["0", "0"] and report["rho_norm"] == "0"
        assert report["kind"] == "none" and report["candidates"] is None


def test_weyl_max_pairing_ignored_for_spacelike_rho():
    # rho = (5/2, 1/4, 1/4) has norm 15/2: no candidate search, with or without a budget
    args = ("weyl", "--lattice", "ex134.json", "--roots=-2,-2,-2;-2,-2,-1;-2,-1,-2",
            "--norm-bound", "4")
    plain = run_cli(*args)
    res = run_cli(*args, "--max-pairing", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout == plain.stdout
    assert json.loads(res.stdout)["candidates"] is None


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
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "0"),
     "--norms"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "-2"),
     "--norms"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2,-2"),
     "--norms"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", ",,"),
     "--norms"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--max-height-sq", "1/0"), "--max-height-sq"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--max-height-sq", "5/"), "--max-height-sq"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "[[], [[0,0,0]]]"), "--congruence"),     # det of the empty basis is 1
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "null"), "--congruence"),    # RootFilter reads None as no congruence
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "7"), "--congruence"),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
      "--congruence", "[[[1,0,0],[0,1,0],[0,0,1]],[[0,0]]]"), "--congruence"),
])
def test_bad_inputs_are_usage_errors(args, option):
    res = run_cli(*args)
    assert res.returncode == 2
    assert option in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args, option, value, code", [
    (("vinberg", "--lattice", "u_plus_2.json", "--norms", "2"), "--controller", "-4,-3,-1", 0),
    (("cartan", "--lattice", "u_plus_2.json"), "--roots", "-1,0,-1;1,-1,0;0,0,1", 0),
    (("cartan", "--lattice", "ex134.json"), "--roots", "-1,0,0;0,1,0;0,0,1", 1),
    (("weyl", "--lattice", "u_plus_2.json"), "--roots", "-1,0,-1;1,-1,0;0,0,1", 0),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "2"),
     "--mirror-a", "-0,-1,0", 0),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "2"),
     "--mirror-b", "-0,0,-1", 0),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "2"), "--e0", "-1,0,0", 1),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "2"), "--f01", "-4,-2,0", 1),
    (("family", "--lattice", "ex134.json", "--k", "2", "--window", "2"), "--f02", "-4,0,-2", 1),
    (("qseries", "--cusp-identity", "tau2m", "--n", "3"), "--coeffs", "-24,24,24", 0),
    (("qseries", "--n", "3"), "--eta-power", "-24", 0),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1"), "--norms", "-2,3", 2),
    (("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2"),
     "--max-height-sq", "-1/2", 2),
])
def test_negative_vector_after_a_space(capsys, args, option, value, code):
    from lorentzroots import cli

    outcomes = []
    for argv in ([*args, option, value], [*args, f"{option}={value}"]):
        outcomes.append((cli.main(argv), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code, outcomes[0]


def test_max_height_sq_is_ascii_p_or_p_over_q(capsys):
    # only -?[0-9]+ or -?[0-9]+/[0-9]+ parse, and the report echoes the
    # budget in lowest terms, so equal budgets give equal bytes
    from lorentzroots import cli

    base = ["vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2",
            "--max-roots", "2"]
    for bad in ("5_0", " 5", "+5/ 1", "+5", "5 ", "\uff15", "5/-1", "1/0", "5/", "-1/2"):
        assert cli.main([*base, f"--max-height-sq={bad}"]) == 2, bad
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot parse --max-height-sq {bad!r}\n"
    reports = []
    for good in ("10/2", "5", "05", "15/3"):
        assert cli.main([*base, "--max-height-sq", good]) == 0
        reports.append(capsys.readouterr().out)
    assert len(set(reports)) == 1 and '"max_height_sq":"5"' in reports[0]
    assert cli.main(base) == 0
    assert '"max_height_sq":"1000"' in capsys.readouterr().out


def test_help_takes_no_value(capsys):
    # a negative number after --help is not joined to it: help still prints
    from lorentzroots import cli

    assert cli.main(["vinberg", "--help", "-1"]) == 0
    assert capsys.readouterr().out.startswith("usage: lorentz-roots vinberg")


_VINBERG = ("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1", "--norms", "2")
_WEYL = ("weyl", "--lattice", "ex134.json", "--roots", _ROOTS)
_FAMILY = ("family", "--lattice", "ex134.json", "--k", "2", "--window", "2")
# int() reads each of these, but none is ASCII digits after an optional '-'
# (U+FF15 is a fullwidth 5, U+0663 an Arabic-Indic 3)
_NOT_ASCII_INTEGERS = ("1_0", "+5", " 5", "5 ", "\uff15", "\u0663")


def _row(args, option, template="{}"):
    values = [template.format(s) for s in _NOT_ASCII_INTEGERS]
    return pytest.param(args, option, values, id=option)


@pytest.mark.parametrize("args, option, values", [
    _row(("vinberg", "--lattice", "ex134.json", "--norms", "2"), "--controller", "1,{},1"),
    _row(("vinberg", "--lattice", "ex134.json", "--controller", "1,1,1"), "--norms", "2,{}"),
    _row(_VINBERG, "--max-height-sq"),
    _row(_VINBERG, "--max-roots"),
    _row(("weyl", "--lattice", "ex134.json"), "--roots", "1,0,0;0,{},0;0,0,1"),
    _row(_WEYL, "--norm-bound"),
    _row(_WEYL, "--max-pairing"),
    _row(("denominator", "--lattice", "ex134.json", "--roots", _ROOTS), "--height"),
    _row(("qseries", "--n", "3"), "--eta-power"),
    _row(("qseries", "--cusp-identity", "tau2m", "--n", "3"), "--coeffs", "24,{},24"),
    _row(("qseries", "--eta-power", "24"), "--n"),
    _row(_FAMILY, "--mirror-a", "0,{},0"),
    _row(_FAMILY, "--mirror-b", "0,0,{}"),
    _row(_FAMILY, "--e0", "{},0,0"),
    _row(_FAMILY, "--f01", "4,2,{}"),
    _row(_FAMILY, "--f02", "4,{},2"),
    _row(("family", "--lattice", "ex134.json", "--window", "2"), "--k"),
    _row(("family", "--lattice", "ex134.json", "--k", "2"), "--window"),
    # RootFilter rejects a basis that is not of finite index, as it does an empty residue list
    pytest.param(_VINBERG, "--congruence", ["[[[1,0,0],[0,1,0],[1,1,0]],[[0,0,0]]]"],
                 id="--congruence"),
])
def test_non_ascii_integers_and_rejected_filters_are_usage_errors(capsys, args, option, values):
    from lorentzroots import cli

    for value in values:
        assert cli.main([*args, f"{option}={value}"]) == 2, value
        out, err = capsys.readouterr()
        assert out == "" and option in err, (value, err)
