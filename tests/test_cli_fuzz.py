"""Property tests of the CLI boundary: over generated argument lists for
every subcommand on the shipped fixtures, and over generated lattice files,
`cli.main` returns 0, 1 or 2 and never lets an exception escape."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lorentzroots import cli  # noqa: E402


RANKS = {"ex134.json": 3, "u.json": 2, "u_plus_2.json": 3, "u_plus_a2.json": 4,
         "diag_2_2_m2.json": 3, "no_such.json": 3}
GOOD_ROOTS = ["1,0,0;0,1,0;0,0,1", "4,2,0;4,0,2;1,2,6", "1,0,0;-1,1,0;0,-1,1"]
GOOD_CONGRUENCE = "[[[2,0,0],[0,2,0],[0,0,2]], [[1,0,0]]]"

# "_", "+", U+FF15 and U+0663 spell integers to int() but not to the CLI
junk = st.text(alphabet="0123456789,;-/ x[]_+\uff15\u0663", max_size=8)


def joined(values, sep=","):
    return sep.join(map(str, values))


@st.composite
def vector(draw, rank):
    """Mostly a vector of the lattice rank, sometimes another length or junk."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return draw(junk)
    size = rank if roll > 2 else draw(st.integers(1, 5))
    return joined(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))


@st.composite
def vectors(draw, rank):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(GOOD_ROOTS))
    return joined(draw(st.lists(vector(rank), min_size=1, max_size=4)), ";")


def count(hi):
    return st.integers(-2, hi).map(str)


# option -> (required, strategy of its value given the lattice rank)
OPTIONS = {
    "info": {},
    "vinberg": {
        "--controller": (True, vector),
        "--norms": (True, lambda r: st.one_of(
            st.lists(st.integers(-1, 8), min_size=1, max_size=3).map(joined), junk)),
        "--max-height-sq": (False, lambda r: st.one_of(
            st.builds("{}/{}".format, st.integers(-1, 30), st.integers(-1, 4)),
            st.integers(0, 30).map(str), junk)),
        "--max-roots": (False, lambda r: count(4)),
        "--congruence": (False, lambda r: st.one_of(st.just(GOOD_CONGRUENCE), junk)),
    },
    "weyl": {
        "--roots": (True, vectors),
        "--norm-bound": (False, lambda r: count(8)),
        "--max-pairing": (False, lambda r: count(10)),
    },
    "classify": {"--roots": (True, vectors)},
    "cartan": {"--roots": (True, vectors)},
    "denominator": {"--roots": (True, vectors), "--height": (False, lambda r: count(6))},
    "family": {
        "--mirror-a": (False, vector),
        "--mirror-b": (False, vector),
        "--e0": (False, vector),
        "--f01": (False, vector),
        "--f02": (False, vector),
        "--k": (True, lambda r: st.integers(-1, 5).map(str)),
        "--window": (True, lambda r: count(20)),
    },
    "qseries": {
        "--eta-power": (False, lambda r: st.one_of(st.integers(-30, 30).map(str), junk)),
        "--cusp-identity": (False, lambda r: st.sampled_from(["tau2m", "m2tau", "x"])),
        "--coeffs": (False, vector),
        "--n": (True, lambda r: count(20)),
    },
}


@st.composite
def argv(draw, command):
    """The command and a random subset of its options, in --opt=value form
    so that values starting with '-' stay values.  A required option is
    left out one time in ten, an optional one half of the time."""
    out, rank = [command], 3
    if command != "qseries":
        lattice = draw(st.sampled_from(sorted(RANKS)))
        rank = RANKS[lattice]
        if draw(st.integers(0, 9)) < 9:
            out.append(f"--lattice={lattice}")
    for option, (required, values) in OPTIONS[command].items():
        if draw(st.integers(0, 9)) < (9 if required else 5):
            out.append(f"{option}={draw(values(rank))}")
    return out


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_over_generated_arguments(command, data):
    args = data.draw(argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", args


entry = st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.text(max_size=2), st.booleans())


@st.composite
def gram(draw):
    """Mostly a symmetric integer matrix of rank <= 4, else empty, ragged or
    non-integer rows, or a bare entry."""
    roll = draw(st.integers(0, 9))
    n = draw(st.integers(0, 4))
    if roll == 0:
        return draw(entry)
    if roll < 4:
        return draw(st.lists(st.one_of(st.lists(entry, max_size=4), entry), max_size=4))
    upper = {(i, j): draw(st.integers(-5, 5)) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_over_generated_lattice_files(tmp_path_factory, data):
    g = data.draw(gram())
    path = tmp_path_factory.getbasetemp() / "lattice.json"
    path.write_text(json.dumps({"gram": g}))
    rank = len(g) if isinstance(g, list) and g else 1
    units = ";".join(",".join(str(int(i == j)) for j in range(rank)) for i in range(rank))
    for args in (["info"], ["cartan", f"--roots={units}"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args + [f"--lattice={path}"])
        assert code in (0, 1, 2), (g, args, err.getvalue())
        if code != 0:
            assert out.getvalue() == "", (g, args)
