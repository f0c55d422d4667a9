"""Workload definitions for the benchmark: fixed job lists and exact oracles.

A job is one batch computation a user waits for.  `run` calls into the
library and returns its raw output; `check` compares that output with an
exact oracle and returns a list of failure messages (empty when correct).
Checks run outside the timed region.

Every lattice, controller and wall list passes through a `Basis`: a
unimodular change of coordinates chosen by a basis seed (0 is the
identity).  Oracles are stated in basis-invariant terms where the seed
can move them: wall counts, wall sets mapped back to the pinned basis,
sorted height keys, Gram row multisets and simple-root-keyed
multiplicities.  The `cli` workload reads lattices from the package
fixtures and always uses the pinned basis.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

WORKLOADS = ("chamber", "deep", "identity", "cli")

# published values: tau(1..10), Ramanujan's table
TAU_1_10 = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

FIXTURE_GRAMS = {
    "ex134": ((2, -2, -2), (-2, 2, -2), (-2, -2, 2)),
    "u_plus_2": ((0, -1, 0), (-1, 0, 0), (0, 0, 2)),
    "u_plus_a2": ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)),
    "diag_2_2_m2": ((2, 0, 0), (0, 2, 0), (0, 0, -2)),
}

TRIANGLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
I41_WALLS = ((0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 0, 0, -1),
             (1, 1, 1, 1, 0))


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    record: Callable[[object], dict]    # the pinned form of a correct output


# ---------------------------------------------------------------------------
# integer helpers kept independent of the library

def _pair(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _gram_rows(gram, walls):
    """Gram matrix of a wall list as a sorted multiset of (norm, sorted row)."""
    return sorted((_pair(gram, a, a), sorted(_pair(gram, a, b) for b in walls))
                  for a in walls)


def _height_keys(gram, h, walls):
    return sorted(Fraction(_pair(gram, h, x) ** 2, _pair(gram, x, x)) for x in walls)


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def u_plus(k2):
    """U + <k2> with U = [[0, -1], [-1, 0]]."""
    return ((0, -1, 0), (-1, 0, 0), (0, 0, k2))


class Basis:
    """Unimodular change of coordinates made of a few +-1 transvections.

    A vector x in pinned coordinates becomes U^-1 x, and a Gram matrix G
    becomes U^T G U, so every pairing is preserved.  Seed 0 is the identity.
    """

    def __init__(self, seed: int, steps: int = 3):
        self.seed = seed
        self.steps = steps
        self._cache = {}

    def _mats(self, n):
        if n not in self._cache:
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            u_inv = [row[:] for row in u]
            if self.seed:
                rng = random.Random(f"basis:{self.seed}:{n}")
                for _ in range(self.steps):
                    i, j = rng.sample(range(n), 2)
                    s = rng.choice((1, -1))
                    for r in range(n):          # U <- U (I + s e_i e_j^T)
                        u[r][j] += s * u[r][i]
                    u_inv[i] = [a - s * b for a, b in zip(u_inv[i], u_inv[j])]
            self._cache[n] = (u, u_inv)
        return self._cache[n]

    def gram(self, g):
        n = len(g)
        u, _ = self._mats(n)
        return tuple(tuple(sum(u[a][i] * g[a][b] * u[b][j] for a in range(n) for b in range(n))
                           for j in range(n)) for i in range(n))

    def vec(self, x):
        _, u_inv = self._mats(len(x))
        return tuple(sum(a * b for a, b in zip(row, x)) for row in u_inv)

    def back(self, x):
        u, _ = self._mats(len(x))
        return tuple(sum(a * b for a, b in zip(row, x)) for row in u)


# ---------------------------------------------------------------------------
# chamber and deep: vinberg.run to the certificate or the budget

def _chamber_specs(toy):
    """The I_{n,1} series and the certified fixture chambers."""
    series = [dict(name=f"I{n}1", gram=diag(-1, *([1] * n)),
                   h=(400,) + tuple(range(n, 0, -1)), norms=(1, 2),
                   max_key=10 ** 7, max_roots=None, walls=n + 1)
              for n in ((4,) if toy else (4, 5, 6))]
    fixtures = [("ex134", (1, 1, 1), (2,)), ("ex134", (4, 3, 2), (2, 8)),
                ("u_plus_2", (-4, -3, -1), (2,)), ("u_plus_2", (-4, -3, -1), (2, 4)),
                ("diag_2_2_m2", (1, 2, 4), (2, 4)), ("u_plus_a2", (-4, -3, -1, -1), (2,))]
    fixtures = [dict(name=f"{lat}_n{'_'.join(map(str, norms))}", gram=FIXTURE_GRAMS[lat],
                     h=h, norms=norms, max_key=2000, max_roots=16, walls=None)
                for lat, h, norms in (fixtures[:1] + fixtures[2:3] if toy else fixtures)]
    return series, fixtures


def _deep_specs(toy):
    """Rank-3 runs on U+<2k>; the height-key budget, not max_roots, ends the
    two k11/k13 runs on norm 2 after about 1400 shells."""
    jobs = [dict(name="k11_n2", gram=u_plus(22), h=(22, 30, -1), norms=(2,), max_roots=24),
            dict(name="k11_n2_22", gram=u_plus(22), h=(22, 30, -1), norms=(2, 22),
                 max_roots=None),
            dict(name="k13_n2", gram=u_plus(26), h=(-12, -28, -3), norms=(2,), max_roots=40)]
    jobs = [dict(j, max_key=4 * 10 ** 6) for j in jobs]
    return [dict(jobs[0], name="k11_n2_r5", max_roots=5)] if toy else jobs


def _vinberg_job(mods, basis, spec, pin, name):
    lat = mods.lattice.Lattice(gram=basis.gram(spec["gram"]), name=spec["name"])
    h = basis.vec(spec["h"])
    filt = mods.vinberg.RootFilter(norms=frozenset(spec["norms"]))
    key = mods.vinberg.HeightKey(spec["max_key"], 1)
    max_roots = spec["max_roots"]
    g0, h0 = spec["gram"], spec["h"]
    pinned = [tuple(x) for x in pin["accepted"]]

    def run():
        return mods.vinberg.run(lat, h, filt, max_key=key, max_roots=max_roots)

    def check(rep):
        errs = []
        walls = [basis.back(x) for x in rep.accepted]
        if spec.get("walls") is not None and len(walls) != spec["walls"]:
            errs.append(f"{len(walls)} walls, published count {spec['walls']}")
        if len(walls) != len(pinned):
            errs.append(f"{len(walls)} walls, pinned {len(pinned)}")
        if rep.terminated != pin["terminated"] or rep.exhausted == rep.terminated:
            errs.append(f"terminated={rep.terminated} exhausted={rep.exhausted}")
        if _height_keys(g0, h0, walls) != _height_keys(g0, h0, pinned):
            errs.append("sorted height keys differ from the pinned run")
        if basis.seed == 0 or rep.terminated:
            # a certified chamber is basis independent; a budget cut is
            # compared by keys and Gram multiset only when ties can reorder
            ok = walls == pinned if basis.seed == 0 else sorted(walls) == sorted(pinned)
            if not ok:
                errs.append("accepted walls differ from the pinned run")
        if _gram_rows(g0, walls) != _gram_rows(g0, pinned):
            errs.append("Gram multiset of accepted walls differs")
        if [list(r) for r in rep.gram] != [[_pair(lat.gram, a, b) for b in rep.accepted]
                                          for a in rep.accepted]:
            errs.append("report Gram does not match the accepted walls")
        if spec["name"] == "ex134_n2" and _gram_rows(g0, walls) != _gram_rows(g0, TRIANGLE):
            errs.append("ex134 chamber is not the zero-angle triangle")
        return errs

    def record(rep):
        return {"accepted": [list(x) for x in rep.accepted], "terminated": rep.terminated}

    return Job(name, run, check, record)


def _bundle(name, parts):
    """Several millisecond jobs timed as one, each checked by its own oracle."""
    def check(outs):
        return [f"{p.name}: {e}" for p, out in zip(parts, outs) for e in p.check(out)]

    return Job(name, lambda: [p.run() for p in parts], check,
               lambda outs: {p.name: p.record(out) for p, out in zip(parts, outs)})


def _chamber_jobs(mods, basis, toy, pins):
    series, fixtures = _chamber_specs(toy)
    jobs = [_vinberg_job(mods, basis, s, pins[f"chamber.{s['name']}"], f"chamber.{s['name']}")
            for s in series]
    parts = [_vinberg_job(mods, basis, s, pins["chamber.fixtures"][s["name"]], s["name"])
             for s in fixtures]
    return jobs + [_bundle("chamber.fixtures", parts)]


# ---------------------------------------------------------------------------
# identity: denominator identities and q-series

def _km_job(mods, basis, name, gram, walls, height, pins):
    lat = mods.lattice.Lattice(gram=basis.gram(gram), name=name)
    moved = [basis.vec(w) for w in walls]
    pin = pins[name]

    def run():
        datum = mods.kacmoody.root_datum(lat, moved)
        res = mods.kacmoody.solve_multiplicities(datum, height)
        return res, mods.kacmoody.anti_invariance_check(datum, height)

    def check(out):
        res, anti = out
        errs = []
        if not res.residual_zero:
            errs.append("denominator residual is not zero")
        if anti is not True:
            errs.append("Weyl sum is not anti-invariant")
        if len(res.mults) != pin["mults"]:
            errs.append(f"{len(res.mults)} multiplicities, pinned {pin['mults']}")
        if record((res, anti))["digest"] != pin["digest"]:
            errs.append("multiplicity table digest differs")
        return errs

    def record(out):
        mults = out[0].mults
        return {"mults": len(mults),
                "digest": digest(sorted((list(k), v) for k, v in mults.items()))}

    return Job(name, run, check, record)


def _tau_checks(tau):
    """Published values and Hecke relations of Ramanujan's tau."""
    errs = []
    if tuple(tau[:10]) != TAU_1_10:
        errs.append("tau(1..10) differ from the published values")
    n = len(tau)
    for a in range(2, n + 1):
        for b in range(a + 1, n // a + 1):
            if gcd(a, b) == 1 and tau[a * b - 1] != tau[a - 1] * tau[b - 1]:
                errs.append(f"tau({a * b}) != tau({a}) tau({b})")
    for p in range(2, n + 1):
        if p * p <= n and all(p % q for q in range(2, p)):
            if tau[p * p - 1] != tau[p - 1] ** 2 - p ** 11:
                errs.append(f"tau({p}^2) != tau({p})^2 - {p}^11")
    return errs


def _identity_jobs(mods, basis, toy, pins):
    q = mods.qseries
    if toy:
        h_ex, h_i41, n_eta, n_tau = 6, 4, 30, 30
    else:
        h_ex, h_i41, n_eta, n_tau = 12, 11, 250, 200
    pins_tau = pins[f"identity.tau_n{n_tau}"]["tau"]
    jobs = [
        _km_job(mods, basis, f"identity.ex134_h{h_ex}", FIXTURE_GRAMS["ex134"], TRIANGLE,
                h_ex, pins),
        _km_job(mods, basis, f"identity.I41_h{h_i41}", diag(-1, 1, 1, 1, 1), I41_WALLS,
                h_i41, pins),
    ]

    name = f"identity.eta_pm24_n{n_eta}"
    pin_eta = pins[name]

    def eta_check(out):
        up, down = (list(s.coeffs) for s in out)
        errs = []
        if tuple(up[:10]) != TAU_1_10:
            errs.append("eta^24 does not start with tau(1..10)")
        prod = [sum(up[i] * down[k - i] for i in range(k + 1)) for k in range(len(up))]
        if prod != [1] + [0] * (len(up) - 1):
            errs.append("eta^24 * eta^-24 != 1")
        if digest([up, down]) != pin_eta["digest"]:
            errs.append("eta power digest differs")
        return errs

    jobs.append(Job(name, lambda: (q.eta_power(24, n_eta), q.eta_power(-24, n_eta)),
                    eta_check, lambda out: {"digest": digest([list(s.coeffs) for s in out])}))

    name = f"identity.tau_n{n_tau}"

    def tau_check(tau):
        errs = _tau_checks(tau)
        if list(tau) != pins_tau:
            errs.append("tau differs from the pinned list")
        return errs

    jobs.append(Job(name, lambda: q.ramanujan_tau(n_tau), tau_check,
                    lambda tau: {"tau": list(tau)}))

    name = f"identity.cusp_roundtrip_n{n_tau}"
    pin_cusp = pins[name]

    def cusp_run():
        m = q.cusp_identity("tau_to_m", pins_tau, n_tau)
        return m, q.cusp_identity("m_to_tau", m, n_tau)

    def cusp_check(out):
        m, back = out
        errs = []
        if list(back) != pins_tau:
            errs.append("m -> tau does not invert tau -> m")
        if digest(list(m)) != pin_cusp["digest"]:
            errs.append("cusp multiplicity digest differs")
        return errs

    jobs.append(Job(name, cusp_run, cusp_check, lambda out: {"digest": digest(list(out[0]))}))
    return jobs


# ---------------------------------------------------------------------------
# cli: in-process main(argv) over the README example commands

_R = "1,0,0;0,1,0;0,0,1"
CLI_COMMANDS = {
    "info": ["info", "--lattice", "ex134.json"],
    "vinberg_ex134": ["vinberg", "--lattice", "ex134.json", "--controller", "1,1,1",
                      "--norms", "2", "--max-roots", "16"],
    # negative vectors need the --opt=value form: argparse reads a leading
    # '-' as an option and rejects "--controller -4,-3,-1" with exit 2
    "vinberg_u_plus_2": ["vinberg", "--lattice", "u_plus_2.json", "--controller=-4,-3,-1",
                         "--norms", "2", "--max-roots", "16"],
    "vinberg_u_plus_a2": ["vinberg", "--lattice", "u_plus_a2.json",
                          "--controller=-4,-3,-1,-1", "--norms", "2", "--max-roots", "16"],
    "weyl": ["weyl", "--lattice", "ex134.json", "--roots", _R, "--norm-bound", "64"],
    "classify": ["classify", "--lattice", "ex134.json", "--roots", _R],
    "cartan": ["cartan", "--lattice", "ex134.json", "--roots", _R],
    "denominator": ["denominator", "--lattice", "ex134.json", "--roots", _R, "--height", "8"],
    "qseries_eta": ["qseries", "--eta-power", "-24", "--n", "20"],
    "qseries_cusp": ["qseries", "--cusp-identity", "tau2m", "--coeffs", "24,24,24", "--n", "3"],
    "family": ["family", "--lattice", "ex134.json", "--k", "2", "--window", "6"],
}
CLI_REPEATS = 10    # 11 commands x 10 = 110 invocations per pass


def run_cli(mods, argv):
    """main(argv) with stdout captured; returns (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(list(argv))
    return code, buf.getvalue()


def _report_digest(out):
    return {"digest": hashlib.sha256(out[1].encode()).hexdigest()}


def _cli_jobs(mods, toy, pins):
    jobs = []
    for key, argv in CLI_COMMANDS.items():
        name = f"cli.{key}"
        pin = pins[name]

        def check(out, pin=pin):
            code, text = out
            errs = []
            if code != 0:
                errs.append(f"exit code {code}")
            if _report_digest(out)["digest"] != pin["digest"]:
                errs.append("report digest differs")
            return errs

        jobs.append(Job(name, lambda argv=argv: run_cli(mods, argv), check, _report_digest))
    return jobs * (1 if toy else CLI_REPEATS)


# ---------------------------------------------------------------------------

def build(workload, mods, *, basis_seed=0, toy=False, pins):
    """The workload's job list for one pass, in pinned order."""
    basis = Basis(basis_seed)
    if workload == "chamber":
        return _chamber_jobs(mods, basis, toy, pins)
    if workload == "deep":
        return [_vinberg_job(mods, basis, s, pins[f"deep.{s['name']}"], f"deep.{s['name']}")
                for s in _deep_specs(toy)]
    if workload == "identity":
        return _identity_jobs(mods, basis, toy, pins)
    if workload == "cli":
        return _cli_jobs(mods, toy, pins)
    raise ValueError(f"unknown workload {workload!r}")
