"""Command-line surface: batch computations with deterministic JSON reports.

Exit codes: 0 success, 1 mathematical domain error, 2 usage or input
parsing error.  Rational numbers are serialized as "p/q" strings,
vectors as integer arrays in basis coordinates.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from fractions import Fraction
from importlib import resources

from . import kacmoody, qseries, vinberg, weylstruct
from .errors import DomainError
from .lattice import Lattice, invariants, lattice_from_dict, pair


def _rat(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _rat_vec(v):
    return [_rat(x) for x in v]


def _load_lattice_arg(path) -> Lattice:
    try:
        with open(path) as fh:
            return lattice_from_dict(json.load(fh))
    except FileNotFoundError:
        fixture = resources.files("lorentzroots").joinpath("fixtures", path)
        if fixture.is_file():
            return lattice_from_dict(json.loads(fixture.read_text()))
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse lattice file {path}: {exc}")


class UsageError(Exception):
    pass


def _vector(text, option, rank=None):
    """Comma-separated integers; with a rank, exactly that many."""
    try:
        v = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {option} {text!r}")
    if rank is not None and len(v) != rank:
        raise UsageError(f"{option} {text!r} has {len(v)} entries, the lattice rank is {rank}")
    return v


def _count(text):
    """argparse type of sizes and budgets: a nonnegative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _congruence(text, rank):
    """--congruence as (basis rows, residues), each a vector of the lattice rank."""
    try:
        basis, residues = json.loads(text)
        spec = tuple(tuple(tuple(operator.index(x) for x in row) for row in part)
                     for part in (basis, residues))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse --congruence {text!r}: {exc}")
    if len(spec[0]) != rank or any(len(row) != rank for row in spec[0] + spec[1]):
        raise UsageError(f"--congruence {text!r} needs {rank} basis rows and "
                         f"residues of length {rank}")
    return spec


def _vectors(text, option, rank):
    return tuple(_vector(part, option, rank) for part in text.split(";") if part)


def _emit(report, args):
    data = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(data + "\n")
    else:
        print(data)


def _cmd_info(args):
    lat = _load_lattice_arg(args.lattice)
    inv = invariants(lat)
    _emit({
        "command": "info",
        "lattice": lat.name,
        "rank": lat.rank,
        "signature": list(inv.signature),
        "even": inv.even,
        "determinant": inv.determinant,
        "smith_divisors": list(inv.smith_divisors),
        "exponent": inv.exponent_aS,
    }, args)


def _cmd_vinberg(args):
    lat = _load_lattice_arg(args.lattice)
    controller = _vector(args.controller, "--controller", lat.rank)
    try:
        norms = frozenset(int(x) for x in args.norms.split(","))
    except ValueError:
        raise UsageError(f"cannot parse norm set {args.norms!r}")
    congruence = _congruence(args.congruence, lat.rank) if args.congruence else None
    filt = vinberg.RootFilter(norms=norms, congruence=congruence)
    try:
        num, _, den = args.max_height_sq.partition("/")
        max_key = vinberg.HeightKey(int(num), int(den) if den else 1)
    except ValueError:
        raise UsageError(f"cannot parse height bound {args.max_height_sq!r}")
    report = vinberg.run(lat, controller, filt, max_key=max_key,
                         max_roots=args.max_roots)
    bound = vinberg.gram_bound_check(lat, report.accepted) if report.accepted else None
    _emit({
        "command": "vinberg",
        "lattice": lat.name,
        "controller": list(controller),
        "norms": sorted(norms),
        "max_height_sq": args.max_height_sq,
        "max_roots": args.max_roots,
        "accepted": [list(r) for r in report.accepted],
        "gram": [list(row) for row in report.gram],
        "terminated": report.terminated,
        "exhausted": report.exhausted,
        "bound_check": None if bound is None else {
            "violations": [list(v) for v in bound.violations],
            "spanning_subset": list(bound.spanning_subset)
            if bound.spanning_subset is not None else None,
        },
    }, args)


def _cmd_weyl(args):
    lat = _load_lattice_arg(args.lattice)
    roots = _vectors(args.roots, "--roots", lat.rank)
    data = weylstruct.lattice_weyl_vector(lat, roots)
    candidates = None
    if data.rho is not None and args.norm_bound:
        if data.rho_norm < 0:
            found = weylstruct.candidate_roots_for_weyl_vector(
                lat, data.rho, args.norm_bound)
        elif args.max_pairing:
            found = weylstruct.candidate_roots_for_weyl_vector(
                lat, data.rho, args.norm_bound, max_pairing=args.max_pairing)
        else:
            found = None
        candidates = [list(r) for r in found] if found is not None else None
    _emit({
        "command": "weyl",
        "lattice": lat.name,
        "roots": [list(r) for r in roots],
        "norm_bound": args.norm_bound,
        "rho": _rat_vec(data.rho) if data.rho is not None else None,
        "rho_norm": _rat(data.rho_norm) if data.rho_norm is not None else None,
        "kind": data.kind,
        "candidates": candidates,
    }, args)


def _cmd_classify(args):
    lat = _load_lattice_arg(args.lattice)
    roots = _vectors(args.roots, "--roots", lat.rank)
    sym = weylstruct.symmetry_group(lat, roots)
    kind = weylstruct.classify_chamber(lat, roots, sym)
    _emit({
        "command": "classify",
        "lattice": lat.name,
        "roots": [list(r) for r in roots],
        "symmetry_order": sym.order,
        "classification": kind,
    }, args)


def _cmd_cartan(args):
    lat = _load_lattice_arg(args.lattice)
    roots = _vectors(args.roots, "--roots", lat.rank)
    gcm = kacmoody.cartan(lat, roots)
    _emit({
        "command": "cartan",
        "lattice": lat.name,
        "roots": [list(r) for r in roots],
        "cartan_matrix": [list(row) for row in gcm.a],
        "symmetrizer_diagonal": [_rat(x) for x in gcm.d],
        "gram": [list(row) for row in gcm.b],
        "lorentzian": gcm.lorentzian,
    }, args)


def _cmd_denominator(args):
    lat = _load_lattice_arg(args.lattice)
    roots = _vectors(args.roots, "--roots", lat.rank)
    datum = kacmoody.root_datum(lat, roots)
    series = kacmoody.sum_side(datum, args.height)
    result = kacmoody.solve_multiplicities(datum, args.height)
    table = []
    for t, m in sorted(result.mults.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        if m == 0:
            continue
        table.append({
            "root": list(t),
            "vector": list(kacmoody.tuple_to_vector(datum, t)),
            "norm": int(kacmoody.tuple_norm(datum.cartan, t)),
            "mult": m,
        })
    anti = None
    if datum.weyl_data is not None and datum.weyl_data.rho is not None:
        anti = kacmoody.anti_invariance_check(datum, args.height)
    _emit({
        "command": "denominator",
        "lattice": lat.name,
        "roots": [list(r) for r in roots],
        "height": args.height,
        "sum_side": [{"exponent": list(k), "coefficient": c}
                     for k, c in series.items_by_height()],
        "residual_zero": result.residual_zero,
        "multiplicities": table,
        "anti_invariant": anti,
    }, args)


def _cmd_qseries(args):
    if args.eta_power is not None:
        series = qseries.eta_power(args.eta_power, args.n)
        _emit(list(series.coeffs), args)
        return
    if args.cusp_identity:
        coeffs = _vector(args.coeffs, "--coeffs") if args.coeffs else []
        direction = {"tau2m": "tau_to_m", "m2tau": "m_to_tau"}[args.cusp_identity]
        _emit(qseries.cusp_identity(direction, coeffs, args.n), args)
        return
    raise UsageError("qseries needs --eta-power or --cusp-identity")


def _cmd_family(args):
    lat = _load_lattice_arg(args.lattice)
    a, b, e0, f01, f02 = (_vector(getattr(args, opt), "--" + opt.replace("_", "-"), lat.rank)
                          for opt in ("mirror_a", "mirror_b", "e0", "f01", "f02"))
    phi = weylstruct.parabolic_translation(lat, a, b)
    sample = weylstruct.build_Pk_sample(lat, phi, e0, f01, f02, args.k, args.window)
    c = weylstruct.fixed_isotropic(lat, [phi])
    _emit({
        "command": "family",
        "lattice": lat.name,
        "k": args.k,
        "window": args.window,
        "cusp": list(c),
        "translation": [list(row) for row in phi],
        "walls": [list(r) for r in sample],
        "wall_norms": [int(pair(lat, r, r)) for r in sample],
    }, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorentz-roots",
        description="Exact chambers, Weyl vectors and denominator identities "
                    "of hyperbolic integral lattices")
    parser.add_argument("--output", help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="lattice invariants")
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("vinberg", help="chamber accretion in height order")
    p.add_argument("--lattice", required=True)
    p.add_argument("--controller", required=True, help="e.g. 1,1,1")
    p.add_argument("--norms", required=True, help="e.g. 2 or 2,8")
    p.add_argument("--max-height-sq", default="1000",
                   help="largest allowed squared-height key, as p or p/q")
    p.add_argument("--max-roots", type=_count, default=None)
    p.add_argument("--congruence", default=None,
                   help="JSON [[basis rows], [residues]] of a finite-index filter")
    p.set_defaults(func=_cmd_vinberg)

    p = sub.add_parser("weyl", help="lattice Weyl vector of a wall system")
    p.add_argument("--lattice", required=True)
    p.add_argument("--roots", required=True, help="e.g. 1,0,0;0,1,0;0,0,1")
    p.add_argument("--norm-bound", type=_count, default=0)
    p.add_argument("--max-pairing", type=_count, default=0,
                   help="height cutoff for the isotropic-Weyl-vector search")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("classify", help="elliptic / parabolic-candidate / indefinite")
    p.add_argument("--lattice", required=True)
    p.add_argument("--roots", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cartan", help="generalized Cartan matrix of a wall system")
    p.add_argument("--lattice", required=True)
    p.add_argument("--roots", required=True)
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("denominator", help="graded denominator identity")
    p.add_argument("--lattice", required=True)
    p.add_argument("--roots", required=True)
    p.add_argument("--height", type=_count, default=6)
    p.set_defaults(func=_cmd_denominator)

    p = sub.add_parser("qseries", help="one-variable integer power series")
    p.add_argument("--eta-power", type=int, default=None)
    p.add_argument("--cusp-identity", choices=["tau2m", "m2tau"], default=None)
    p.add_argument("--coeffs", default="")
    p.add_argument("--n", type=_count, required=True)
    p.set_defaults(func=_cmd_qseries)

    p = sub.add_parser("family", help="translation-orbit wall family sample")
    p.add_argument("--lattice", required=True)
    p.add_argument("--mirror-a", default="0,1,0")
    p.add_argument("--mirror-b", default="0,0,1")
    p.add_argument("--e0", default="1,0,0")
    p.add_argument("--f01", default="4,2,0")
    p.add_argument("--f02", default="4,0,2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--window", type=_count, required=True)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse drops a "--" value: "--roots=--" leaves roots == []
    dropped = next((k for k, v in vars(args).items() if v == []), None)
    if dropped is not None:
        print(f"error: --{dropped.replace('_', '-')} needs a value", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: unparseable input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
