"""Command-line surface: batch computations with deterministic JSON reports.

`main` is the only input boundary and the only report path: it loads
`--lattice` and parses `--roots` once, calls the subcommand's handler as
`handler(args, lat, roots)`, which returns its payload and does no I/O,
adds the `command`, `lattice` and `roots` header and writes the report.

Exit codes: 0 success, 1 mathematical domain error, 2 usage or input
parsing error.  Rational numbers are serialized as "p/q" strings,
vectors as integer arrays in basis coordinates.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import kacmoody, qseries, vinberg, weylstruct
from .errors import DomainError
from .lattice import Lattice, check_dim, invariants, load_lattice, pair


def _rat(x):
    return str(Fraction(x))


def _load_lattice_arg(path) -> Lattice:
    try:
        return load_lattice(path)
    except FileNotFoundError:
        from importlib import resources    # here, not at the top: it loads pathlib and zipfile
        fixture = resources.files("lorentzroots").joinpath("fixtures", path)
        if fixture.is_file():
            return load_lattice(fixture)
        raise
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"cannot parse lattice file {path}: {exc}")


class UsageError(Exception):
    pass


_DIGITS = "[0-9]+"        # ASCII only: no '_', '+', blanks or digits of other scripts
_INT = "-?" + _DIGITS     # every integer in argv


def _integer(text, pattern=_INT, what="an integer"):
    """argv text that matches pattern, as an int: the argparse type of --k and
    --eta-power, and the reader behind _count and _vector."""
    if re.fullmatch(pattern, text) is None:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return int(text)


def _count(text):
    """argparse type of sizes and budgets: a nonnegative integer."""
    return _integer(text, _DIGITS, "a nonnegative integer")


def _vector(text, option, rank=None):
    """Comma-separated integers; with a rank, exactly that many."""
    try:
        v = tuple(map(_integer, text.split(",")))
    except argparse.ArgumentTypeError:
        raise UsageError(f"cannot parse {option} {text!r}")
    if rank is not None and len(v) != rank:
        raise UsageError(f"{option} {text!r} has {len(v)} entries, the lattice rank is {rank}")
    return v


def _vectors(text, option, rank):
    return tuple(_vector(part, option, rank) for part in text.split(";") if part)


def _emit(report, args):
    data = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(data + "\n")
    else:
        print(data, flush=True)    # a closed pipe raises here, not at exit


def _cmd_info(args, lat, roots):
    inv = invariants(lat)
    return {
        "rank": lat.rank,
        "signature": inv.signature,
        "even": inv.even,
        "determinant": inv.determinant,
        "smith_divisors": inv.smith_divisors,
        "exponent": inv.exponent_aS,
    }


def _cmd_vinberg(args, lat, roots):
    controller = _vector(args.controller, "--controller", lat.rank)
    norms = frozenset(_vector(args.norms, "--norms"))
    try:
        congruence = json.loads(args.congruence) if args.congruence else None
        if args.congruence and congruence is None:      # RootFilter reads None as no congruence
            raise DomainError(vinberg.CONGRUENCE_SHAPE)
        filt = vinberg.RootFilter(norms, congruence)
        if congruence is not None:    # the basis is square, and each residue has its length
            check_dim(lat, filt.congruence[0])
    except (ValueError, RecursionError) as exc:
        given = f" --congruence {args.congruence!r}" if args.congruence else ""
        raise UsageError(f"--norms {args.norms!r}{given}: {exc}")
    match = re.fullmatch(f"({_INT})(?:/({_DIGITS}))?", args.max_height_sq)
    try:
        max_key = vinberg.HeightKey(int(match[1]), int(match[2] or 1))
    except (TypeError, ValueError):      # no match, or a key that HeightKey rejects
        raise UsageError(f"cannot parse --max-height-sq {args.max_height_sq!r}")
    report = vinberg.run(lat, controller, filt, max_key=max_key,
                         max_roots=args.max_roots)
    bound = vinberg.gram_bound_check(lat, report.accepted) if report.accepted else None
    return {
        "controller": controller,
        "norms": sorted(norms),
        "max_height_sq": str(Fraction(max_key.numerator, max_key.denominator)),
        "max_roots": args.max_roots,
        "accepted": report.accepted,
        "gram": report.gram,
        "terminated": report.terminated,
        "exhausted": report.exhausted,
        "bound_check": None if bound is None else {
            "violations": bound.violations,
            "spanning_subset": bound.spanning_subset,
        },
    }


def _cmd_weyl(args, lat, roots):
    data = weylstruct.lattice_weyl_vector(lat, roots)
    candidates = None      # isotropic rho: searched only with a --max-pairing budget
    if args.norm_bound and (data.kind == "elliptic-type"
                            or data.kind == "parabolic-type" and args.max_pairing):
        candidates = weylstruct.candidate_roots_for_weyl_vector(
            lat, data.rho, args.norm_bound, max_pairing=args.max_pairing)
    return {
        "norm_bound": args.norm_bound,
        "rho": [_rat(x) for x in data.rho] if data.rho is not None else None,
        "rho_norm": _rat(data.rho_norm) if data.rho_norm is not None else None,
        "kind": data.kind,
        "candidates": candidates,
    }


def _cmd_classify(args, lat, roots):
    sym = weylstruct.symmetry_group(lat, roots)
    return {
        "symmetry_order": len(sym),
        "classification": weylstruct.classify_chamber(lat, roots, sym),
    }


def _cmd_cartan(args, lat, roots):
    gcm = kacmoody.cartan(lat, roots)
    return {
        "cartan_matrix": gcm.a,
        "symmetrizer_diagonal": [_rat(x) for x in gcm.d],
        "gram": gcm.b,
        "lorentzian": True,     # cartan raises unless there is exactly one negative square
    }


def _cmd_denominator(args, lat, roots):
    datum = kacmoody.root_datum(lat, roots)
    result = kacmoody.solve_multiplicities(datum, args.height)
    table = [{"root": t,
              "vector": kacmoody.tuple_to_vector(datum, t),
              "norm": kacmoody.tuple_norm(datum.cartan, t),
              "mult": m}
             for t, m in sorted(result.mults.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
    anti = (kacmoody.weyl_sum_anti_invariant(datum.cartan, result.sum_side)
            if datum.weyl_data.rho is not None else None)
    return {
        "height": args.height,
        "sum_side": [{"exponent": k, "coefficient": c}
                     for k, c in result.sum_side.items_by_height()],
        "residual_zero": result.residual_zero,
        "multiplicities": table,
        "anti_invariant": anti,
    }


def _cmd_qseries(args, lat, roots):
    if args.eta_power is not None:
        return qseries.eta_power(args.eta_power, args.n).coeffs
    coeffs = _vector(args.coeffs, "--coeffs") if args.coeffs else []
    direction = {"tau2m": "tau_to_m", "m2tau": "m_to_tau"}[args.cusp_identity]
    return qseries.cusp_identity(direction, coeffs, args.n)


def _cmd_family(args, lat, roots):
    a, b, e0, f01, f02 = (_vector(getattr(args, opt), "--" + opt.replace("_", "-"), lat.rank)
                          for opt in ("mirror_a", "mirror_b", "e0", "f01", "f02"))
    phi = weylstruct.parabolic_translation(lat, a, b)
    c, sample = weylstruct.build_Pk_sample(lat, phi, e0, f01, f02, args.k, args.window)
    return {
        "k": args.k,
        "window": args.window,
        "cusp": c,
        "translation": phi,
        "walls": sample,
        "wall_norms": [pair(lat, r, r) for r in sample],
    }


@functools.cache     # built once: parse_args keeps no state in the parser
def build_parser():
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--lattice", required=True)
    roots = argparse.ArgumentParser(add_help=False)
    roots.add_argument("--roots", required=True, help="e.g. 1,0,0;0,1,0;0,0,1")

    parser = argparse.ArgumentParser(
        prog="lorentz-roots",
        description="Exact chambers, Weyl vectors and denominator identities "
                    "of hyperbolic integral lattices")
    parser.add_argument("--output", help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[lattice], help="lattice invariants")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("vinberg", parents=[lattice], help="chamber accretion in height order")
    p.add_argument("--controller", required=True, help="e.g. 1,1,1")
    p.add_argument("--norms", required=True, help="e.g. 2 or 2,8")
    p.add_argument("--max-height-sq", default="1000",
                   help="largest allowed squared-height key, as p or p/q")
    p.add_argument("--max-roots", type=_count, default=None)
    p.add_argument("--congruence", default=None,
                   help="JSON [[basis rows], [residues]] of a finite-index filter")
    p.set_defaults(func=_cmd_vinberg)

    p = sub.add_parser("weyl", parents=[lattice, roots],
                       help="lattice Weyl vector of a wall system")
    p.add_argument("--norm-bound", type=_count, default=0)
    p.add_argument("--max-pairing", type=_count, default=0,
                   help="height cutoff for the isotropic-Weyl-vector search")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("classify", parents=[lattice, roots],
                       help="elliptic / parabolic-candidate / indefinite")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cartan", parents=[lattice, roots],
                       help="generalized Cartan matrix of a wall system")
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("denominator", parents=[lattice, roots],
                       help="graded denominator identity")
    p.add_argument("--height", type=_count, default=6)
    p.set_defaults(func=_cmd_denominator)

    p = sub.add_parser("qseries", help="one-variable integer power series")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eta-power", type=_integer)
    mode.add_argument("--cusp-identity", choices=["tau2m", "m2tau"])
    p.add_argument("--coeffs", default="")
    p.add_argument("--n", type=_count, required=True)
    p.set_defaults(func=_cmd_qseries)

    p = sub.add_parser("family", parents=[lattice], help="translation-orbit wall family sample")
    p.add_argument("--mirror-a", default="0,1,0")
    p.add_argument("--mirror-b", default="0,0,1")
    p.add_argument("--e0", default="1,0,0")
    p.add_argument("--f01", default="4,2,0")
    p.add_argument("--f02", default="4,0,2")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--window", type=_count, required=True)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv=None) -> int:
    # argparse reads a separate value that starts with '-' as an option: "--controller
    # -4,-3,-1" is passed on as "--controller=-4,-3,-1" (--help takes no value)
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        opt = argv[i - 1]
        if opt[:2] == "--" and "=" not in opt and opt != "--help" and argv[i][:1] == "-" \
                and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{opt}={argv[i]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse drops a "--" value: "--roots=--" leaves roots == []
    dropped = next((k for k, v in vars(args).items() if v == []), None)
    if dropped is not None:
        print(f"error: --{dropped.replace('_', '-')} needs a value", file=sys.stderr)
        return 2
    try:
        lat = _load_lattice_arg(args.lattice) if "lattice" in args else None
        roots = _vectors(args.roots, "--roots", lat.rank) if "roots" in args else None
        report = args.func(args, lat, roots)
        if lat is not None:      # the qseries series stays a headerless list
            report.update(command=args.command, lattice=lat.name)
        if roots is not None:
            report["roots"] = roots
        _emit(report, args)
    except BrokenPipeError:
        # the reader closed stdout: quiet the flush at exit (signal docs), exit as on SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
