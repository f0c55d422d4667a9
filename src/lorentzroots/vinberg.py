"""Height-ordered root enumeration and chamber accretion.

Candidates come in shells indexed by (norm d, pairing m = -S(h, delta))
with squared height m^2/d.  Each shell is the integer point set of an
affine positive definite quadric (the restriction of the form to the
hyperplane S(h, x) = -m), enumerated exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, lcm

from . import cones, linalg
from .errors import ControllerOnMirrorError, DomainError
from .lattice import Lattice, gram_matrix, int_vectors, integer, norm
from .lattice import is_crystallographic  # noqa: F401  benchmarks/tracing.py wraps it here


@dataclass(frozen=True)
class HeightKey:
    """A budget on the squared Vinberg height S(h,d)^2 / S(d,d): the ints
    numerator >= 0 and denominator > 0.  Keys are not ordered."""
    numerator: int
    denominator: int

    def __post_init__(self):
        num = integer(self.numerator, "height key numerator")
        den = integer(self.denominator, "height key denominator")
        if num < 0 or den <= 0:
            raise DomainError("height key needs numerator >= 0, denominator > 0")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


@dataclass(frozen=True)
class RootFilter:
    norms: frozenset[int]
    congruence: tuple | None = None  # (basis rows of M1, tuple of residues)

    def __post_init__(self):
        object.__setattr__(self, "norms", frozenset(integer(d, "norm") for d in self.norms))
        if not self.norms or any(d <= 0 for d in self.norms):
            raise DomainError("norm set must be a nonempty set of positive integers")
        if self.congruence is not None:
            basis, residues = (tuple(tuple(integer(x, "congruence entry") for x in row)
                                     for row in part) for part in self.congruence)
            if not residues:
                raise DomainError("congruence condition needs at least one residue")
            if any(len(row) != len(basis) for row in basis) or linalg.det(basis) == 0:
                raise DomainError("congruence sublattice must have finite index")
            object.__setattr__(self, "congruence", (basis, residues))


def _residue_ok(filt: RootFilter, delta) -> bool:
    if filt.congruence is None:
        return True
    basis, residues = filt.congruence
    cols = linalg.transpose(basis)
    return any(all(c.denominator == 1 for c in linalg.solve(cols, linalg.vec_sub(delta, r)))
               for r in residues)


@dataclass(frozen=True)
class ChamberReport:
    accepted: tuple[tuple[int, ...], ...]
    terminated: bool
    gram: tuple[tuple[int, ...], ...]

    @property
    def exhausted(self) -> bool:
        return not self.terminated


def shells(lattice, h):
    """(roots, walk) for the shells (d, m) of the controller h.

    roots(d, m): the sorted crystallographic x with S(x,x) = d and
    S(h,x) = -m.  x is crystallographic iff d | 2 S(e_j, x) for all j:
    shells with d not dividing 2m or g = gcd(G h) not dividing m return []
    at once (walk never yields them; the skip stays for the timelike rho of
    weylstruct.candidate_roots_for_weyl_vector).  A point x = B u (B
    unimodular, u = (-m/g, y)) is kept iff d | 2 G B u, then mapped back;
    that is q = d/gcd(d, 2) | G B u, tested on the rows of G B not 0 mod q.

    walk(d, big, bound): the (m^2 (big/d), d, m) with m^2 (big/d) <= bound,
    in increasing m, of the shells of norm d that can hold a root: m steps
    by lcm(g, d/gcd(d, 2)), and m is kept only if the last slab of the
    shell's descent holds an integer, so an empty shell never reaches roots.
    The m = 0 slab holds 0.  With no kernel (a rank-1 lattice) there is no
    slab, and the positive radius leaves every shell empty.

    Shell (d, m) lies on the slice S(h,x) = -m, centred at m h / |S(h,h)|,
    where the form on h^perp is fixed and the squared radius is
    (d |S(h,h)| + m^2) / |S(h,h)|.  The kernel part of the unimodular basis
    is LLL-reduced under the form, which keeps the Fincke-Pohst descent from
    walking long thin boxes (Fincke & Pohst 1985), whatever basis the
    lattice is given in, and LLL's integral Gram-Schmidt data is the LDL of
    the form on h^perp.  The coordinates z of h in the basis are integers,
    so the only denominators are those of that LDL and |S(h,h)|: they are
    cleared once per controller, and each shell passes quadric_integer_points
    the ints m z N / |S(h,h)| and (d |S(h,h)| + m^2) K N^4 / |S(h,h)|.
    """
    g, cols = linalg.row_kernel_transform(linalg.mat_vec(lattice.gram, h))
    kern, dets, lam = linalg.lll(cols[1:], lattice.gram)
    basis = linalg.transpose([cols[0]] + kern)
    hh = -norm(lattice, h)
    z = [int(c) for c in linalg.solve(basis, h)[1:]]     # basis is unimodular
    r = len(kern)
    # D_i = dets[i+1]/dets[i] and U_ik = lam[k][i]/dets[i+1]: N clears U and
    # z/hh, K clears D, and hh | N makes the scaled radius an int
    nn = lcm(hh, *dets[1:r])
    kk = lcm(*dets[:r])
    form = (nn, [[lam[j][i] * nn // dets[i + 1] for j in range(i + 1, r)] for i in range(r)],
            [kk * dets[i + 1] // dets[i] for i in range(r)])
    centre = [x * nn // hh for x in z]
    scale = kk * nn ** 4 // hh
    gb = linalg.mat_mul(lattice.gram, basis)

    def roots(d, m):
        if m % g or 2 * m % d:
            return []
        ys = linalg.quadric_integer_points(form, [m * x for x in centre],
                                           (d * hh + m * m) * scale)
        if not ys:
            return []
        q = d // gcd(d, 2)
        rows = [row for row in gb if any(x % q for x in row)]
        return sorted(linalg.mat_vec(basis, u) for u in ((-m // g,) + y for y in ys)
                      if all(linalg.dot(row, u) % q == 0 for row in rows))

    def walk(d, big, bound):
        if not r:
            return
        # quadric_integer_points' top level: |N^2 y - m N centre| <= s with
        # s = isqrt(radius // K D), which grows with m; once 2 s >= N^2 - 1
        # every later slab holds an integer, and the walk only steps
        step, per = lcm(g, d // gcd(d, 2)), big // d
        n2, c1, kd = nn * nn, nn * centre[-1], form[2][-1]
        m = key = 0
        wide = False
        while key <= bound:
            if not wide:
                c, s = m * c1, isqrt((d * hh + m * m) * scale // kd)
                wide = 2 * s + 1 >= n2
            if wide or -((s - c) // n2) <= (c + s) // n2:
                yield key, d, m
            m += step
            key = m * m * per
    return roots, walk


def candidate_stream(lattice: Lattice, h, filt: RootFilter, max_key: HeightKey):
    """The roots x with m^2/d <= max_key in (m^2/d, d, x) order, where
    m = -S(h, x) and d = S(x, x), as a generator.

    The inputs are checked and shells() is set up at the call; the shells
    are read as the generator is consumed.  The key bound cuts the stream
    at the shell level, so the generator terminates even when some norm
    admits no roots at all.  Each norm runs one walk of shells(), which
    keeps only the pairings whose shell can hold a root, and heapq.merge
    orders the walks by the int key m^2 (L/d), L = lcm(norms), ties broken
    by d: the keys compare exactly as m^2/d.  roots(d, m) is called only on
    a merged shell, once the consumer asks for it.  Roots are the primitive,
    congruence-admissible vectors of shells(), so crystallographic, with
    S(h, root) < 0.  The m = 0 shells come first, in increasing norm, and
    an admissible root there raises ControllerOnMirrorError.
    """
    (h,) = int_vectors(lattice, [h], "controller entry")
    if norm(lattice, h) >= 0:
        raise DomainError("controller must be timelike")
    int_vectors(lattice, sum(filt.congruence or (), ()), "congruence entry")  # basis, residues
    roots, walk = shells(lattice, h)
    # m^2 (L/d) <= floor(L max_key) is exactly m^2/d <= max_key
    big = lcm(*filt.norms)
    bound = max_key.numerator * big // max_key.denominator

    def stream():
        for _, d, m in heapq.merge(*(walk(d, big, bound) for d in filt.norms)):
            for x in roots(d, m):
                if linalg.content(x) == 1 and _residue_ok(filt, x):
                    if m == 0:
                        raise ControllerOnMirrorError(x)
                    yield x
    return stream()


def run(lattice: Lattice, h, filt: RootFilter, *, max_key: HeightKey,
        max_roots: int | None = None) -> ChamberReport:
    """Accrete a fundamental chamber around the controller.

    Candidates are processed in height order and accepted when nonobtuse
    against everything accepted so far.  Each acceptance clips the kept
    dual cone once, and the run stops with terminated=True when that cone
    is pointed and inside the light cone (the finite-volume certificate).
    Hitting either budget sets exhausted=True instead.
    """
    if max_roots is not None and integer(max_roots, "max_roots") < 0:
        raise DomainError(f"max_roots must be None or an integer >= 0, got {max_roots!r}")
    stream = candidate_stream(lattice, h, filt, max_key)
    accepted, rows = [], []
    lin, rays = linalg.identity(lattice.rank), []
    terminated = False
    if max_roots != 0:
        for x in stream:
            if any(linalg.dot(row, x) > 0 for row in rows):
                continue
            row = linalg.mat_vec(lattice.gram, x)
            lin, rays = cones.clip(lin, rays, rows, row)
            accepted.append(x)
            rows.append(row)
            terminated = not lin and cones.in_light_cone(lattice, rays)
            if terminated or len(accepted) == max_roots:
                break
    return ChamberReport(accepted=tuple(accepted), terminated=terminated,
                         gram=gram_matrix(lattice, accepted))


@dataclass(frozen=True)
class GramBoundReport:
    violations: tuple[tuple[int, int], ...]
    spanning_subset: tuple[int, ...] | None


def _pair_within_bounds(s, ni, nj):
    # -2 <= -2 s / sqrt(ni nj) < 62, compared via squares
    if s > 0:
        return s * s <= ni * nj
    return 4 * s * s < 62 * 62 * ni * nj


def gram_bound_check(lattice: Lattice, roots) -> GramBoundReport:
    """Check the half-open normalized-pairing window [-2, 62) on all wall
    pairs, and look for a connected spanning subset of size rank that stays
    inside it."""
    roots = int_vectors(lattice, roots, "wall entry")
    gram = gram_matrix(lattice, roots)
    norms = [row[i] for i, row in enumerate(gram)]
    if any(n <= 0 for n in norms):
        raise DomainError("all wall vectors must be spacelike")
    violations = [
        (i, j)
        for i in range(len(roots)) for j in range(i, len(roots))
        if not _pair_within_bounds(gram[i][j], norms[i], norms[j])
    ]
    n = lattice.rank
    subset = None
    for combo in combinations(range(len(roots)), n):
        if any((i, j) in violations for i, j in combinations(combo, 2)):
            continue
        if linalg.rank([roots[i] for i in combo]) < n:
            continue
        if linalg.support_connected(gram, combo):
            subset = combo
            break
    return GramBoundReport(violations=tuple(violations), spanning_subset=subset)
