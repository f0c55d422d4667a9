"""Weyl vectors, twisting data, chamber symmetries, cusps and the
elliptic / parabolic classification of wall systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import isqrt, lcm

from . import cones, linalg, vinberg
from .errors import (DomainError, IndeterminateFixedSpaceError, NonObtusePairError,
                     UnderDeterminedError)
from .lattice import (Lattice, a_delta, apply_isometry, int_inverse, invariants,
                      is_crystallographic, is_isometry, norm, pair, reflection,
                      timelike_vector)


@dataclass(frozen=True)
class RootSet:
    """Ordered wall vectors of a chamber."""
    roots: tuple[tuple[int, ...], ...]

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]

    @classmethod
    def checked(cls, lattice: Lattice, roots) -> "RootSet":
        """Validate the chamber invariants: spacelike crystallographic walls,
        pairwise nonobtuse, no two proportional."""
        roots = tuple(tuple(int(x) for x in r) for r in roots)
        for r in roots:
            if norm(lattice, r) <= 0:
                raise DomainError(f"wall {r} is not spacelike")
            if not is_crystallographic(lattice, r):
                raise DomainError(f"wall {r} is not crystallographic")
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                s = pair(lattice, roots[i], roots[j])
                if s > 0:
                    raise NonObtusePairError(roots[i], roots[j], s)
                p = linalg.primitive(roots[i])
                if linalg.primitive(roots[j]) in (p, linalg.vec_scale(-1, p)):
                    raise DomainError(f"proportional walls {roots[i]}, {roots[j]}")
        return cls(roots=roots)


@dataclass(frozen=True)
class WeylData:
    rho: tuple[Fraction, ...] | None
    rho_norm: Fraction | None
    kind: str  # "elliptic-type" | "parabolic-type" | "none"


@dataclass(frozen=True)
class SymmetryGroup:
    generators: tuple
    order: int | str  # group order, or "infinite-candidate"


def lattice_weyl_vector(lattice: Lattice, roots) -> WeylData:
    """Solve S(rho, a) = -S(a,a)/2 over the rationals.

    The wall system must span; with more walls than the rank the
    overdetermined system is checked for consistency.  The kind records
    the sign of S(rho, rho): negative for elliptic-type, zero for
    parabolic-type, and "none" when no (timelike-or-isotropic) solution
    exists.
    """
    roots = [tuple(r) for r in roots]
    if not roots:
        raise DomainError("empty wall system")
    rows = [linalg.mat_vec(lattice.gram, a) for a in roots]
    if linalg.rank(rows) < lattice.rank:
        raise UnderDeterminedError("wall system does not span; Weyl vector not unique")
    rhs = [Fraction(-norm(lattice, a), 2) for a in roots]
    sol, _ = linalg.solve(rows, rhs)
    if sol is None:
        return WeylData(rho=None, rho_norm=None, kind="none")
    rho = tuple(Fraction(x) for x in sol)
    rn = pair(lattice, rho, rho)
    kind = "elliptic-type" if rn < 0 else ("parabolic-type" if rn == 0 else "none")
    return WeylData(rho=rho, rho_norm=Fraction(rn), kind=kind)


def generalized_weyl_check(lattice: Lattice, roots, rho, bound) -> bool:
    """0 <= -S(rho, a) <= bound for every wall in the (finite) system."""
    if all(x == 0 for x in rho):
        raise DomainError("zero vector cannot be a generalized Weyl vector")
    bound = Fraction(bound)
    return all(0 <= -pair(lattice, rho, a) <= bound for a in roots)


def admissible_twists(lattice: Lattice, d):
    """All twisting coefficients of a primitive wall vector.

    lam qualifies iff lam * S(d,d) divides 2 a(d); every twisted vector is
    re-checked to be crystallographic and to obey S(a,a) | 4 a(S)^2.
    """
    if linalg.content(d) != 1:
        raise DomainError("twists are defined for primitive vectors")
    nd = norm(lattice, d)
    if nd <= 0:
        raise DomainError("wall vector must be spacelike")
    if not is_crystallographic(lattice, d):
        raise DomainError("wall vector must be crystallographic")
    ad = a_delta(lattice, d)
    a_s = invariants(lattice).exponent_aS
    out = []
    for lam in range(1, 2 * ad // nd + 1):
        if (2 * ad) % (lam * nd) == 0:
            twisted = linalg.vec_scale(lam, d)
            assert is_crystallographic(lattice, twisted)
            assert (4 * a_s * a_s) % norm(lattice, twisted) == 0
            out.append(lam)
    return out


def m_star_p_membership(lattice: Lattice, roots, x) -> bool:
    """x lies in the dual lattice and every wall norm divides twice its pairing."""
    for row in lattice.gram:
        if Fraction(linalg.dot(row, x)).denominator != 1:
            return False
    for a in roots:
        twice = 2 * pair(lattice, x, a)
        if Fraction(twice).denominator != 1:
            return False
        if int(twice) % norm(lattice, a) != 0:
            return False
    return True


def candidate_roots_for_weyl_vector(lattice: Lattice, rho, norm_bound,
                                    *, controller=None, max_pairing=None):
    """Roots a with 0 < S(a,a) <= norm_bound and S(rho, a) = -S(a,a)/2.

    For timelike rho the set is finite and enumerated completely (one
    positive definite slice per norm).  For isotropic rho it is infinite
    in general (translation orbits realize unbounded families), so the
    search is cut by a controller height: roots with -S(controller, a)
    <= max_pairing.  Results are crystallographic but not necessarily
    primitive.
    """
    rho = tuple(Fraction(x) for x in rho)
    rn = pair(lattice, rho, rho)
    if rn > 0:
        raise DomainError("weyl vector must be timelike or isotropic")
    if all(x == 0 for x in rho):
        raise DomainError("zero vector")
    den = 1
    for x in rho:
        den = lcm(den, x.denominator)
    scaled_rho = tuple(int(x * den) for x in rho)
    out = []
    if rn < 0:
        roots = vinberg.shells(lattice, scaled_rho)
        for d in range(1, int(norm_bound) + 1):
            target = Fraction(den * d, 2)
            if target.denominator != 1:
                continue
            for x in roots(d, int(target)):
                if is_crystallographic(lattice, x):
                    out.append(x)
        return sorted(out)
    if max_pairing is None:
        raise DomainError(
            "isotropic weyl vector: the candidate set is infinite, pass max_pairing")
    h = tuple(controller) if controller is not None else timelike_vector(lattice)
    if norm(lattice, h) >= 0:
        raise DomainError("controller must be timelike")
    roots = vinberg.shells(lattice, h)
    for d in range(1, int(norm_bound) + 1):
        target = Fraction(den * d, 2)
        if target.denominator != 1:
            continue
        # m = 0 included: the controller only bounds the search here
        for m in range(0, int(max_pairing) + 1):
            for x in roots(d, m):
                if pair(lattice, scaled_rho, x) == -target and is_crystallographic(lattice, x):
                    out.append(x)
    return sorted(set(out))


def symmetry_group(lattice: Lattice, roots) -> SymmetryGroup:
    """Integral isometries permuting the wall system.

    Backtracks over Gram-preserving permutations of the walls (pruned
    entry by entry), keeps those inducing an integral isometry of the
    lattice, and returns them all (they form a group) with the order.
    """
    roots = [tuple(r) for r in roots]
    if linalg.rank(roots) < lattice.rank:
        raise DomainError("wall system must span to determine isometries")
    k = len(roots)
    gram = [[pair(lattice, a, b) for b in roots] for a in roots]
    base = []
    for i in range(k):
        if linalg.rank([roots[j] for j in base] + [roots[i]]) > len(base):
            base.append(i)
    base_cols = linalg.transpose([roots[i] for i in base])
    base_inv = linalg.inverse(base_cols)
    elements = []
    sigma = [None] * k

    def extend(i, used):
        if i == k:
            image_cols = linalg.transpose([roots[sigma[b]] for b in base])
            g = linalg.mat_mul(image_cols, base_inv)
            if any(Fraction(x).denominator != 1 for row in g for x in row):
                return
            g = tuple(tuple(int(x) for x in row) for row in g)
            if is_isometry(lattice, g) and \
                    all(apply_isometry(g, roots[r]) == roots[sigma[r]] for r in range(k)):
                elements.append(g)
            return
        for j in range(k):
            if j in used or gram[j][j] != gram[i][i]:
                continue
            if any(gram[sigma[r]][j] != gram[r][i] for r in range(i)):
                continue
            sigma[i] = j
            extend(i + 1, used | {j})
        sigma[i] = None

    extend(0, frozenset())
    return SymmetryGroup(generators=tuple(elements), order=len(elements))


def fixed_isotropic(lattice: Lattice, gens):
    """Primitive isotropic vector in the common fixed space of the isometries.

    Only fixed spaces of dimension <= 2 are decided (a line is checked for
    isotropy, a plane is an exact binary quadratic problem); larger fixed
    spaces raise.  Returns None when the fixed space has no rational
    isotropic vector.  The sign is canonical (first nonzero coordinate
    positive), not oriented toward any half-cone.
    """
    n = lattice.rank
    rows = []
    for g in gens:
        if not is_isometry(lattice, g):
            raise DomainError("fixed_isotropic expects verified isometries")
        for i in range(n):
            rows.append(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)))
    basis = linalg.kernel_basis(rows, ncols=n)
    if len(basis) > 2:
        raise IndeterminateFixedSpaceError(
            f"fixed space has dimension {len(basis)} > 2")
    if not basis:
        return None
    if len(basis) == 1:
        v = basis[0]
        return _canonical_sign(v) if norm(lattice, v) == 0 else None
    u, v = basis
    a, b, c = norm(lattice, u), pair(lattice, u, v), norm(lattice, v)
    if a == 0:
        return _canonical_sign(u)
    if c == 0:
        return _canonical_sign(v)
    disc = b * b - a * c
    if disc < 0:
        return None
    s = isqrt(disc)
    if s * s != disc:
        return None
    x, y = -b + s, a
    w = tuple(x * ui + y * vi for ui, vi in zip(u, v))
    return _canonical_sign(linalg.primitive(w))


def _canonical_sign(v):
    lead = next((x for x in v if x != 0), 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def parabolic_translation(lattice: Lattice, d_a, d_b):
    """The unipotent isometry s_{d_b} s_{d_a} of two mirrors meeting at infinity."""
    from .geometry import MirrorRelation, classify_mirrors

    if classify_mirrors(lattice, d_a, d_b) is not MirrorRelation.PARALLEL_AT_INFINITY:
        raise DomainError("mirrors must be parallel at infinity")
    phi = linalg.mat_mul(reflection(lattice, d_b), reflection(lattice, d_a))
    delta = _minus_identity_shift(phi)
    if linalg.is_zero_matrix(delta):
        raise DomainError("the two vectors give the same mirror")
    assert linalg.is_zero_matrix(linalg.mat_pow(delta, 3))
    return phi


def _minus_identity_shift(g):
    n = len(g)
    return tuple(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))


def is_unipotent(g) -> bool:
    delta = _minus_identity_shift(g)
    power = delta
    for _ in range(len(g)):
        if linalg.is_zero_matrix(power):
            return True
        power = linalg.mat_mul(power, delta)
    return linalg.is_zero_matrix(power)


def build_Pk_sample(lattice: Lattice, phi, e0, f01, f02, k: int, window: int) -> RootSet:
    """Finite sample of the translation-orbit wall family.

    Walls are phi^t(e0) for t not divisible by k and phi^t(f01),
    phi^t(f02) for t divisible by k, with |t| <= window.  Acceptability,
    pairwise nonobtuseness and the Weyl property against the cusp-scaled
    vector are all verified exactly.
    """
    if k < 2:
        raise DomainError("k must be at least 2")
    if not is_isometry(lattice, phi) or not is_unipotent(phi) \
            or linalg.is_zero_matrix(_minus_identity_shift(phi)):
        raise DomainError("phi must be a nontrivial unipotent isometry")
    c = fixed_isotropic(lattice, [phi])
    if c is None:
        raise DomainError("phi has no fixed isotropic vector")
    if pair(lattice, c, e0) > 0:
        c = tuple(-x for x in c)
    sce = pair(lattice, c, e0)
    if sce == 0:
        raise DomainError("the seed wall passes through the cusp")
    rho = tuple(Fraction(norm(lattice, e0) * ci, -2 * sce) for ci in c)
    seeds = [tuple(e0), tuple(f01), tuple(f02)]
    for s in seeds:
        if not is_crystallographic(lattice, s):
            raise DomainError(f"seed {s} is not crystallographic")
        if 2 * pair(lattice, rho, s) != -norm(lattice, s):
            raise DomainError(f"seed {s} violates the Weyl property")

    images = {0: seeds}
    phi_inv = int_inverse(phi)
    for t in range(1, window + 1):
        images[t] = [apply_isometry(phi, s) for s in images[t - 1]]
        images[-t] = [apply_isometry(phi_inv, s) for s in images[1 - t]]
    roots = []
    for t in range(-window, window + 1):
        e, f1, f2 = images[t]
        roots += [f1, f2] if t % k == 0 else [e]
    for r in roots:
        if 2 * pair(lattice, rho, r) != -norm(lattice, r):
            raise DomainError(f"sample wall {r} violates the Weyl property")
    return RootSet.checked(lattice, roots)


def classify_chamber(lattice: Lattice, roots, sym: SymmetryGroup) -> str:
    """"elliptic", "parabolic-candidate" or "indefinite".

    Elliptic requires the finite-volume certificate on the finite wall
    system.  Parabolic-candidate requires an infinite-order unipotent
    symmetry whose fixed isotropic vector lies behind every wall; the
    finite-index condition of a genuine parabolic pair is not certified.
    """
    roots = [tuple(r) for r in roots]
    if cones.is_arithmetic_type(lattice, roots).finite_volume:
        return "elliptic"
    n = lattice.rank
    for g in sym.generators:
        if g == linalg.identity(n) or not is_unipotent(g):
            continue
        try:
            c = fixed_isotropic(lattice, [g])
        except IndeterminateFixedSpaceError:
            continue
        if c is None:
            continue
        for cand in (c, tuple(-x for x in c)):
            if all(pair(lattice, cand, a) <= 0 for a in roots):
                return "parabolic-candidate"
    return "indefinite"
