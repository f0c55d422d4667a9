"""Weyl vectors, twisting data, chamber symmetries, cusps and the
elliptic / parabolic classification of wall systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import cones, linalg, vinberg
from .errors import (DomainError, IndeterminateFixedSpaceError, NonObtusePairError,
                     UnderDeterminedError)
from .geometry import MirrorRelation, classify_mirrors
from .lattice import (Lattice, a_delta, check_dim, gram_matrix, int_inverse, int_matrix,
                      int_vectors, integer, invariants, is_crystallographic, is_isometry, norm,
                      pair, reflection, timelike_vector)


@dataclass(frozen=True)
class WeylData:
    rho: tuple[Fraction, ...] | None
    rho_norm: Fraction | None
    kind: str  # "elliptic-type" | "parabolic-type" | "none"


def check_walls(lattice: Lattice, roots):
    """The walls as int tuples, checked for the chamber invariants:
    spacelike crystallographic walls, pairwise nonobtuse, no two proportional."""
    roots = int_vectors(lattice, roots, "wall entry")
    gram = gram_matrix(lattice, roots)
    for i, r in enumerate(roots):
        if gram[i][i] <= 0:
            raise DomainError(f"wall {r} is not spacelike")
        if not is_crystallographic(lattice, r):
            raise DomainError(f"wall {r} is not crystallographic")
    lines = [_canonical_sign(linalg.primitive(r)) for r in roots]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if gram[i][j] > 0:
                raise NonObtusePairError(roots[i], roots[j], gram[i][j])
            if lines[j] == lines[i]:
                raise DomainError(f"proportional walls {roots[i]}, {roots[j]}")
    return roots


def lattice_weyl_vector(lattice: Lattice, roots) -> WeylData:
    """Solve S(rho, a) = -S(a,a)/2 over the rationals.

    The wall system must span; with more walls than the rank the
    overdetermined system is checked for consistency.  The kind records
    the sign of S(rho, rho): negative for elliptic-type, zero for
    parabolic-type (rho nonzero), and "none" when no timelike or nonzero
    isotropic solution exists.
    """
    roots = int_vectors(lattice, roots, "wall entry")
    if not roots:
        raise DomainError("empty wall system")
    rows = [linalg.mat_vec(lattice.gram, a) for a in roots]
    if linalg.rank(rows) < lattice.rank:
        raise UnderDeterminedError("wall system does not span; Weyl vector not unique")
    rhs = [Fraction(-norm(lattice, a), 2) for a in roots]
    rho = linalg.solve(rows, rhs)
    if rho is None:
        return WeylData(rho=None, rho_norm=None, kind="none")
    rn = pair(lattice, rho, rho)
    kind = "elliptic-type" if rn < 0 else ("parabolic-type" if rn == 0 and any(rho) else "none")
    return WeylData(rho=rho, rho_norm=Fraction(rn), kind=kind)


def generalized_weyl_check(lattice: Lattice, roots, rho, bound) -> bool:
    """0 <= -S(rho, a) <= bound for every wall in the (finite) system."""
    check_dim(lattice, rho)
    if all(x == 0 for x in rho):
        raise DomainError("zero vector cannot be a generalized Weyl vector")
    roots, bound = int_vectors(lattice, roots, "wall entry"), Fraction(bound)
    return all(0 <= -pair(lattice, rho, a) <= bound for a in roots)


def admissible_twists(lattice: Lattice, d):
    """All twisting coefficients of a primitive wall vector.

    lam qualifies iff lam * S(d,d) divides 2 a(d); every twisted vector is
    re-checked to be crystallographic and to obey S(a,a) | 4 a(S)^2.
    """
    (d,) = int_vectors(lattice, [d], "wall entry")
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
    check_dim(lattice, x)
    roots = int_vectors(lattice, roots, "wall entry")
    for row in lattice.gram:
        if Fraction(linalg.dot(row, x)).denominator != 1:
            return False
    return all(Fraction(2 * pair(lattice, x, a)) % norm(lattice, a) == 0 for a in roots)


def candidate_roots_for_weyl_vector(lattice: Lattice, rho, norm_bound,
                                    *, max_pairing=None):
    """Roots a with 0 < S(a,a) <= norm_bound and S(rho, a) = -S(a,a)/2.

    For timelike rho the set is finite and enumerated completely: rho,
    scaled to integers, is the controller, and norm d has one shell.  For
    isotropic rho it is infinite in general (translation orbits realize
    unbounded families), so the search is cut by a controller height: the
    walked shells of h = timelike_vector(lattice), -S(h, a) <= max_pairing.
    Results come from vinberg.shells, so they are crystallographic but not
    necessarily primitive.  Negative budgets raise.
    """
    norm_bound = integer(norm_bound, "norm_bound")
    max_pairing = None if max_pairing is None else integer(max_pairing, "max_pairing")
    if min(norm_bound, max_pairing or 0) < 0:
        raise DomainError("norm_bound and max_pairing must be >= 0, "
                          f"got {norm_bound} and {max_pairing}")
    rho = tuple(Fraction(x) for x in rho)
    rn = pair(lattice, rho, rho)
    if rn > 0:
        raise DomainError("weyl vector must be timelike or isotropic")
    if all(x == 0 for x in rho):
        raise DomainError("zero vector")
    if rn == 0 and max_pairing is None:
        raise DomainError("isotropic weyl vector: the candidate set is infinite, pass max_pairing")
    den = lcm(*(x.denominator for x in rho))
    scaled_rho = tuple((x * den).numerator for x in rho)
    roots, walk = vinberg.shells(lattice, scaled_rho if rn < 0 else timelike_vector(lattice))
    out = []
    for d in range(1, norm_bound + 1):
        if den * d % 2:
            continue
        t = den * d // 2
        pairings = [t] if rn < 0 else [m for _, _, m in walk(d, d, max_pairing ** 2)]
        out += [x for m in pairings for x in roots(d, m) if pair(lattice, scaled_rho, x) == -t]
    return sorted(set(out))


def symmetry_group(lattice: Lattice, roots) -> tuple:
    """Integral isometries permuting the wall system, as a tuple (a group).

    Backtracks over Gram-preserving permutations sigma of the walls (pruned
    entry by entry).  g = B'.adj(B)/det(B) on the spanning base columns B is
    kept, once, iff it is integral and maps every wall r to sigma(r): then g
    preserves the Gram matrix of a spanning set and permutes it, so it is an
    isometry of finite order and det +-1.
    """
    roots = int_vectors(lattice, roots, "wall entry")
    k = len(roots)
    gram = gram_matrix(lattice, roots)
    base = linalg.pivots(linalg.transpose(roots))
    if len(base) < lattice.rank:
        raise DomainError("wall system must span to determine isometries")
    base_cols = linalg.transpose([roots[i] for i in base])
    det = linalg.det(base_cols)
    adj = tuple(tuple(int(det * x) for x in row) for row in linalg.inverse(base_cols))
    elements = []
    sigma = [None] * k

    def extend(i, used):
        if i == k:
            g = linalg.mat_mul(linalg.transpose([roots[sigma[b]] for b in base]), adj)
            if all(x % det == 0 for row in g for x in row):
                g = tuple(tuple(x // det for x in row) for row in g)
                if g not in elements and all(
                        linalg.mat_vec(g, r) == roots[s] for r, s in zip(roots, sigma)):
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
    return tuple(elements)


def fixed_isotropic(lattice: Lattice, gens):
    """Primitive isotropic vector in the common fixed space of the isometries.

    Only fixed spaces of dimension <= 2 are decided (a line is checked for
    isotropy, a plane is an exact binary quadratic problem); larger fixed
    spaces raise.  Returns None when the fixed space has no rational
    isotropic vector, never for a unipotent g != 1: for N = g - 1 and N^k
    its last nonzero power, N^k x is fixed and in the image of N, which is
    orthogonal to the fixed space.  The sign is canonical (first nonzero
    coordinate positive), not oriented toward any half-cone.
    """
    gens = [int_matrix(lattice, g) for g in gens]
    if not all(is_isometry(lattice, g) for g in gens):
        raise DomainError("fixed_isotropic expects verified isometries")
    return _fixed_isotropic(lattice, gens)


def _fixed_isotropic(lattice: Lattice, gens):
    """`fixed_isotropic` of isometries the caller has already checked."""
    rows = [row for g in gens for row in _minus_identity_shift(g)]
    basis = linalg.kernel_basis(rows, ncols=lattice.rank)
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
    if classify_mirrors(lattice, d_a, d_b) is not MirrorRelation.PARALLEL_AT_INFINITY:
        raise DomainError("mirrors must be parallel at infinity")
    phi = linalg.mat_mul(reflection(lattice, d_b), reflection(lattice, d_a))
    assert linalg.is_zero_matrix(linalg.mat_pow(_minus_identity_shift(phi), 3))
    return phi


def _minus_identity_shift(g):
    n = len(g)
    return tuple(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))


def is_unipotent(g) -> bool:
    return linalg.is_zero_matrix(linalg.mat_pow(_minus_identity_shift(g), len(g)))


def build_Pk_sample(lattice: Lattice, phi, e0, f01, f02, k: int, window: int):
    """Finite sample of the translation-orbit wall family.

    Walls are phi^t(e0) for t not divisible by k and phi^t(f01),
    phi^t(f02) for t divisible by k, with |t| <= window.  The seeds s are
    checked for the Weyl property 2 S(rho, s) = -S(s, s) of the cusp-scaled
    rho = S(e0, e0) c / (-2 S(c, e0)), as S(e0, e0) S(c, s) = S(c, e0) S(s, s);
    phi is an isometry fixing the cusp c, so every phi^t(s) keeps it.  The
    sample passes `check_walls`.
    """
    return _cusp_and_Pk_sample(lattice, phi, e0, f01, f02, k, window)[1]


def _cusp_and_Pk_sample(lattice: Lattice, phi, e0, f01, f02, k: int, window: int):
    """The cusp c of phi and `build_Pk_sample`, with phi checked once and
    its fixed space solved once."""
    if integer(k, "k") < 2:
        raise DomainError("k must be at least 2")
    phi = int_matrix(lattice, phi)
    if not is_isometry(lattice, phi) or not is_unipotent(phi) \
            or linalg.is_zero_matrix(_minus_identity_shift(phi)):
        raise DomainError("phi must be a nontrivial unipotent isometry")
    c = _fixed_isotropic(lattice, [phi])       # not None: phi is unipotent
    sce = pair(lattice, c, e0)
    if sce == 0:
        raise DomainError("the seed wall passes through the cusp")
    seeds = [tuple(e0), tuple(f01), tuple(f02)]
    for s in seeds:
        if not is_crystallographic(lattice, s):
            raise DomainError(f"seed {s} is not crystallographic")
        if norm(lattice, e0) * pair(lattice, c, s) != sce * norm(lattice, s):
            raise DomainError(f"seed {s} violates the Weyl property")

    images = {0: seeds}
    phi_inv = int_inverse(phi)
    for t in range(1, integer(window, "window") + 1):
        images[t] = [linalg.mat_vec(phi, s) for s in images[t - 1]]
        images[-t] = [linalg.mat_vec(phi_inv, s) for s in images[1 - t]]
    roots = []
    for t in range(-window, window + 1):
        e, f1, f2 = images[t]
        roots += [f1, f2] if t % k == 0 else [e]
    return c, check_walls(lattice, roots)


def classify_chamber(lattice: Lattice, roots, symmetries) -> str:
    """"elliptic", "parabolic-candidate" or "indefinite".

    Elliptic requires the finite-volume certificate on the finite wall
    system.  Otherwise each of the given integer isometries is tested:
    parabolic-candidate requires an infinite-order unipotent one whose
    fixed isotropic vector lies behind every wall; the finite-index
    condition of a genuine parabolic pair is not certified.
    `symmetry_group` of a finite wall list is finite, and a unipotent
    element of finite order is the identity, so that branch fires only for
    a symmetry the caller supplies: with `symmetry_group(lattice, roots)`
    the P_2 sample (`build_Pk_sample`, k = 2, window 2) is "indefinite".
    The walls must pass `check_walls`.
    """
    roots = check_walls(lattice, roots)
    symmetries = [int_matrix(lattice, g) for g in symmetries]
    if cones.is_arithmetic_type(lattice, roots).finite_volume:
        return "elliptic"
    n = lattice.rank
    for g in symmetries:
        if g == linalg.identity(n) or not is_unipotent(g):
            continue
        try:
            c = fixed_isotropic(lattice, [g])     # not None: g is unipotent, g != 1
        except IndeterminateFixedSpaceError:
            continue
        for cand in (c, tuple(-x for x in c)):
            if all(pair(lattice, cand, a) <= 0 for a in roots):
                return "parabolic-candidate"
    return "indefinite"
