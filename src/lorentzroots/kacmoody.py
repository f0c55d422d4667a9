"""Cartan matrices from chambers, Weyl-group combinatorics, and the
graded denominator identity.

Roots are tracked in two coordinate systems: lattice coordinates (for
pairings and matrices) and simple-root coordinates, i.e. tuples of
nonnegative coefficients over the wall system.  The grading key of every
series is the simple-root tuple; truncation is by coefficient sum
("height"), which makes the identity triangular and solvable height by
height even when the walls are linearly dependent in the lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from . import cones, linalg, weylstruct
from .errors import DenominatorMismatchError, DomainError
from .lattice import (Lattice, Record, gram_matrix, int_vectors, integer, norm, pair,
                      rational_vectors, reflection)
from .lattice import is_crystallographic  # noqa: F401  benchmarks/tracing.py wraps it here


class GeneralizedCartanMatrix(Record):
    a: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]
    b: tuple[tuple[int, ...], ...]


class RootDatum(Record):
    lattice: Lattice
    simple_roots: tuple[tuple[int, ...], ...]
    cartan: GeneralizedCartanMatrix
    weyl_data: weylstruct.WeylData


def cartan(lattice: Lattice, roots) -> GeneralizedCartanMatrix:
    """Generalized Cartan matrix 2 S(a_i, a_j) / S(a_i, a_i) of a wall system.

    The walls must pass `weylstruct.check_walls` (spacelike,
    crystallographic, pairwise nonobtuse, none proportional) and have a
    connected Gram graph; the symmetrized matrix must have exactly one
    negative square.
    """
    roots = weylstruct.check_walls(lattice, roots)
    if not roots:
        raise DomainError("empty wall system")
    b = gram_matrix(lattice, roots)
    a = tuple(tuple(2 * x // row[i] for x in row) for i, row in enumerate(b))
    if not linalg.support_connected(b):
        raise DomainError("Gram graph of the wall system is disconnected")
    if linalg.rank(roots) < lattice.rank:
        raise DomainError("wall system does not span a finite-index sublattice")
    _, neg, _ = linalg.signature(b)
    if neg != 1:
        raise DomainError(f"symmetrized matrix has {neg} negative squares, expected 1")
    return GeneralizedCartanMatrix(
        a=a,
        d=tuple(Fraction(2, row[i]) for i, row in enumerate(b)),
        b=b,
    )


def root_datum(lattice: Lattice, roots) -> RootDatum:
    roots = int_vectors(lattice, roots, "wall entry")
    gcm = cartan(lattice, roots)
    weyl = weylstruct.lattice_weyl_vector(lattice, roots)
    return RootDatum(lattice=lattice, simple_roots=roots, cartan=gcm, weyl_data=weyl)


# ---------------------------------------------------------------------------
# simple-root coordinates

def tuple_to_vector(datum: RootDatum, coeffs):
    return tuple(sum(map(mul, col, coeffs)) for col in zip(*datum.simple_roots))


def tuple_norm(gcm: GeneralizedCartanMatrix, coeffs):
    return sum(ci * sum(map(mul, row, coeffs)) for ci, row in zip(coeffs, gcm.b))


def _rising_walk(gcm: GeneralizedCartanMatrix, base, height_bound: int, shift: int):
    """Breadth-first walk from the base tuples by the steps that raise the
    height: t -> t - (<t, a_j^v> - shift) e_j, taken only when
    <t, a_j^v> < shift and the new height stays <= N.  shift 0 is s_j on
    roots, shift 1 is e -> e_j + s_j(e) on Weyl exponents.  A step changes
    only coordinate j, and raises it, so every tuple stays nonnegative.
    A frontier tuple carries its height and pairings A t; step j adds rise
    times column j of A to them, in O(r).
    Returns {tuple: BFS level} in walk order; the base is level 0."""
    cols = list(zip(*gcm.a))
    found = dict.fromkeys(base, 0)
    frontier = [(t, sum(t), [linalg.dot(row, t) for row in gcm.a]) for t in found]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for t, height, at in frontier:
            for j, atj in enumerate(at):
                rise = shift - atj
                if rise > 0 and height + rise <= height_bound:
                    img = t[:j] + (t[j] + rise,) + t[j + 1:]
                    if img not in found:
                        found[img] = level
                        nxt.append((img, height + rise,
                                    [x + rise * c for x, c in zip(at, cols[j])]))
        frontier = nxt
    return found


def real_root_tuples(datum: RootDatum, height_bound: int):
    """Positive real roots of height <= N in simple-root coordinates,
    sorted by (height, tuple): the rising walk from the simple roots.  A
    non-simple positive real root a has (a|a) > 0, so some (a|a_j) > 0 and
    s_j(a) is a positive root of lower height (Kac, Infinite-dimensional
    Lie algebras, Lemma 3.7, §5.1); rising steps reach every one."""
    bound = integer(height_bound, "height_bound")
    simple = linalg.identity(len(datum.simple_roots)) if bound > 0 else ()
    return sorted(_rising_walk(datum.cartan, simple, bound, 0), key=lambda t: (sum(t), t))


# ---------------------------------------------------------------------------
# Weyl elements

def weyl_elements(datum: RootDatum, height_bound: int):
    """The Weyl sum {exponent: (-1)^length(w)} over the Weyl-group elements
    w whose exponent has height <= N, in BFS order ({} for N < 0).

    The exponent is the inversion-set sum, exponent(s_j w) =
    e_j + s_j(exponent(w)); it equals w(rho) - rho when a lattice Weyl
    vector rho exists, and it determines w.  s_j w is longer than w iff
    <exponent(w), a_j^v> <= 0 (Kac, Infinite-dimensional Lie algebras,
    Lemma 3.11), that is iff |e_j + s_j(e)| = |e| + 1 - <e, a_j^v> rises;
    so the rising walk with shift 1 is boundary-complete, and its BFS
    level is the length of w.
    """
    if integer(height_bound, "height_bound") < 0:
        return {}
    walk = _rising_walk(datum.cartan, [(0,) * len(datum.simple_roots)], height_bound, 1)
    return {e: (-1) ** length for e, length in walk.items()}


# ---------------------------------------------------------------------------
# graded series

class GradedSeries(Record):
    """Integer formal sum over simple-root tuples, truncated by height."""
    nvars: int
    truncation: int
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "truncation", integer(self.truncation, "truncation"))

    @classmethod
    def one(cls, nvars, truncation):
        return cls(nvars=nvars, truncation=truncation,
                   coeffs={tuple(0 for _ in range(nvars)): 1})

    def get(self, key):
        return self.coeffs.get(tuple(key), 0)

    def binomial_factor(self, key, mult):
        """Multiply in place by (1 - x^key)^mult (any integer mult)."""
        key = tuple(key)
        if len(key) != self.nvars or min(key) < 0:
            raise DomainError(f"factor exponent {key} is not a nonnegative {self.nvars}-tuple")
        h = sum(key)
        if h == 0:
            raise DomainError("factor exponent must have positive height")
        copies = self.truncation // h
        if mult >= 0:
            terms = [(-1) ** j * comb(mult, j) for j in range(min(mult, copies) + 1)]
        else:
            terms = [comb(-mult + j - 1, j) for j in range(copies + 1)]
        out = {}
        for k1, c1 in self.coeffs.items():
            for j in range(min(len(terms), (self.truncation - sum(k1)) // h + 1)):
                k2 = tuple(a + j * b for a, b in zip(k1, key))
                out[k2] = out.get(k2, 0) + c1 * terms[j]
        object.__setattr__(self, "coeffs", {k2: c for k2, c in out.items() if c})

    def items_by_height(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def sum_side(datum: RootDatum, height_bound: int) -> GradedSeries:
    """Signed sum over the Weyl group of monomials at w(rho) - rho; an
    exponent determines w, so each monomial has coefficient +-1."""
    return GradedSeries(nvars=len(datum.simple_roots), truncation=height_bound,
                        coeffs=weyl_elements(datum, height_bound))


def imaginary_candidate_tuples(datum: RootDatum, height_bound: int):
    """Support candidates for positive imaginary roots up to height N, the
    Weyl orbit of the cone K inside the height bound, sorted by (height,
    tuple).  K is the anti-dominant part of Q+, which meets each W-orbit
    once, and w(k) - k >= 0 for k in K (Kac, Prop. 3.12); so an orbit point
    x != k has some <x, a_j^v> > 0, and s_j(x) is an orbit point of lower
    height, still >= k.  The rising walk from K reaches the whole orbit."""
    gcm = datum.cartan
    base = cones.k_element_tuples(gcm.b, height_bound)
    return sorted(_rising_walk(gcm, base, height_bound, 0), key=lambda t: (sum(t), t))


class MultiplicityResult(Record):
    mults: dict
    sum_side: GradedSeries     # the Weyl sum W that the product was balanced against
    residual_zero = True       # a nonzero residual raises DenominatorMismatchError


def solve_multiplicities(datum: RootDatum, height_bound: int) -> MultiplicityResult:
    """Solve the denominator identity for root multiplicities up to height N.

    The product P over positive roots of (1 - x^root)^mult must reproduce
    the Weyl sum W.  Every positive real root has multiplicity 1, and the
    unknowns are the Weyl closure of the cone K; there are no modes.

    Both sides are compared through their graded log-derivatives: with D
    the height derivation (D x^u = |u| x^u), G_W = DW/W obeys
    G_W(u) = |u| W(u) - sum_{0<v<u} W(v) G_W(u - v), and G_P = DP/P has
    G_P(u) = -sum_{k t = u} |t| m_t.  P = W up to height N iff G_P = G_W
    at every u of height 1..N, and at the first height where they differ
    |u| (P(u) - W(u)) = G_P(u) - G_W(u).  So, height by height, each
    unknown t is m_t = (G_P(t) - G_W(t)) / |t| with the division exact,
    and the sum over v is pushed forward over the support of W only.
    Every exponent is a nonnegative tuple of height <= N, keyed by its
    base-(N+1) digits (Kronecker substitution): u + v packs to the sum of
    the keys, and within one height the keys sort like the tuples.  The
    cost is about |supp W| * |supp G| integer additions, with no truncated
    product ever expanded.  Once a height's unknowns are solved, its
    push-forward table, which nothing reads again, becomes the residual
    G_P - G_W in place; only a nonzero residual is searched for its least
    key, and the mismatch raises DenominatorMismatchError carrying the
    first failing exponent in (height, tuple) order.
    """
    if integer(height_bound, "height_bound") < 0:
        raise DomainError(f"height bound must be a nonnegative integer, got {height_bound!r}")
    series = sum_side(datum, height_bound)
    base = height_bound + 1         # every digit is <= N, so sums never carry
    place = [base ** i for i in reversed(range(len(datum.simple_roots)))]
    w_at = [{} for _ in range(height_bound + 1)]     # W by height, packed
    for v, c in series.coeffs.items():
        w_at[sum(v)][linalg.dot(place, v)] = c
    mults = {}
    g_prod = [{} for _ in range(height_bound + 1)]   # G_P by height

    def factor(t, m):
        h, p = sum(t), linalg.dot(place, t)
        for k in range(1, height_bound // h + 1):
            level = g_prod[k * h]
            level[k * p] = level.get(k * p, 0) - h * m

    for t in real_root_tuples(datum, height_bound):
        mults[t] = 1
        factor(t, 1)
    unknown_at = [[] for _ in range(height_bound + 1)]
    for t in imaginary_candidate_tuples(datum, height_bound):
        unknown_at[sum(t)].append(t)
    pushed = [{} for _ in range(height_bound + 1)]   # sum_{0<v<u} W(v) G_W(u - v)
    for h in range(1, height_bound + 1):
        gp, sw, wh = g_prod[h], pushed[h], w_at[h]
        for t in unknown_at[h]:
            p = linalg.dot(place, t)
            m = (gp.get(p, 0) - h * wh.get(p, 0) + sw.get(p, 0)) // h
            if m:
                mults[t] = m
                factor(t, m)
        for u, g in gp.items():         # sw becomes the residual G_P - G_W
            sw[u] = sw.get(u, 0) + g
        for u, w in wh.items():
            sw[u] = sw.get(u, 0) - h * w
        if any(sw.values()):
            u = min(u for u, diff in sw.items() if diff)
            w = wh.get(u, 0)
            raise DenominatorMismatchError(tuple(u // b % base for b in place), w + sw[u] // h, w)
        for u, g in gp.items():
            if not g:
                continue
            for dh in range(1, height_bound - h + 1):
                level = pushed[h + dh]
                for v, c in w_at[dh].items():
                    level[u + v] = level.get(u + v, 0) + c * g
    return MultiplicityResult(mults=mults, sum_side=series)


# ---------------------------------------------------------------------------
# anti-invariance

def weyl_sum_anti_invariant(gcm: GeneralizedCartanMatrix, series: GradedSeries) -> bool:
    """Check that every simple reflection maps the Weyl sum to its negative:
    W(e_j + s_j(u)) = -W(u) wherever the image stays inside the truncation.
    The image raises coordinate j of u by 1 - <u, a_j^v> and no other."""
    for u, c in series.coeffs.items():
        height = sum(u)
        for j, row in enumerate(gcm.a):
            rise = 1 - linalg.dot(row, u)
            if height + rise <= series.truncation \
                    and series.coeffs.get(u[:j] + (u[j] + rise,) + u[j + 1:], 0) != -c:
                return False
    return True


def anti_invariance_check(datum: RootDatum, height_bound: int) -> bool:
    """Anti-invariance of the Weyl sum under every simple reflection,
    verified on the boundary-complete exponent set of height <= N."""
    if datum.weyl_data.rho is None:
        raise DomainError("anti-invariance is stated for data with a lattice Weyl vector")
    return weyl_sum_anti_invariant(datum.cartan, sum_side(datum, height_bound))


# ---------------------------------------------------------------------------
# imaginary membership and the cusp embedding

def imaginary_membership(datum: RootDatum, x, n_max: int):
    """Smallest n <= n_max with n*x in the Weyl orbit of the cone K, or None.

    x is a nonzero timelike or isotropic vector.  It is first driven into
    the fundamental chamber by simple reflections (each step strictly
    raises its pairing against an interior point h through negative
    integers, so the walk terminates), then tested for a nonnegative
    integral wall combination.
    """
    lattice = datum.lattice
    (x,) = int_vectors(lattice, [x], "vector entry")
    if norm(lattice, x) > 0:
        raise DomainError("imaginary membership needs a timelike or isotropic vector")
    if all(c == 0 for c in x):
        raise DomainError("zero vector")
    h = cones.interior_point(lattice, datum.simple_roots)
    if h is None or norm(lattice, h) >= 0:
        raise DomainError("no timelike interior point; chamber is not finite-volume")
    y = tuple(x)
    if pair(lattice, y, h) > 0:
        y = tuple(-c for c in y)
    refl = [reflection(lattice, r) for r in datum.simple_roots]
    while True:
        j = next((i for i, r in enumerate(datum.simple_roots)
                  if pair(lattice, y, r) > 0), None)
        if j is None:
            break
        y = linalg.mat_vec(refl[j], y)
    for n in range(1, integer(n_max, "n_max") + 1):
        scaled = tuple(n * c for c in y)
        if cones.q_plus_membership(lattice, datum.simple_roots, scaled) is not None:
            return n
    return None


def extended_gram(lattice: Lattice, k: int) -> Lattice:
    """The lattice extended by a scaled hyperbolic plane with U(e1,e2) = -k."""
    if integer(k, "k") <= 0:
        raise DomainError("the scaling of the hyperbolic plane must be positive")
    zero = (0,) * lattice.rank
    rows = [row + (0, 0) for row in lattice.gram] + [zero + (0, -k), zero + (-k, 0)]
    return Lattice(gram=tuple(rows),
                   name=f"{lattice.name}+U({k})" if lattice.name else f"U({k})-extension")


def cusp_embedding(lattice: Lattice, k: int, z):
    """Isotropic lift z + (S(z,z)/2) e1 + (1/k) e2 into the extended lattice.

    The identities S'(w, w) = 0 and S'(w, e1) = -1 are asserted exactly.
    """
    big = extended_gram(lattice, k)
    (z,) = rational_vectors(lattice, [z], "z entry")
    nz = pair(lattice, z, z)
    omega = z + (Fraction(nz, 2), Fraction(1, k))
    n = lattice.rank
    e1 = tuple(0 for _ in range(n)) + (1, 0)
    if pair(big, omega, omega) != 0:
        raise AssertionError("cusp lift is not isotropic")
    if pair(big, omega, e1) != -1:
        raise AssertionError("cusp lift is not normalized against e1")
    return omega
