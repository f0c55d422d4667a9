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

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import cones, linalg, weylstruct
from .errors import DenominatorMismatchError, DomainError
from .lattice import Lattice, apply_isometry, norm, pair, reflection
from .lattice import is_crystallographic  # noqa: F401  benchmarks/tracing.py wraps it here


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    a: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]
    b: tuple[tuple[int, ...], ...]
    lorentzian: bool


@dataclass(frozen=True)
class RootDatum:
    lattice: Lattice
    simple_roots: tuple[tuple[int, ...], ...]
    cartan: GeneralizedCartanMatrix
    weyl_data: weylstruct.WeylData | None


def cartan(lattice: Lattice, roots) -> GeneralizedCartanMatrix:
    """Generalized Cartan matrix 2 S(a_i, a_j) / S(a_i, a_i) of a wall system.

    The walls must pass `weylstruct.RootSet.checked` (spacelike,
    crystallographic, pairwise nonobtuse, none proportional) and have a
    connected Gram graph; the symmetrized matrix must have exactly one
    negative square.
    """
    roots = weylstruct.RootSet.checked(lattice, roots).roots
    if not roots:
        raise DomainError("empty wall system")
    b = [[pair(lattice, x, y) for y in roots] for x in roots]
    k = len(roots)
    a = []
    for i in range(k):
        row = []
        for j in range(k):
            num = 2 * b[i][j]
            if num % b[i][i] != 0:
                raise DomainError("non-integral Cartan entry")
            row.append(num // b[i][i])
        a.append(tuple(row))
    if not linalg.support_connected(b):
        raise DomainError("Gram graph of the wall system is disconnected")
    if linalg.rank(roots) < lattice.rank:
        raise DomainError("wall system does not span a finite-index sublattice")
    _, neg, _ = linalg.signature(b)
    if neg != 1:
        raise DomainError(f"symmetrized matrix has {neg} negative squares, expected 1")
    return GeneralizedCartanMatrix(
        a=tuple(a),
        d=tuple(Fraction(2, b[i][i]) for i in range(k)),
        b=tuple(tuple(row) for row in b),
        lorentzian=True,
    )


def root_datum(lattice: Lattice, roots) -> RootDatum:
    roots = tuple(tuple(r) for r in roots)
    gcm = cartan(lattice, roots)
    weyl = weylstruct.lattice_weyl_vector(lattice, roots)
    return RootDatum(lattice=lattice, simple_roots=roots, cartan=gcm, weyl_data=weyl)


# ---------------------------------------------------------------------------
# simple-root coordinates

def simple_reflection_on_tuple(gcm: GeneralizedCartanMatrix, j: int, coeffs):
    """s_j acting on simple-root coordinates: c_j -> c_j - sum_i a_{ji} c_i."""
    shift = linalg.dot(gcm.a[j], coeffs)
    out = list(coeffs)
    out[j] -= shift
    return tuple(out)


def tuple_to_vector(datum: RootDatum, coeffs):
    n = datum.lattice.rank
    return tuple(sum(c * r[i] for c, r in zip(coeffs, datum.simple_roots))
                 for i in range(n))


def tuple_norm(gcm: GeneralizedCartanMatrix, coeffs):
    return sum(ci * linalg.dot(row, coeffs) for ci, row in zip(coeffs, gcm.b))


def _weyl_closure(gcm: GeneralizedCartanMatrix, base, height_bound: int):
    """Closure of nonnegative tuples under the simple reflections, keeping
    only images that stay nonnegative and inside the height bound; sorted
    by (height, tuple)."""
    found = set(base)
    frontier = set(base)
    while frontier:
        nxt = set()
        for t in frontier:
            for j in range(len(gcm.a)):
                img = simple_reflection_on_tuple(gcm, j, t)
                if img not in found and sum(img) <= height_bound and min(img) >= 0:
                    nxt.add(img)
        found |= nxt
        frontier = nxt
    return sorted(found, key=lambda t: (sum(t), t))


def real_root_tuples(datum: RootDatum, height_bound: int):
    """Positive real roots of height <= N in simple-root coordinates.

    Breadth-first closure of the simple roots under the simple
    reflections; every positive real root of height <= N is reachable
    without leaving the height bound.
    """
    k = len(datum.simple_roots)
    simple = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    return _weyl_closure(datum.cartan, [t for t in simple if sum(t) <= height_bound],
                         height_bound)


def real_roots(datum: RootDatum, height_bound: int):
    """Positive real roots as (lattice vector, height) pairs."""
    return [(tuple_to_vector(datum, t), sum(t))
            for t in real_root_tuples(datum, height_bound)]


# ---------------------------------------------------------------------------
# Weyl elements

@dataclass(frozen=True)
class WeylElement:
    word: tuple[int, ...]           # reduced word, leftmost letter applied last
    exponent: tuple[int, ...]       # w(rho) - rho in simple-root coordinates
    sign: int


def weyl_elements(datum: RootDatum, height_bound: int):
    """All Weyl-group elements whose exponent has height <= N, by word length.

    The exponent is the inversion-set sum, computed by the left-extension
    recursion exponent(s_j w) = e_j + s_j(exponent(w)); it equals
    w(rho) - rho whenever a lattice Weyl vector rho exists, and it
    determines w.  s_j w is longer than w iff <exponent(w), a_j^v> <= 0
    (Kac, Infinite-dimensional Lie algebras, 3.11), and such a step raises
    the exponent height by at least one, so breadth-first search over
    exponents that prunes at height N is boundary-complete.
    """
    gcm = datum.cartan
    k = len(datum.simple_roots)
    if height_bound < 0:
        return []
    frontier = [WeylElement(word=(), exponent=(0,) * k, sign=1)]
    elements = []
    seen = set()
    while frontier:
        elements.extend(frontier)
        nxt = []
        for el in frontier:
            for j in range(k):
                if linalg.dot(gcm.a[j], el.exponent) > 0:
                    continue
                exp = exponent_involution(gcm, j, el.exponent)
                if sum(exp) > height_bound or exp in seen:
                    continue
                seen.add(exp)
                nxt.append(WeylElement(word=(j,) + el.word, exponent=exp, sign=-el.sign))
        frontier = nxt
    return elements


# ---------------------------------------------------------------------------
# graded series

@dataclass
class GradedSeries:
    """Integer formal sum over simple-root tuples, truncated by height."""
    nvars: int
    truncation: int
    coeffs: dict

    @classmethod
    def one(cls, nvars, truncation):
        return cls(nvars=nvars, truncation=truncation,
                   coeffs={tuple(0 for _ in range(nvars)): 1})

    def get(self, key):
        return self.coeffs.get(tuple(key), 0)

    def add_term(self, key, value):
        key = tuple(key)
        c = self.coeffs.get(key, 0) + value
        if c:
            self.coeffs[key] = c
        else:
            self.coeffs.pop(key, None)

    def binomial_factor(self, key, mult):
        """Multiply in place by (1 - x^key)^mult (any integer mult)."""
        key = tuple(key)
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
        self.coeffs = {k2: c for k2, c in out.items() if c}

    def items_by_height(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def sum_side(datum: RootDatum, height_bound: int) -> GradedSeries:
    """Signed sum over the Weyl group of monomials at w(rho) - rho."""
    series = GradedSeries(nvars=len(datum.simple_roots), truncation=height_bound,
                          coeffs={})
    for el in weyl_elements(datum, height_bound):
        series.add_term(el.exponent, el.sign)
    return series


def imaginary_candidate_tuples(datum: RootDatum, height_bound: int):
    """Support candidates for positive imaginary roots up to height N:
    the Weyl closure of the cone K inside the height bound."""
    gcm = datum.cartan
    return _weyl_closure(gcm, cones.k_element_tuples(gcm.b, height_bound), height_bound)


@dataclass(frozen=True)
class MultiplicityResult:
    mults: dict
    residual_zero: bool


def solve_multiplicities(datum: RootDatum, height_bound: int,
                         assume_real_simple: bool = True,
                         imaginary_candidates=None) -> MultiplicityResult:
    """Solve the denominator identity for root multiplicities up to height N.

    The product over positive roots of (1 - x^root)^mult must reproduce
    the Weyl sum; unknown multiplicities sit at the real roots (forced to
    1 unless assume_real_simple is False, in which case they are solved
    and must come out 1) and at the imaginary candidates (by default the
    Weyl closure of the cone K).  The system is unitriangular in the
    height filtration.  After solving, every graded coefficient is
    re-checked; a mismatch raises DenominatorMismatchError carrying the
    first failing exponent.
    """
    target = sum_side(datum, height_bound)
    nvars = len(datum.simple_roots)
    reals = set(real_root_tuples(datum, height_bound))
    if imaginary_candidates is None:
        ims = imaginary_candidate_tuples(datum, height_bound)
    else:
        ims = sorted({tuple(t) for t in imaginary_candidates},
                     key=lambda t: (sum(t), t))
    mults = {}
    prod = GradedSeries.one(nvars, height_bound)
    if assume_real_simple:
        for t in sorted(reals, key=lambda t: (sum(t), t)):
            mults[t] = 1
            prod.binomial_factor(t, 1)
        unknowns = ims
    else:
        unknowns = sorted(reals | set(ims), key=lambda t: (sum(t), t))
    for t in unknowns:
        m = prod.get(t) - target.get(t)
        if m:
            mults[t] = m
            prod.binomial_factor(t, m)
        elif t in reals:
            mults[t] = 0
    keys = set(prod.coeffs) | set(target.coeffs)
    for key in sorted(keys, key=lambda t: (sum(t), t)):
        if prod.get(key) != target.get(key):
            raise DenominatorMismatchError(key, prod.get(key), target.get(key))
    return MultiplicityResult(mults=mults, residual_zero=True)


# ---------------------------------------------------------------------------
# anti-invariance

def exponent_involution(gcm: GeneralizedCartanMatrix, j: int, exponent):
    """Action of left multiplication by s_j on exponents: e -> e_j + s_j(e)."""
    base = simple_reflection_on_tuple(gcm, j, exponent)
    out = list(base)
    out[j] += 1
    return tuple(out)


def exponent_multiset_anti_invariant(gcm, pairs, height_bound) -> bool:
    """Check that s_j maps the truncated (exponent, sign) multiset onto
    itself with flipped signs, for every simple reflection."""
    from collections import Counter

    bag = Counter(pairs)
    for j in range(len(gcm.a)):
        for (exp, sign), count in bag.items():
            img = exponent_involution(gcm, j, exp)
            if sum(img) > height_bound:
                continue
            if bag.get((img, -sign), 0) != count:
                return False
    return True


def anti_invariance_check(datum: RootDatum, height_bound: int) -> bool:
    """Anti-invariance of the Weyl sum under every simple reflection,
    verified on the boundary-complete exponent set of height <= N."""
    if datum.weyl_data is None or datum.weyl_data.rho is None:
        raise DomainError("anti-invariance is stated for data with a lattice Weyl vector")
    pairs = [(el.exponent, el.sign) for el in weyl_elements(datum, height_bound)]
    return exponent_multiset_anti_invariant(datum.cartan, pairs, height_bound)


# ---------------------------------------------------------------------------
# imaginary membership and the cusp embedding

def chamber_interior_point(datum: RootDatum):
    h = cones._interior_point(datum.lattice, datum.simple_roots)
    if h is None or norm(datum.lattice, h) >= 0:
        raise DomainError("no timelike interior point; chamber is not finite-volume")
    return h


def imaginary_membership(datum: RootDatum, x, n_max: int,
                         allow_lightlike: bool = False):
    """Smallest n <= n_max with n*x in the Weyl orbit of the cone K, or None.

    x is first driven into the fundamental chamber by simple reflections
    (each step strictly drops the pairing against an interior point, so
    the walk terminates), then tested for a nonnegative integral wall
    combination.
    """
    lattice = datum.lattice
    nx = norm(lattice, x)
    if nx > 0 or (nx == 0 and not allow_lightlike):
        raise DomainError("imaginary membership needs a timelike vector")
    if all(c == 0 for c in x):
        raise DomainError("zero vector")
    h = chamber_interior_point(datum)
    y = tuple(x)
    if pair(lattice, y, h) > 0:
        y = tuple(-c for c in y)
    refl = [reflection(lattice, r) for r in datum.simple_roots]
    while True:
        j = next((i for i, r in enumerate(datum.simple_roots)
                  if pair(lattice, y, r) > 0), None)
        if j is None:
            break
        y = apply_isometry(refl[j], y)
    for n in range(1, n_max + 1):
        scaled = tuple(n * c for c in y)
        if cones.q_plus_membership(lattice, datum.simple_roots, scaled) is not None:
            return n
    return None


def extended_gram(lattice: Lattice, k: int) -> Lattice:
    """The lattice extended by a scaled hyperbolic plane with U(e1,e2) = -k."""
    if k <= 0:
        raise DomainError("the scaling of the hyperbolic plane must be positive")
    n = lattice.rank
    rows = []
    for i in range(n):
        rows.append(tuple(lattice.gram[i]) + (0, 0))
    rows.append(tuple(0 for _ in range(n)) + (0, -k))
    rows.append(tuple(0 for _ in range(n)) + (-k, 0))
    return Lattice(gram=tuple(rows),
                   name=f"{lattice.name}+U({k})" if lattice.name else f"U({k})-extension")


def cusp_embedding(lattice: Lattice, k: int, z):
    """Isotropic lift z + (S(z,z)/2) e1 + (1/k) e2 into the extended lattice.

    The identities S'(w, w) = 0 and S'(w, e1) = -1 are asserted exactly.
    """
    big = extended_gram(lattice, k)
    z = tuple(Fraction(c) for c in z)
    nz = pair(lattice, z, z)
    omega = z + (Fraction(nz, 2), Fraction(1, k))
    n = lattice.rank
    e1 = tuple(0 for _ in range(n)) + (1, 0)
    if pair(big, omega, omega) != 0:
        raise AssertionError("cusp lift is not isotropic")
    if pair(big, omega, e1) != -1:
        raise AssertionError("cusp lift is not normalized against e1")
    return omega
