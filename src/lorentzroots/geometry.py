"""Exact hyperbolic invariants of vectors and mirror pairs.

All distance and angle data stays in squared / rational form (cosh^2 of
the distance, the reciprocal pairing against a cusp, squared horoball
radii), so the whole pipeline remains free of square roots.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import linalg
from .errors import DomainError
from .lattice import Lattice, Record, norm, pair, rational, rational_vectors


class MirrorRelation(Enum):
    INTERSECTING = "intersecting"
    PARALLEL_AT_INFINITY = "parallel-at-infinity"
    ULTRAPARALLEL = "ultraparallel"


def cosh2(lattice: Lattice, x, y) -> Fraction:
    """cosh^2 of the hyperbolic distance between the rays of x and y.

    Scale invariant in each argument; >= 1 with equality iff the rays agree.
    """
    x, y = rational_vectors(lattice, [x, y], "vector entry")
    nx, ny = norm(lattice, x), norm(lattice, y)
    if nx >= 0 or ny >= 0:
        raise DomainError("cosh2 needs two timelike vectors")
    s = pair(lattice, x, y)
    if s >= 0:
        raise DomainError("vectors lie in opposite half-cones")
    return Fraction(s * s, nx * ny)


def classify_mirrors(lattice: Lattice, d1, d2) -> MirrorRelation:
    """Relative position of two mirrors from the determinant of their Gram pair."""
    d1, d2 = rational_vectors(lattice, [d1, d2], "vector entry")
    n1, n2 = norm(lattice, d1), norm(lattice, d2)
    if n1 <= 0 or n2 <= 0:
        raise DomainError("mirror vectors must be spacelike")
    if linalg.rank([d1, d2]) < 2:
        raise DomainError("the two vectors give the same mirror")
    s = pair(lattice, d1, d2)
    disc = n1 * n2 - s * s
    if disc > 0:
        return MirrorRelation.INTERSECTING
    if disc == 0:
        return MirrorRelation.PARALLEL_AT_INFINITY
    return MirrorRelation.ULTRAPARALLEL


class HoroInvariants(Record):
    theta: Fraction | None
    r_squared: Fraction


def horo_invariants(lattice: Lattice, c, d) -> HoroInvariants:
    """Cusp data of a mirror: squared horoball radius, and the reciprocal
    angle -1/S(c,d) when the wall has norm 2 (the only normalization in
    which that quantity is rational)."""
    c, d = rational_vectors(lattice, [c, d], "vector entry")
    if norm(lattice, c) != 0 or all(x == 0 for x in c):
        raise DomainError("cusp vector must be nonzero isotropic")
    nd = norm(lattice, d)
    if nd <= 0:
        raise DomainError("wall vector must be spacelike")
    s = pair(lattice, c, d)
    if s == 0:
        raise DomainError("mirror passes through the cusp; angle undefined")
    if s > 0:
        raise DomainError("cusp must lie on the nonpositive side of the wall")
    theta = Fraction(-1, s) if nd == 2 else None
    return HoroInvariants(theta=theta, r_squared=Fraction(s * s, nd))


def theta_identity_check(t1, t2, t12) -> Fraction:
    """Predicted -S(d1,d2) for norm-2 walls with reciprocal angles t1, t2
    and minimal tangent-wall angle t12 (0 for walls sharing a tangency)."""
    t1, t2, t12 = rational(t1, "t1"), rational(t2, "t2"), rational(t12, "t12")
    if t1 <= 0 or t2 <= 0:
        raise DomainError("reciprocal angles must be positive")
    if t12 < 0:
        raise DomainError("tangent-wall angle cannot be negative")
    return Fraction(4 * (t1 + t12) * (t2 + t12), t1 * t2) - 2
