"""Exact rational polyhedral cones: double description, duality and the
arithmetic-type test for chamber wall systems.

A wall system P defines the cone {x : S(x, a) <= 0 for all a in P}.  The
generator description consists of extreme rays (primitive integer
vectors, lexicographically sorted) together with a basis of the
lineality space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .errors import DomainError
from .lattice import Lattice, norm, pair, vector_of_sign


@dataclass(frozen=True)
class Cone:
    walls: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


def _dd_pointed(rows, n):
    """Extreme rays of {y : row . y <= 0}, assuming the rows have rank n.

    Incremental double description: seed with an invertible subset of the
    inequalities (a simplicial cone containing the target), then clip by
    the remaining inequalities one at a time, combining adjacent rays
    across the new hyperplane.  Adjacency is the exact rank test on the
    common tight set.
    """
    if n == 0:
        return []
    base = linalg.pivots(linalg.transpose(rows))
    inv = linalg.inverse([rows[i] for i in base])
    cols = linalg.transpose(inv)
    rays = [linalg.clear_denominators([-x for x in col]) for col in cols]
    processed = list(base)

    def adjacent(p, q):
        tight = [rows[i] for i in processed
                 if linalg.dot(rows[i], p) == 0 and linalg.dot(rows[i], q) == 0]
        return linalg.rank(tight) == n - 2

    for i, row in enumerate(rows):
        if i in base:
            continue
        vals = [linalg.dot(row, r) for r in rays]
        if all(v <= 0 for v in vals):
            processed.append(i)
            continue
        keep = [r for r, v in zip(rays, vals) if v <= 0]
        new = []
        for (p, vp), (q, vq) in combinations(zip(rays, vals), 2):
            if vp * vq >= 0:
                continue
            if not adjacent(p, q):
                continue
            if vp < 0:
                p, q, vp, vq = q, p, vq, vp
            combo = linalg.vec_sub(linalg.vec_scale(vp, q), linalg.vec_scale(vq, p))
            new.append(linalg.primitive(combo))
        rays = keep + new
        processed.append(i)
        if not rays:
            break
    return sorted(set(rays))


def dual_extreme_rays(lattice: Lattice, roots) -> Cone:
    """Generator description of {x : S(x, a) <= 0 for all a in roots}."""
    roots = [tuple(a) for a in roots]
    if not roots:
        raise DomainError("empty wall system")
    n = lattice.rank
    rows = [linalg.mat_vec(lattice.gram, a) for a in roots]
    lin = linalg.kernel_basis(rows, ncols=n)
    # e_j (j in J) complement the kernel of rows iff columns J of rows are independent
    comp = linalg.pivots(rows)
    reduced = [tuple(row[j] for j in comp) for row in rows]
    quotient_rays = _dd_pointed(reduced, len(comp))
    rays = []
    for qr in quotient_rays:
        x = [0] * n
        for j, v in zip(comp, qr):
            x[j] = v
        rays.append(tuple(x))
    return Cone(walls=tuple(roots), rays=tuple(sorted(rays)),
                lineality=tuple(sorted(linalg.primitive(v) for v in lin)))


@dataclass(frozen=True)
class ArithmeticTypeReport:
    finite_volume: bool
    witness: tuple[int, ...] | None
    cone: Cone


def is_arithmetic_type(lattice: Lattice, roots) -> ArithmeticTypeReport:
    """Test whether the dual of the wall cone sits inside the closed light cone.

    True iff the dual cone is pointed and all its extreme rays are
    isotropic or timelike within one half-cone (pairwise nonpositive
    pairings).  For a finite spanning wall system this is also the
    finite-volume certificate for the chamber.  On failure the witness is
    a spacelike vector of the dual cone when one exists.
    """
    cone = dual_extreme_rays(lattice, roots)
    witness = next((r for r in cone.rays if norm(lattice, r) > 0), None)
    coherent = all(
        pair(lattice, p, q) <= 0 for p, q in combinations(cone.rays, 2))
    ok = (not cone.lineality and witness is None
          and all(norm(lattice, r) <= 0 for r in cone.rays) and coherent)
    if not ok and witness is None and cone.lineality:
        witness = vector_of_sign(lattice, 1, cone.lineality)
    return ArithmeticTypeReport(finite_volume=ok, witness=witness, cone=cone)


def _interior_point(lattice, roots):
    """Integer vector h with S(h, a) < 0 for every wall, or None."""
    cone = dual_extreme_rays(lattice, roots)
    if not cone.rays:
        return None
    h = [0] * lattice.rank
    for r in cone.rays:
        h = [a + b for a, b in zip(h, r)]
    h = tuple(h)
    if all(pair(lattice, h, a) < 0 for a in roots):
        return h
    return None


def q_plus_membership(lattice: Lattice, roots, x, budget=None):
    """Nonnegative integer coefficients writing x over the wall vectors, or None.

    With linearly independent walls this is a single exact solve;
    otherwise a depth-first search bounded by pairing against an interior
    point of the dual cone (or by an explicit coefficient budget).
    """
    roots = [tuple(a) for a in roots]
    if not roots:
        raise DomainError("empty wall system")
    cols = linalg.transpose(roots)  # matrix with the roots as columns
    if linalg.rank(roots) == len(roots):
        sol = linalg.solve(cols, x)
        if sol is None:
            return None
        coeffs = tuple(sol)
        if all(c.denominator == 1 and c >= 0 for c in coeffs):
            return tuple(int(c) for c in coeffs)
        return None
    h = _interior_point(lattice, roots)
    if h is None and budget is None:
        raise DomainError("dependent walls without interior point: pass a budget")
    heights = [-pair(lattice, a, h) for a in roots] if h is not None else None

    target = list(x)

    def search(i, remaining, acc):
        if all(v == 0 for v in remaining):
            return tuple(acc + [0] * (len(roots) - i))
        if i == len(roots):
            return None
        if heights is not None:
            cap = (-pair(lattice, tuple(remaining), h)) // heights[i]
        else:
            cap = budget - sum(acc)
        if cap < 0:
            return None
        for c in range(int(cap), -1, -1):
            nxt = [r - c * a for r, a in zip(remaining, roots[i])]
            if heights is not None and -pair(lattice, tuple(nxt), h) < 0:
                continue
            found = search(i + 1, nxt, acc + [c])
            if found is not None:
                return found
        return None

    return search(0, target, [])


def k_element_tuples(gram_of_roots, height_bound):
    """Coefficient tuples a >= 0, 0 < sum(a) <= N with (B a)_j <= 0 for all j."""
    b = [tuple(row) for row in gram_of_roots]
    k = len(b)
    out = []

    def rec(i, left, acc):
        if i == k:
            if any(acc) and all(linalg.dot(row, acc) <= 0 for row in b):
                out.append(tuple(acc))
            return
        for c in range(left + 1):
            rec(i + 1, left - c, acc + [c])

    rec(0, height_bound, [])
    return sorted(out)


def k_elements(lattice: Lattice, roots, height_bound):
    """Lattice points of the cone K: nonnegative wall combinations that lie
    behind every wall, up to the given coefficient-sum bound."""
    roots = [tuple(a) for a in roots]
    gram = [[pair(lattice, u, v) for v in roots] for u in roots]
    seen = {}
    for a in k_element_tuples(gram, height_bound):
        x = tuple(sum(c * r[j] for c, r in zip(a, roots)) for j in range(lattice.rank))
        seen.setdefault(x, a)
    return sorted(seen)
