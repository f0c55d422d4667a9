"""Exact rational polyhedral cones: double description, duality and the
arithmetic-type test for chamber wall systems.

A wall system P defines the cone {x : S(x, a) <= 0 for all a in P}.  The
generator description consists of extreme rays (primitive integer
vectors, lexicographically sorted) together with a basis of the
lineality space.
"""

from __future__ import annotations

from itertools import combinations, product

from . import linalg
from .errors import DomainError
from .lattice import Lattice, Record, int_vectors, integer, norm, pair, vector_of_sign


class Cone(Record):
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


def clip(lin, rays, rows, row):
    """Intersect span(lin) + cone(rays) with {y : row . y <= 0}.

    One double description step (Fukuda & Prodon 1996): rows are the
    inequalities clipped so far, lin spans their common kernel, and rays
    maps each extreme ray to the int bitmask of the rows tight on it; row
    is bit len(rows).  If row is nonzero on a lineality vector, the first
    one, k, oriented so that row . k < 0, becomes a ray tight on every
    processed row, and all else is projected along k onto row . y = 0,
    which keeps the rows tight on each ray.  Otherwise the rays with
    row . y > 0 are dropped and each adjacent pair p, q across the
    hyperplane adds its cut; both coefficients of the cut are positive, so
    it is tight on row and on the rows of tp & tq only.  One cut rule
    serves both cases.

    p and q are adjacent iff no third ray's mask contains tp & tq.  Proof:
    the smallest face holding p and q is where the rows of tp & tq vanish,
    and modulo lin it is spanned by the rays whose masks contain tp & tq.
    The rays are the extreme rays modulo lin, each once, so that face is a
    2-face iff p and q are its only rays.  A 2-face is cut out by at least
    edge_rank rows, which filters first.
    """
    bit = 1 << len(rows)

    def cut(p, vp, q, vq):  # on row . y = 0 for vp = row . p, vq = row . q
        return linalg.primitive(linalg.vec_sub(linalg.vec_scale(vp, q),
                                               linalg.vec_scale(vq, p)))

    j = next((i for i, l in enumerate(lin) if linalg.dot(row, l)), None)
    if j is not None:
        k = lin[j] if linalg.dot(row, lin[j]) < 0 else linalg.vec_scale(-1, lin[j])
        vk = linalg.dot(row, k)
        out = {cut(r, linalg.dot(row, r), k, vk): t | bit for r, t in rays.items()}
        out[k] = bit - 1
        return [cut(l, linalg.dot(row, l), k, vk) for i, l in enumerate(lin) if i != j], out
    edge_rank = len(row) - len(lin) - 2    # tight rank on a 2-face modulo lin
    vals = {r: linalg.dot(row, r) for r in rays}
    out = {r: t if vals[r] else t | bit for r, t in rays.items() if vals[r] <= 0}
    pos = [(p, t) for p, t in rays.items() if vals[p] > 0]
    neg = [(q, t) for q, t in rays.items() if vals[q] < 0]
    for (p, tp), (q, tq) in product(pos, neg):
        m = tp & tq
        if m.bit_count() >= edge_rank and sum(m & t == m for t in rays.values()) == 2:
            out[cut(p, vals[p], q, vals[q])] = m | bit
    return lin, out


def dual_extreme_rays(lattice: Lattice, roots) -> Cone:
    """Generator description of {x : S(x, a) <= 0 for all a in roots}.

    A fold of clip from the whole space.  Lineality leaves in the order of
    the rref pivot columns of the wall rows, so lin ends as
    kernel_basis(rows) and every ray vanishes on the free columns.
    """
    roots = int_vectors(lattice, roots, "wall entry")
    if not roots:
        raise DomainError("empty wall system")
    rows = [linalg.mat_vec(lattice.gram, a) for a in roots]
    lin, rays = linalg.identity(lattice.rank), {}
    for i, row in enumerate(rows):
        lin, rays = clip(lin, rays, rows[:i], row)
    return Cone(rays=tuple(sorted(rays)), lineality=tuple(sorted(lin)))


def in_light_cone(lattice: Lattice, rays) -> bool:
    """All rays isotropic or timelike and pairwise in one closed half-cone."""
    return (all(norm(lattice, r) <= 0 for r in rays)
            and all(pair(lattice, p, q) <= 0 for p, q in combinations(rays, 2)))


class ArithmeticTypeReport(Record):
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
    ok = not cone.lineality and in_light_cone(lattice, cone.rays)
    witness = next((r for r in cone.rays if norm(lattice, r) > 0), None)
    if not ok and witness is None and cone.lineality:
        witness = vector_of_sign(lattice, 1, cone.lineality)
    return ArithmeticTypeReport(finite_volume=ok, witness=witness, cone=cone)


def interior_point(lattice, roots):
    """Integer vector h with S(h, a) < 0 for every wall, or None.  h is the
    sum of the dual cone's extreme rays, a relative interior point, so it
    passes the strict test iff any point does."""
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


def q_plus_membership(lattice: Lattice, roots, x):
    """Nonnegative integer coefficients writing x over the wall vectors, or None.

    Linearly independent walls take a single exact solve.  Dependent walls
    need an interior point h of the dual cone: a depth-first search caps
    each coefficient by the pairing against h of what is left of x.
    """
    (x,) = int_vectors(lattice, [x], "vector entry")
    roots = int_vectors(lattice, roots, "wall entry")
    if not roots:
        raise DomainError("empty wall system")
    if linalg.rank(roots) == len(roots):
        sol = linalg.solve(linalg.transpose(roots), x)
        if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
            return None
        return tuple(int(c) for c in sol)
    h = interior_point(lattice, roots)
    if h is None:
        raise DomainError("dependent walls without interior point")
    heights = [-pair(lattice, a, h) for a in roots]

    def search(i, rest):
        if not any(rest):
            return (0,) * (len(roots) - i)
        if i == len(roots):
            return None
        for c in range(-pair(lattice, rest, h) // heights[i], -1, -1):
            found = search(i + 1, tuple(r - c * a for r, a in zip(rest, roots[i])))
            if found is not None:
                return (c,) + found
        return None

    return search(0, x)


def k_element_tuples(gram_of_roots, height_bound):
    """Coefficient tuples a >= 0, 0 < sum(a) <= N with (B a)_j <= 0 for all j.

    Depth-first over the coordinates in lexicographic order, so the output
    is sorted.  With a_0 .. a_{i-1} fixed, r_j the partial value of (B a)_j
    and `left` the height still free, row j ends no lower than r_j + left *
    f_j, f_j = min(0, min_{i' >= i} B_{j i'}), for any integer B.  That
    bound for a child a_i = c, r_j + c B_{ji} + (left - c) f'_j (f' over
    i' > i), is linear in c, so only the integer interval of c where no row
    bounds above 0 is entered.  A row with B_{ji} = f'_j bounds no c: then
    f'_j = f_j and the node's own bound is <= 0, or N < 0 empties the range.
    """
    b = [tuple(row) for row in gram_of_roots]
    k = len(b)
    floor = [[min(0, *row[i + 1:]) for row in b] for i in range(k - 1)] + [[0] * k]  # f' at i
    cols = [[row[i] for row in b] for i in range(k)]
    out = []

    def rec(i, left, acc, r):
        if i == k:
            if any(acc):
                out.append(tuple(acc))
            return
        lo, hi = 0, left
        for rj, bj, fj in zip(r, cols[i], floor[i]):
            rest, slope = rj + left * fj, bj - fj     # live iff rest + c * slope <= 0
            if slope > 0:
                hi = min(hi, -rest // slope)
            elif slope < 0:
                lo = max(lo, -(rest // slope))
        for c in range(lo, hi + 1):
            rec(i + 1, left - c, acc + [c], [rj + c * bj for rj, bj in zip(r, cols[i])])

    rec(0, integer(height_bound, "height_bound"), [], [0] * k)
    return out
