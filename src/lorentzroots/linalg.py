"""Exact linear algebra over the integers and rationals.

Everything runs on Python ints and fractions.Fraction; there is no
floating point anywhere in this package.  Matrices are tuples of row
tuples, vectors are plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import DegenerateFormError, DimensionError


# ---------------------------------------------------------------------------
# small vector / matrix helpers

def dot(u, v):
    if len(u) != len(v):
        raise DimensionError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m, k):
    n = len(m)
    out = identity(n)
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def support_connected(m, indices=None):
    """Is the graph on indices (default: all), with an edge i-j wherever
    m[i][j] != 0, connected?"""
    indices = range(len(m)) if indices is None else indices
    seen = {indices[0]}
    todo = [indices[0]]
    while todo:
        i = todo.pop()
        for j in indices:
            if j not in seen and m[i][j] != 0:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(indices)


def is_zero_matrix(m):
    return all(x == 0 for row in m for x in row)


def content(v) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for a in v:
        g = gcd(g, abs(int(a)))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = content(v)
    if g == 0:
        raise DegenerateFormError("zero vector has no primitive representative")
    return tuple(int(a) // g for a in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector, keeping direction."""
    from math import lcm

    den = 1
    for a in v:
        den = lcm(den, Fraction(a).denominator)
    return primitive(tuple(int(a * den) for a in v))


# ---------------------------------------------------------------------------
# Gaussian elimination over the rationals

def _rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(_rref(rows)[1])


def kernel_basis(rows, ncols=None):
    """Basis of {x : rows @ x = 0} as primitive integer vectors."""
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    n = len(rows[0])
    red, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(clear_denominators(v))
    return basis


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent.

    Returns (solution, n_free) where n_free counts free variables.
    """
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = _rref(aug)
    if n in pivots:  # pivot in the rhs column
        return None, 0
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return tuple(x), n - len(pivots)


def inverse(m):
    """Exact inverse of a square rational matrix; raises if singular."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    red, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise DegenerateFormError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(m) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# symmetric forms

def signature(sym):
    """(positives, negatives, zeros) of a symmetric rational matrix, read off
    the diagonal of diagonalizing_basis."""
    _, diag = diagonalizing_basis(sym)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def diagonalizing_basis(sym):
    """Rows t_i with t_i sym t_j^T diagonal; returns (basis rows, diagonal).

    Congruence diagonalization with rational pivots; a zero diagonal is
    repaired with the standard add-row-and-column trick, so no square
    roots are ever needed.
    """
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    for i, row in enumerate(a):
        for j in range(i):
            if row[j] != a[j][i]:
                raise DegenerateFormError("matrix is not symmetric")
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        if a[i][i] == 0:
            j = next((k for k in range(i + 1, n) if a[k][k] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                t[i], t[j] = t[j], t[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if j is None:
                    continue
                for k in range(n):
                    a[i][k] += a[j][k]
                    t[i][k] += t[j][k]
                for k in range(n):
                    a[k][i] += a[k][j]
        piv = a[i][i]
        if piv == 0:
            continue
        for r in range(i + 1, n):
            f = a[r][i] / piv
            if f == 0:
                continue
            for k in range(n):
                a[r][k] -= f * a[i][k]
                t[r][k] -= f * t[i][k]
            for k in range(n):
                a[k][r] -= f * a[k][i]
    diag = [a[i][i] for i in range(n)]
    return [tuple(row) for row in t], diag


# ---------------------------------------------------------------------------
# integer normal forms

def smith_divisors(m):
    """Diagonal of the Smith normal form as a divisibility chain of ints >= 0."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // piv
            if q:
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // piv
            if q:
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the chain property
        offender = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
             if a[i][j] % piv != 0),
            None,
        )
        if offender is not None:
            i = offender[0]
            for j in range(t, cols):
                a[t][j] += a[i][j]
            continue
        t += 1
    divisors = [abs(a[i][i]) for i in range(min(rows, cols))]
    return tuple(divisors)


def row_kernel_transform(w):
    """Unimodular columns u with w @ u = (g, 0, ..., 0).

    Returns (g, cols) where cols[0] solves w.x = g and cols[1:] span the
    integer kernel of the single row w.
    """
    n = len(w)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    vals = [int(x) for x in w]

    def col_op(dst, src, a, b, c, d):
        # (col_dst, col_src) <- (a*dst + b*src, c*dst + d*src), same for vals
        for i in range(n):
            cols[dst][i], cols[src][i] = (
                a * cols[dst][i] + b * cols[src][i],
                c * cols[dst][i] + d * cols[src][i],
            )
        vals[dst], vals[src] = a * vals[dst] + b * vals[src], c * vals[dst] + d * vals[src]

    for j in range(1, n):
        if vals[j] == 0:
            continue
        if vals[0] == 0:
            col_op(0, j, 0, 1, -1, 0)
            continue
        g, x, y = _xgcd(vals[0], vals[j])
        # new col0 = x*col0 + y*colj ; new colj kills the entry
        a, b = vals[0] // g, vals[j] // g
        col_op(0, j, x, y, -b, a)
    g = vals[0]
    if g < 0:
        g = -g
        cols[0] = [-x for x in cols[0]]
    return g, [tuple(c) for c in cols]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# ---------------------------------------------------------------------------
# positive definite enumeration (Fincke-Pohst style, fully rational)

def floor_sqrt_fraction(f) -> int:
    """floor(sqrt(f)) for a nonnegative Fraction."""
    f = Fraction(f)
    if f < 0:
        raise DegenerateFormError("negative radicand")
    p, q = f.numerator, f.denominator
    return isqrt(p * q) // q


def sqrt_fraction(f):
    """Exact rational square root, or None."""
    f = Fraction(f)
    if f < 0:
        return None
    sp, sq = isqrt(f.numerator), isqrt(f.denominator)
    if sp * sp == f.numerator and sq * sq == f.denominator:
        return Fraction(sp, sq)
    return None


def ldl(q):
    """(D, U) with q = U^T D U, U unit upper triangular; raises if q is not
    positive definite."""
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    d = []
    u = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        piv = a[i][i]
        if piv <= 0:
            raise DegenerateFormError("form is not positive definite")
        d.append(piv)
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / piv
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] -= a[i][r] * a[i][c] / piv
                a[c][r] = a[r][c]
    return d, u


def quadric_integer_points(ldl, centre, radius):
    """All integer y with (y - centre)^T q (y - centre) = radius, where
    ldl = (D, U) factors the positive definite q; walks coordinates from the
    last to the first with exact rational interval bounds."""
    d, u = ldl
    n = len(d)
    if n == 0:
        return [()] if radius == 0 else []
    if radius < 0:
        return []
    out = []
    y = [0] * n

    def descend(i, rem):
        # rem = budget left for terms 0..i
        ci = centre[i] - sum(u[i][j] * (y[j] - centre[j]) for j in range(i + 1, n))
        if i == 0:
            # exact equation d0 (y0 - c0)^2 = rem
            t = sqrt_fraction(rem / d[0])
            if t is None:
                return
            for cand in {ci + t, ci - t}:
                if cand.denominator == 1:
                    y[0] = int(cand)
                    out.append(tuple(y))
            return
        r = floor_sqrt_fraction(rem / d[i])
        lo = int(ci) - r - 1
        hi = int(ci) + r + 1
        for cand in range(lo, hi + 1):
            term = d[i] * (Fraction(cand) - ci) ** 2
            if term <= rem:
                y[i] = cand
                descend(i - 1, rem - term)

    descend(n - 1, radius)
    return sorted(out)
