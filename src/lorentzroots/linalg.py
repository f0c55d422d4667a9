"""Exact linear algebra over the integers and rationals.

Everything runs on Python ints and fractions.Fraction; there is no
floating point anywhere in this package.  Matrices are tuples of row
tuples, vectors are plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul, sub

from .errors import DegenerateFormError, DimensionError


# ---------------------------------------------------------------------------
# small vector / matrix helpers

def dot(u, v):
    if len(u) != len(v):
        raise DimensionError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


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
    return gcd(*(int(a) for a in v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = content(v)
    if g == 0:
        raise DegenerateFormError("zero vector has no primitive representative")
    return tuple(int(a) // g for a in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector, keeping direction."""
    den = lcm(*(Fraction(a).denominator for a in v))
    return primitive(tuple(int(a * den) for a in v))


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination

def _rref(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each row is first scaled by the lcm of its entries' denominators, which
    keeps its rref.  Returns (m, pivots, d, sign): m = d * rref in ints with
    d > 0, the pivot column list, and for square integer rows of full rank
    sign * d is the determinant.  Every entry stays a minor of the scaled
    rows, so each division is exact.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    d = sign = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
        d = p
        pivots.append(c)
        if r + 1 == len(m):
            break
    if d < 0:
        m = [[-x for x in row] for row in m]
        d, sign = -d, -sign
    return m, pivots, d, sign


def pivots(rows):
    """Pivot columns of the rref: the lexicographically first independent
    columns."""
    return _rref(rows)[1]


def rank(rows) -> int:
    return len(pivots(rows))


def kernel_basis(rows, ncols=None):
    """Basis of {x : rows @ x = 0} as primitive integer vectors."""
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    n = len(rows[0])
    m, pivots, d, _ = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(primitive(v))
    return basis


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent."""
    if len(rhs) != len(rows):
        raise DimensionError(f"{len(rows)} equations, right-hand side of length {len(rhs)}")
    n = len(rows[0])
    m, pivots, d, _ = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:  # pivot in the rhs column
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][n], d)
    return tuple(x)


def inverse(m):
    """Exact inverse of a square rational matrix; raises if singular."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d, _ = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise DegenerateFormError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in red[i][n:]) for i in range(n))


def det(m) -> int:
    """Exact determinant of a square integer matrix."""
    if any(len(row) != len(m) for row in m):
        raise DimensionError(f"det of a non-square matrix, row lengths {[len(r) for r in m]}")
    _, pivots, d, sign = _rref(m)
    return sign * d if len(pivots) == len(m) else 0


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
    if tuple(map(tuple, sym)) != transpose(sym):
        raise DegenerateFormError("matrix is not symmetric")
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
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
    """Diagonal of the Smith normal form as a divisibility chain of ints >= 0.

    A least nonzero entry goes to the corner and reduces its column and row;
    once both are clear it is recorded and the first row and column dropped."""
    a = [list(map(int, row)) for row in m]
    size = min(len(a), len(a[0])) if a else 0
    d = []
    while any(map(any, a)):
        _, bi, bj = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        a[0], a[bi] = a[bi], a[0]
        for row in a:
            row[0], row[bj] = row[bj], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, a[0])]
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            for row in a:
                row[j] -= q * row[0]
        if not any(a[0][1:]) and not any(row[0] for row in a[1:]):
            d.append(abs(p))
            a = [row[1:] for row in a[1:]]
    d += [0] * (size - len(d))
    # each (gcd, lcm) exchange sorts every prime's valuations: a chain, zeros last
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def row_kernel_transform(w):
    """Unimodular columns u with w @ u = (g, 0, ..., 0).

    Returns (g, cols) where cols[0] solves w.x = g and cols[1:] span the
    integer kernel of the single row w.
    """
    n = len(w)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    g = int(w[0])
    for j in range(1, n):
        v = int(w[j])
        if v == 0:
            continue
        h, x, y = _xgcd(g, v)     # _xgcd(0, v) = (v, 0, 1): a signed swap
        # w.col0 becomes x*g + y*v = h, w.colj becomes (g*v - v*g)/h = 0
        a, b = g // h, v // h
        cols[0], cols[j] = ([x * c0 + y * cj for c0, cj in zip(cols[0], cols[j])],
                            [a * cj - b * c0 for c0, cj in zip(cols[0], cols[j])])
        g = h
    if g < 0:
        g, cols[0] = -g, [-x for x in cols[0]]
    return g, [tuple(c) for c in cols]


def lll(rows, gram):
    """LLL-reduce (delta = 3/4) integer rows under the integer form gram.

    The integral LLL of Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7: d[i] is the Gram determinant of the first i rows
    and lam[k][j] = d[j+1] mu_kj, both integers kept up to date by exact
    division.  gram may be indefinite, but it must be positive definite on
    span(rows); a Gram determinant <= 0 raises DegenerateFormError.

    Returns (b, d, lam): b is a unimodular change of the rows, as a list of
    tuples, d = (d_0, ..., d_n) with d_0 = 1 holds the Gram determinants of
    its leading rows, and lam[k] = (lam_k0, ..., lam_k,k-1).  They are an
    integral LDL of the Gram matrix G of b: G = U^T D U with
    D_i = d_{i+1} / d_i and U_jk = lam_kj / d_{j+1} for j < k.
    """
    b = [list(r) for r in rows]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # Gram-Schmidt data of the new row k against rows 0..k
            kmax = k
            gk = mat_vec(gram, b[k])
            for j in range(k + 1):
                u = dot(b[j], gk)
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
            if u <= 0:
                raise DegenerateFormError("form is not positive definite on the span")
            d[k + 1] = u
        if k == 0:
            k = 1
            continue
        red(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            # swap rows k-1 and k; rows below keep exact Gram-Schmidt data
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            nb = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (nb * t + lk * lam[i][k]) // d[k + 1]
            d[k] = nb
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return [tuple(r) for r in b], tuple(d), tuple(tuple(row[:k]) for k, row in enumerate(lam))


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# ---------------------------------------------------------------------------
# positive definite enumeration (Fincke-Pohst descent on Python ints)

def quadric_integer_points(form, centre, radius):
    """All integer y with (y - c)^T q (y - c) = rho, sorted, for a positive
    definite q given by an LDL q = U^T D U (U unit upper triangular) in
    integer form: form = (N, nu, kd) with nu[i] = (N U_i,i+1, ..., N U_i,n-1)
    and kd[i] = K D_i, centre = N c and radius = K N^4 rho.  Every input is
    a Python int, so the caller scales once and each call only descends.

    The left side is sum_i D_i (y_i - t_i)^2 with
    t_i = c_i - sum_{j>i} U_ij (y_j - c_j), so coordinates are walked from
    the last to the first.  Every term of the scaled equation

        sum_i K D_i (N^2 y_i - N^2 t_i)^2 = K N^4 rho

    is an integer: each level takes exactly the y_i with
    |N^2 y_i - N^2 t_i| <= isqrt(budget // (K D_i)), and the first
    coordinate solves its square exactly.  A last slab with no integer in
    it leaves the top level's range empty, so it returns [] (vinberg's
    shell walk makes that test before it asks for a shell).  Levels 1 and
    0 are one loop over y_1, _leaves: a binary form (n == 2, every rank-3
    shell) runs it with no closure and no coordinate lists, and at n >= 3
    it runs under each y_{n-1}, ..., y_2 that a recursive descent fixes.
    """
    nn, nu, kd = form
    n = len(kd)
    if n == 0:
        return [()] if radius == 0 else []
    if radius < 0:
        return []
    n2 = nn * nn
    c = nn * centre[-1]
    r = isqrt(radius // kd[-1])
    if n == 1:
        return sorted({(t // n2,) for t in (c - r, c + r) if t % n2 == 0}) \
            if r * r * kd[0] == radius else []
    out = []
    # N^2 t_0 = c0 - slope y_1 when n == 2; below, less the terms of y_2, ...
    slope, c0 = nn * nu[0][0], nn * centre[0] + nu[0][0] * centre[1]
    if n == 2:
        _leaves(out, (), radius, c, r, n2, kd[0], kd[1], slope, c0)
        return sorted(out)
    y = [0] * n
    z = [0] * n                                                          # N (y_j - c_j)

    def descend(i, rem, c, r):
        # rem = scaled budget left for terms 0..i, c = N^2 t_i, r = isqrt(rem // K D_i)
        for yi in range(-((r - c) // n2), (c + r) // n2 + 1):
            t = n2 * yi - c
            y[i] = yi
            z[i] = nn * yi - centre[i]
            left = rem - kd[i] * t * t
            c1 = nn * centre[i - 1] - sum(map(mul, nu[i - 1], z[i:]))
            if i > 2:
                descend(i - 1, left, c1, isqrt(left // kd[i - 1]))
            else:
                _leaves(out, tuple(y[2:]), left, c1, isqrt(left // kd[1]), n2, kd[0], kd[1],
                        slope, c0 - sum(map(mul, nu[0][1:], z[2:])))

    descend(n - 1, radius, c, r)
    return sorted(out)


def _leaves(out, tail, rem, c, r, n2, k0, k1, slope, c0):
    """Append every (y_0, y_1) + tail of levels 1 and 0 to out: rem is the
    scaled budget left for them, c = N^2 t_1, r = isqrt(rem // K D_1), and
    N^2 t_0 = c0 - slope y_1 is affine in y_1, so a leaf is one floor
    division and an isqrt square test."""
    lo = -((r - c) // n2)
    t, b = n2 * lo - c, c0 - slope * lo
    for y1 in range(lo, (c + r) // n2 + 1):
        left = rem - k1 * t * t
        s = isqrt(left // k0)
        if s * s * k0 == left:
            for t0 in {b + s, b - s}:
                if t0 % n2 == 0:
                    out.append((t0 // n2, y1) + tail)
        t += n2
        b -= slope
