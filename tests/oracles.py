"""Rational reference routines that the package replaced by integer ones.

`diagonalizing_basis`, `inverse` and `clear_denominators` are the Fraction
congruence diagonalization, inverse and denominator clearing that
`linalg.congruence_pivots`, `linalg.adjugate` and `lattice.vector_of_sign`
are checked against.
"""

from fractions import Fraction
from math import lcm

from lorentzroots import linalg
from lorentzroots.errors import DegenerateFormError
from lorentzroots.lattice import gram_matrix


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector, keeping direction."""
    den = lcm(*(Fraction(a).denominator for a in v))
    return linalg.primitive(tuple(int(a * den) for a in v))


def inverse(m):
    """Exact inverse of a square rational matrix; raises if singular."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d, _ = linalg._rref(aug)
    if pivots[:n] != list(range(n)):
        raise DegenerateFormError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in red[i][n:]) for i in range(n))


def diagonalizing_basis(sym):
    """Rows t_i with t_i sym t_j^T diagonal; returns (basis rows, diagonal).

    Congruence diagonalization with rational pivots; a zero diagonal is
    repaired with the standard add-row-and-column trick, so no square
    roots are ever needed.
    """
    if tuple(map(tuple, sym)) != linalg.transpose(sym):
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


def vector_of_sign(lattice, sign, basis):
    """lattice.vector_of_sign by the rational route: the first diagonal entry
    of that sign of diagonalizing_basis, pulled back and cleared."""
    rows, diag = diagonalizing_basis(gram_matrix(lattice, basis))
    for row, d in zip(rows, diag):
        if d * sign > 0:
            return clear_denominators(linalg.mat_vec(linalg.transpose(basis), row))
    return None

