"""Exact linear algebra backbone, checked against independent oracles
(sympy normal forms, brute-force box enumeration, certificate identities).
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from lorentzroots import linalg
from lorentzroots.errors import DegenerateFormError


def random_int_matrix(rng, n, m, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(n))


def test_smith_divisors_against_sympy():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n)
        ours = [d for d in linalg.smith_divisors(m) if d != 0]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(m)) if x != 0]
        assert ours == theirs


def test_smith_divisors_chain_property():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 4)
        divs = [d for d in linalg.smith_divisors(random_int_matrix(rng, n, n)) if d]
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def test_det_against_sympy():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n)
        assert linalg.det(m) == int(sympy.Matrix(m).det())


def test_signature_certificate():
    # diagonalizing_basis is a congruence certificate for signature()
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n)
        sym = tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n))
        basis, diag = linalg.diagonalizing_basis(sym)
        # certificate: T sym T^T is the claimed diagonal
        t = [[Fraction(x) for x in row] for row in basis]
        prod = linalg.mat_mul(linalg.mat_mul(t, sym), linalg.transpose(t))
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (diag[i] if i == j else 0)
        assert linalg.rank(basis) == n
        pos, neg, zero = linalg.signature(sym)
        assert pos == sum(1 for d in diag if d > 0)
        assert neg == sum(1 for d in diag if d < 0)
        assert zero == sum(1 for d in diag if d == 0)


def test_signature_known_cases():
    assert linalg.signature(((0, -1), (-1, 0))) == (1, 1, 0)
    assert linalg.signature(((2, -2, -2), (-2, 2, -2), (-2, -2, 2))) == (2, 1, 0)
    assert linalg.signature(((1,),)) == (1, 0, 0)
    assert linalg.signature(((0, 0), (0, 0))) == (0, 0, 2)


def test_signature_against_charpoly():
    # eigenvalues of a real symmetric matrix are real, so Descartes' rule
    # counts them exactly: sign changes of p(x) and p(-x), and the order of x
    rng = random.Random(17)
    x = sympy.Symbol("x")
    for _ in range(150):
        n = rng.randint(1, 6)
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.choice([0, 0, rng.randint(-4, 4)])
        if n > 1 and rng.random() < 0.3:      # a repeated row makes it singular
            sym[-1] = list(sym[0])
            for i in range(n):
                sym[i][-1] = sym[i][0]
            sym[-1][-1] = sym[0][0]
        coeffs = sympy.Matrix(sym).charpoly(x).all_coeffs()
        zero = next(i for i, c in enumerate(reversed(coeffs)) if c != 0)

        def changes(cs):
            signs = [c > 0 for c in cs if c != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        neg_coeffs = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
        assert linalg.signature(sym) == (changes(coeffs), changes(neg_coeffs), zero)


def test_diagonalizing_basis_rejects_asymmetric():
    for bad in (((1, 2), (3, 4)), ((0, 1, 0), (1, 0, 0), (0, 5, 1))):
        with pytest.raises(DegenerateFormError):
            linalg.diagonalizing_basis(bad)
        with pytest.raises(DegenerateFormError):
            linalg.signature(bad)


def test_support_connected():
    path = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert linalg.support_connected(path)
    assert not linalg.support_connected(path, (0, 2))
    assert linalg.support_connected(path, (1, 2))
    assert not linalg.support_connected(((2, 0), (0, 2)))
    assert linalg.support_connected(((5,),))


def test_kernel_and_solve():
    rng = random.Random(16)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, n, m)
        for v in linalg.kernel_basis(a, ncols=m):
            assert all(linalg.dot(row, v) == 0 for row in a)
        x = tuple(rng.randint(-3, 3) for _ in range(m))
        b = linalg.mat_vec(a, x)
        sol, _ = linalg.solve(a, b)
        assert sol is not None
        assert linalg.mat_vec(a, sol) == tuple(map(Fraction, b))


def test_row_kernel_transform():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        w = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(x == 0 for x in w):
            continue
        g, cols = linalg.row_kernel_transform(w)
        from math import gcd
        expect = 0
        for x in w:
            expect = gcd(expect, abs(x))
        assert g == expect
        assert linalg.dot(w, cols[0]) == g
        for c in cols[1:]:
            assert linalg.dot(w, c) == 0
        assert abs(linalg.det(linalg.transpose(cols))) == 1


def brute_quadric(q, lin, const, box):
    import itertools

    k = len(q)
    out = []
    for y in itertools.product(range(-box, box + 1), repeat=k):
        val = sum(y[i] * sum(q[i][j] * y[j] for j in range(k)) for i in range(k))
        val += sum(l * c for l, c in zip(lin, y)) + const
        if val == 0:
            out.append(y)
    return sorted(out)


def test_quadric_points_match_bruteforce():
    rng = random.Random(18)
    for _ in range(30):
        k = rng.randint(1, 3)
        a = random_int_matrix(rng, k, k, -2, 2)
        q = tuple(tuple(sum(a[r][i] * a[r][j] for r in range(k)) + (2 if i == j else 0)
                        for j in range(k)) for i in range(k))
        lin = tuple(rng.randint(-4, 4) for _ in range(k))
        const = rng.randint(-20, 4)
        # y^T q y + lin.y + const = (y - s)^T q (y - s) - radius, with 2 q s = -lin
        s, _ = linalg.solve([[2 * x for x in row] for row in q], [-x for x in lin])
        radius = sum(s[i] * q[i][j] * s[j] for i in range(k) for j in range(k)) - const
        pts = linalg.quadric_integer_points(linalg.ldl(q), s, radius)
        assert pts == brute_quadric(q, lin, const, 14)
        assert all(max(abs(c) for c in p) <= 14 for p in pts)


def test_primitive_and_clear_denominators():
    assert linalg.primitive((4, 2, 0)) == (2, 1, 0)
    assert linalg.primitive((-6, -9)) == (-2, -3)
    assert linalg.clear_denominators((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
