"""Exact linear algebra backbone, checked against independent oracles
(sympy normal forms, brute-force box enumeration, certificate identities).
"""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from lorentzroots import linalg, vinberg
from lorentzroots.errors import DegenerateFormError, DimensionError
from lorentzroots.lattice import Lattice


def random_int_matrix(rng, n, m, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(n))


def test_dot_is_exact_on_fractions_and_checks_lengths():
    u, v = (Fraction(1, 2), 3, Fraction(-2, 3)), (Fraction(4, 5), Fraction(1, 7), 6)
    assert linalg.dot(u, v) == sum(a * b for a, b in zip(u, v)) == Fraction(-111, 35)
    assert type(linalg.dot((2, 3), (4, 5))) is int and linalg.dot((2, 3), (4, 5)) == 23
    assert linalg.dot((), ()) == 0
    for u, v in (((1, 2), (1, 2, 3)), ((), (1,)), ((1, 2, 3), (1,))):
        with pytest.raises(DimensionError, match="length mismatch"):
            linalg.dot(u, v)


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


def test_smith_divisors_rectangular_rank_deficient():
    # rectangular shapes and dependent rows: zeros fill the chain's tail
    rng = random.Random(30)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [list(r) for r in random_int_matrix(rng, rows, cols)]
        for i in range(1, rows):
            if rng.random() < 0.4:      # a combination of the rows above
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                m[i] = [a * x + b * y for x, y in zip(m[rng.randrange(i)], m[0])]
        ours = linalg.smith_divisors(m)
        nonzero = [d for d in ours if d]
        assert len(ours) == min(rows, cols)
        assert ours == tuple(nonzero) + (0,) * (len(ours) - len(nonzero))
        assert nonzero == [abs(int(x)) for x in invariant_factors(sympy.Matrix(m)) if x != 0]


def test_det_against_sympy():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n)
        assert linalg.det(m) == int(sympy.Matrix(m).det())


def test_det_rejects_non_square_matrices():
    for m in (((2, 0, 0), (0, 2, 0)), ((2, 0), (0, 2), (1, 1))):
        with pytest.raises(DimensionError, match="square"):
            linalg.det(m)


def test_signature_certificate():
    # diagonalizing_basis is a congruence certificate for signature()
    rng = random.Random(15)
    for draw in range(90):
        n = rng.randint(1, 4) if draw < 60 else rng.randint(2, 5)
        a = random_int_matrix(rng, n, n)
        sym = tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n))
        if draw >= 60:      # hollow: every diagonal entry 0, so the zero-pivot repair runs
            sym = tuple(tuple(0 if i == j else x for j, x in enumerate(row))
                        for i, row in enumerate(sym))
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
    # the non-square two read (1, 1, 0) and raised IndexError
    for bad in (((1, 2), (3, 4)), ((0, 1, 0), (1, 0, 0), (0, 5, 1)),
                ((1, 2, 3), (2, 1, 0)), ((1, 2), (2, 1), (0, 0))):
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
        sol = linalg.solve(a, b)
        assert sol is not None
        assert linalg.mat_vec(a, sol) == tuple(map(Fraction, b))


def test_solve_rejects_a_right_hand_side_of_another_length():
    # neither an equation nor a right-hand side entry may be dropped
    for rows, rhs in ((((1, 0), (0, 1), (1, 1)), (1, 2)), (linalg.identity(2), (1, 2, 3))):
        with pytest.raises(DimensionError, match=f"{len(rows)} equations, .* length {len(rhs)}"):
            linalg.solve(rows, rhs)


def greedy_independent_rows(rows):
    """Reference for pivots: keep each row that raises the rank of those kept."""
    kept = []
    for i, row in enumerate(rows):
        if linalg.rank([rows[j] for j in kept] + [row]) > len(kept):
            kept.append(i)
    return kept


def test_pivots_match_greedy_rank():
    rng = random.Random(19)
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_int_matrix(rng, n, m, -2, 2)
        if rng.random() < 0.3:      # rank deficient: a row combination, or zero
            a = a[:-1] + (linalg.vec_sub(a[0], a[-1]) if n > 1 else (0,) * m,)
        assert linalg.pivots(linalg.transpose(a)) == greedy_independent_rows(a)
        assert linalg.pivots(a) == greedy_independent_rows(linalg.transpose(a))
    assert linalg.pivots(((0, 0), (0, 0))) == []


def test_elimination_against_sympy():
    # int and rational rows up to 6x7, often with a dependent last row
    rng = random.Random(21)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        a = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3))) for _ in range(m)]
             for _ in range(n)]
        if rng.random() < 0.5:
            a = [[int(6 * x) for x in row] for row in a]
        if n > 1 and rng.random() < 0.4:
            c, e = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            a[-1] = [c * x + e * y for x, y in zip(a[0], a[rng.randrange(n - 1)])]
        sa = sympy.Matrix(a)
        assert linalg.pivots(a) == list(sa.rref()[1])

        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        if rng.random() < 0.5:
            b = list(linalg.mat_vec(a, [rng.randint(-3, 3) for _ in range(m)]))
        x = linalg.solve(a, b)
        try:
            sa.gauss_jordan_solve(sympy.Matrix(b))
        except ValueError:
            assert x is None
        else:
            assert linalg.mat_vec(a, x) == tuple(b)

        k = min(n, m)
        sq = [row[:k] for row in a[:k]]
        ssq = sympy.Matrix(sq)
        if ssq.det() == 0:
            with pytest.raises(DegenerateFormError):
                linalg.inverse(sq)
        else:
            assert sympy.Matrix(linalg.inverse(sq)) == ssq.inv()
        ints = [[int(6 * x) for x in row] for row in sq]
        assert linalg.det(ints) == sympy.Matrix(ints).det()

        ker = linalg.kernel_basis(a, ncols=m)
        null = sa.nullspace()
        assert len(ker) == len(null)
        for v in ker:
            assert all(type(c) is int for c in v) and linalg.content(v) == 1
            assert all(linalg.dot(row, v) == 0 for row in a)
        if ker:
            assert sympy.Matrix([list(v) for v in ker] + [list(w) for w in null]).rank() == len(ker)


def test_lll_data_is_an_ldl_of_the_reduced_gram():
    # lll's integral Gram-Schmidt data factors the Gram matrix of its rows
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, n, -3, 3)
        q = tuple(tuple(sum(a[r][i] * a[r][j] for r in range(n)) + (1 if i == j else 0)
                        for j in range(n)) for i in range(n))
        rows, dets, lam = linalg.lll(linalg.identity(n), q)
        d, u = lll_ldl(dets, lam)
        assert all(x > 0 for x in d)
        dd = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(dd, u)) \
            == linalg.mat_mul(rows, linalg.mat_mul(q, linalg.transpose(rows)))
    for bad in (((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (1, 1)), ((0,),),
                ((2, 0, 0), (0, 0, 0), (0, 0, 3))):
        with pytest.raises(DegenerateFormError):
            linalg.lll(linalg.identity(len(bad)), bad)


def lll_ldl(dets, lam):
    """(D, U) as Fractions from lll's data: D_i = d_{i+1}/d_i, U_jk = lam_kj/d_{j+1}."""
    n = len(lam)
    d = [Fraction(dets[i + 1], dets[i]) for i in range(n)]
    u = [[Fraction(lam[k][j], dets[j + 1]) if j < k else Fraction(int(j == k))
          for k in range(n)] for j in range(n)]
    return d, u


def _reference_row_kernel_transform(w):
    # the column-operation form of row_kernel_transform, recomputing w.col
    n = len(w)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    vals = [int(x) for x in w]

    def col_op(dst, src, a, b, c, d):
        for i in range(n):
            cols[dst][i], cols[src][i] = (a * cols[dst][i] + b * cols[src][i],
                                          c * cols[dst][i] + d * cols[src][i])
        vals[dst], vals[src] = a * vals[dst] + b * vals[src], c * vals[dst] + d * vals[src]

    for j in range(1, n):
        if vals[j] == 0:
            continue
        g, x, y = linalg._xgcd(vals[0], vals[j])
        a, b = vals[0] // g, vals[j] // g
        col_op(0, j, x, y, -b, a)
    g = vals[0]
    if g < 0:
        g = -g
        cols[0] = [-x for x in cols[0]]
    return g, [tuple(c) for c in cols]


def test_row_kernel_transform():
    rng = random.Random(17)
    for trial in range(3000):
        n = rng.randint(1, 7)
        hi = rng.choice([1, 9, 1000, 10 ** 6])
        w = [rng.randint(-hi, hi) if rng.random() < 0.7 else 0 for _ in range(n)]
        if trial % 5 == 0:
            w[0] = 0
        g, cols = linalg.row_kernel_transform(w)
        # the columns seed the LLL of every Vinberg shell basis: pin them exactly
        assert (g, cols) == _reference_row_kernel_transform(w), w
        assert g == gcd(*w)
        assert linalg.dot(w, cols[0]) == g
        for c in cols[1:]:
            assert linalg.dot(w, c) == 0
        assert abs(linalg.det(cols)) == 1, w
    with pytest.raises(IndexError):
        linalg.row_kernel_transform(())


def random_basis(rng, n, m, lo=-20, hi=20):
    while True:
        b = random_int_matrix(rng, n, m, lo, hi)
        if linalg.rank(b) == n:
            return b


def assert_lll_reduced(rows, gram, result):
    """result = (out, d, lam): out is a unimodular change of rows,
    size-reduced (|mu_ij| <= 1/2) and Lovasz at 3/4, and d and lam are its
    Gram determinants and d_{j+1} mu_kj, all by a Fraction Gram-Schmidt on
    the Gram matrix of out."""
    out, d, lam = result
    n = len(rows)
    assert len(out) == n
    coords = [linalg.solve(linalg.transpose(rows), r) for r in out]
    assert all(c is not None and all(x.denominator == 1 for x in c) for c in coords)
    assert abs(linalg.det([[int(x) for x in c] for c in coords])) == 1
    g = [[Fraction(linalg.dot(a, linalg.mat_vec(gram, b))) for b in out] for a in out]
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * bstar[k] for k in range(j))) \
                / bstar[j]
        bstar.append(g[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i)))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    assert all(bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]
               for k in range(1, n))
    dets = [Fraction(1)]
    for b in bstar:
        dets.append(dets[-1] * b)
    assert [type(x) for x in d] == [int] * (n + 1) and list(d) == dets
    assert [len(row) for row in lam] == list(range(n))
    assert all(type(lam[k][j]) is int and lam[k][j] == dets[j + 1] * mu[k][j]
               for k in range(n) for j in range(k))


def test_lll_is_a_reduced_unimodular_change():
    rng = random.Random(21)
    for _ in range(60):
        m = rng.randint(1, 6)
        b = random_basis(rng, rng.randint(1, m), m)
        assert_lll_reduced(b, linalg.identity(m), linalg.lll(b, linalg.identity(m)))
    # indefinite forms, positive definite on h^perp for a timelike h
    for _ in range(40):
        n = rng.randint(2, 7)
        gram = tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(n))
                     for i in range(n))
        h = (rng.randint(3 * n, 60),) + tuple(rng.randint(-3, 3) for _ in range(n - 1))
        _, cols = linalg.row_kernel_transform(linalg.mat_vec(gram, h))
        assert_lll_reduced(cols[1:], gram, linalg.lll(cols[1:], gram))


def test_lll_matches_sympy():
    # identity form: sympy's LLL (delta = 3/4) on the same rows
    rng = random.Random(22)
    for _ in range(60):
        m = rng.randint(1, 6)
        b = random_basis(rng, rng.randint(1, m), m)
        assert [list(r) for r in linalg.lll(b, linalg.identity(m))[0]] \
            == sympy.Matrix(b).lll().tolist()
    # gram = A^T A: reducing b under gram is reducing the rows b A^T
    for _ in range(60):
        m = rng.randint(1, 6)
        a = random_int_matrix(rng, m, m, -5, 5)
        if linalg.det(a) == 0:
            continue
        b = random_basis(rng, rng.randint(1, m), m)
        gram = linalg.mat_mul(linalg.transpose(a), a)
        out = linalg.mat_mul(linalg.lll(b, gram)[0], linalg.transpose(a))
        assert [list(r) for r in out] \
            == sympy.Matrix(linalg.mat_mul(b, linalg.transpose(a))).lll().tolist()


def test_lll_small_ranks_and_degenerate_spans():
    assert linalg.lll([], linalg.identity(3)) == ([], (1,), ())
    assert linalg.lll([(3, -1, 2)], linalg.identity(3)) == ([(3, -1, 2)], (1, 14), ((),))
    assert linalg.lll([(1, 1, 0)], ((1, 0, 0), (0, 1, 0), (0, 0, -1))) \
        == ([(1, 1, 0)], (1, 2), ((),))
    u_plus_2 = ((0, -1, 0), (-1, 0, 0), (0, 0, 2))
    # h = (1,0,0) is isotropic, so the form on h^perp = span((0,0,1), h) is
    # only semidefinite; negative and dependent rows are rejected too
    for rows in ([(0, 0, 1), (1, 0, 0)], [(1, 0, 0), (0, 0, 1)], [(1, 1, 0)],
                 [(0, 0, 1), (1, 1, 0)], [(0, 0, 1), (0, 0, 2)], [(0, 0, 0)]):
        with pytest.raises(DegenerateFormError):
            linalg.lll(rows, u_plus_2)


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


def integer_form(d, u, centre, radius):
    """The arguments of quadric_integer_points for the rational LDL (D, U),
    centre c and radius rho: N and K are the lcm of the denominators of U
    and c, and of D and N^4 rho."""
    n = len(d)
    nn = lcm(*(Fraction(x).denominator for x in centre),
             *(Fraction(u[i][j]).denominator for i in range(n) for j in range(i + 1, n)))
    k = lcm(Fraction(nn ** 4 * radius).denominator, *(Fraction(x).denominator for x in d))
    scaled = [nn * u[i][j] for i in range(n) for j in range(i + 1, n)] \
        + [k * x for x in d] + [nn * x for x in centre] + [k * nn ** 4 * radius]
    assert all(Fraction(x).denominator == 1 for x in scaled)
    form = (nn, [[int(nn * u[i][j]) for j in range(i + 1, n)] for i in range(n)],
            [int(k * x) for x in d])
    return form, [int(nn * x) for x in centre], int(k * nn ** 4 * radius)


def fraction_ldl(q):
    """(D, U) with q = U^T D U, U unit upper triangular, by Fraction elimination."""
    n = len(q)
    d = []
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        d.append(Fraction(q[i][i]) - sum(d[k] * u[k][i] ** 2 for k in range(i)))
        for j in range(i + 1, n):
            u[i][j] = (Fraction(q[i][j]) - sum(d[k] * u[k][i] * u[k][j] for k in range(i))) \
                / d[i]
    return d, u


def test_quadric_points_match_bruteforce():
    # the whole chain: lll's LDL in the reduced basis, scaled to ints
    rng = random.Random(18)
    for _ in range(30):
        k = rng.randint(1, 3)
        a = random_int_matrix(rng, k, k, -2, 2)
        q = tuple(tuple(sum(a[r][i] * a[r][j] for r in range(k)) + (2 if i == j else 0)
                        for j in range(k)) for i in range(k))
        lin = tuple(rng.randint(-4, 4) for _ in range(k))
        const = rng.randint(-20, 4)
        # y^T q y + lin.y + const = (y - s)^T q (y - s) - radius, with 2 q s = -lin
        s = linalg.solve([[2 * x for x in row] for row in q], [-x for x in lin])
        radius = sum(s[i] * q[i][j] * s[j] for i in range(k) for j in range(k)) - const
        rows, dets, lam = linalg.lll(linalg.identity(k), q)
        back = linalg.transpose(rows)           # y = back . w for w in the lll basis
        d, u = lll_ldl(dets, lam)
        pts = linalg.quadric_integer_points(*integer_form(d, u, linalg.solve(back, s), radius))
        pts = sorted(linalg.mat_vec(back, w) for w in pts)
        assert pts == brute_quadric(q, lin, const, 14)
        assert all(max(abs(c) for c in p) <= 14 for p in pts)


def fraction_quadric_points(ldl, centre, radius):
    """The descent on Fractions with a slack of one step at each end: the
    reference for the integer descent of quadric_integer_points."""
    d, u = ldl
    n = len(d)
    if n == 0:
        return [()] if radius == 0 else []
    if radius < 0:
        return []
    out = []
    y = [0] * n

    def descend(i, rem):
        ci = centre[i] - sum(u[i][j] * (y[j] - centre[j]) for j in range(i + 1, n))
        f = Fraction(rem) / d[i]
        if i == 0:
            sp, sq = isqrt(f.numerator), isqrt(f.denominator)
            if sp * sp != f.numerator or sq * sq != f.denominator:
                return
            for cand in {ci + Fraction(sp, sq), ci - Fraction(sp, sq)}:
                if cand.denominator == 1:
                    y[0] = int(cand)
                    out.append(tuple(y))
            return
        r = isqrt(f.numerator * f.denominator) // f.denominator
        for cand in range(int(ci) - r - 1, int(ci) + r + 2):
            term = d[i] * (Fraction(cand) - ci) ** 2
            if term <= rem:
                y[i] = cand
                descend(i - 1, rem - term)

    descend(n - 1, radius)
    return sorted(out)


def test_integer_descent_matches_fraction_descent():
    rng = random.Random(21)
    nonempty = 0
    for case in range(1200):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n, -2, 2)
        e = [rng.randint(1, 3) for _ in range(n)]
        den = rng.choice((1, 1, 2, 3, 5))
        q = tuple(tuple(Fraction(sum(a[r][i] * a[r][j] for r in range(n))
                                 + (e[i] if i == j else 0), den)
                        for j in range(n)) for i in range(n))
        centre = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 7)))
                       for _ in range(n))
        if case % 2:
            # the value at an integer point near the centre: never empty
            p = tuple(round(c) + rng.randint(-1, 1) for c in centre)
            v = linalg.vec_sub(p, centre)
            radius = sum(v[i] * q[i][j] * v[j] for i in range(n) for j in range(n))
        else:
            radius = Fraction(rng.randint(0, 24), rng.choice((1, 2, 3, 5, 9)))
        f = fraction_ldl(q)
        got = linalg.quadric_integer_points(*integer_form(*f, centre, radius))
        assert got == fraction_quadric_points(f, centre, radius), (q, centre, radius)
        nonempty += bool(got)
    assert nonempty > 600
    # radius 0, negative radius and the empty form
    f = fraction_ldl(((2, 1), (1, 2)))
    assert linalg.quadric_integer_points(*integer_form(*f, (3, -1), 0)) == [(3, -1)]
    assert linalg.quadric_integer_points(*integer_form(*f, (Fraction(1, 2), 0), 0)) == []
    assert linalg.quadric_integer_points(*integer_form(*f, (0, 0), -1)) == []
    assert linalg.quadric_integer_points(*integer_form(*f, (0, 0), Fraction(-1, 3))) == []
    assert linalg.quadric_integer_points((1, [], []), [], 0) == [()]
    assert linalg.quadric_integer_points((1, [], []), [], 1) == []
    assert linalg.quadric_integer_points((1, [], []), [], -1) == []


def scaled_ldl(form, centre, radius):
    """The rational (LDL, centre, radius) of integer-form arguments.  The
    equation is homogeneous in K, so it may stay: D_i = kd[i] and
    rho = radius / N^4."""
    nn, nu, kd = form
    n = len(kd)
    u = [[Fraction(nu[i][j - i - 1], nn) if j > i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    return (list(kd), u), [Fraction(x, nn) for x in centre], Fraction(radius, nn ** 4)


def last_slab(form, centre, radius):
    """The first and last integer y_{n-1} allowed by the last level."""
    nn, nu, kd = form
    c, r = nn * centre[-1], isqrt(radius // kd[-1])
    return -((r - c) // (nn * nn)), (c + r) // (nn * nn)


def test_vinberg_shells_match_fraction_descent(monkeypatch):
    # the big ints of real shells: I_{5,1} to its certificate and U+<22>
    # for five walls, every call checked against the Fraction descent.  The
    # walk skips the admissible pairings whose last slab holds no integer:
    # each of them, up to the last pairing the run reached, is passed to the
    # descent too, and must be empty in both
    seen, walks = [], []
    quadric, shells = linalg.quadric_integer_points, vinberg.shells

    def spy(form, centre, radius):
        seen.append((form, tuple(centre), radius))
        return quadric(form, centre, radius)

    def spy_shells(lattice, h):
        roots, walk = shells(lattice, h)
        g = linalg.content(linalg.mat_vec(lattice.gram, h))

        def spy_walk(d, big, bound):
            ms = []
            walks.append((roots, d, lcm(g, d // gcd(d, 2)), ms))
            for shell in walk(d, big, bound):
                ms.append(shell[2])
                yield shell
        return roots, spy_walk

    monkeypatch.setattr(linalg, "quadric_integer_points", spy)
    monkeypatch.setattr(vinberg, "shells", spy_shells)
    i51 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(6))
                             for i in range(6)))
    rep = vinberg.run(i51, (400, 5, 4, 3, 2, 1), vinberg.RootFilter(norms=frozenset({1, 2})),
                      max_key=vinberg.HeightKey(10 ** 7, 1))
    assert rep.terminated and len(rep.accepted) == 6
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    rep = vinberg.run(u22, (22, 30, -1), vinberg.RootFilter(norms=frozenset({2})),
                      max_key=vinberg.HeightKey(4 * 10 ** 6, 1), max_roots=5)
    assert len(rep.accepted) == 5
    descended = len(seen)
    for roots, d, step, ms in walks:
        for m in sorted(set(range(0, ms[-1], step)) - set(ms)):
            assert roots(d, m) == []
    monkeypatch.undo()
    skipped, nonempty = seen[descended:], 0
    for i, args in enumerate(seen):
        got = linalg.quadric_integer_points(*args)
        assert got == fraction_quadric_points(*scaled_ldl(*args)), args
        lo, hi = last_slab(*args)
        assert (lo > hi) == (i >= descended), args
        nonempty += bool(got)
    assert {len(form[2]) for form, _, _ in seen[:descended]} == {2, 5}
    assert {len(form[2]) for form, _, _ in skipped} == {2, 5}
    assert nonempty > 0


def test_quadric_points_edge_cases():
    def check(q, centre, radius):
        f = fraction_ldl(q)
        got = linalg.quadric_integer_points(*integer_form(*f, centre, radius))
        assert got == fraction_quadric_points(f, centre, radius)
        return got

    # rank 1 and rank 2 with radius 0: the centre itself, if it is integral
    assert check(((3,),), (Fraction(-7),), 0) == [(-7,)]
    assert check(((3,),), (Fraction(1, 2),), 0) == []
    assert check(((2, 1), (1, 3)), (Fraction(2), Fraction(-5)), 0) == [(2, -5)]
    assert check(((2, 1), (1, 3)), (Fraction(2), Fraction(1, 3)), 0) == []
    # a slab that holds exactly one integer: |y_1 - 1/3| <= 1/3 holds only 0
    q, centre, radius = ((4, 0), (0, 4)), (0, Fraction(1, 3)), Fraction(4, 9)
    assert check(q, centre, radius) == [(0, 0)]
    assert last_slab(*integer_form(*fraction_ldl(q), centre, radius)) == (0, 0)
    # a fractional centre whose slab is empty: |y_0 - 1/2| <= 1/3 on rank 1,
    # |y_1 - 1/2| <= 1/3 on rank 2 and |y_2 - 1/2| <= 1/3 on rank 3, where
    # the top level's range is empty
    for q, centre in ((((9,),), (Fraction(1, 2),)), (((5, 0), (0, 9)), (0, Fraction(1, 2))),
                      (((5, 0, 0), (0, 5, 0), (0, 0, 9)), (0, 0, Fraction(1, 2)))):
        lo, hi = last_slab(*integer_form(*fraction_ldl(q), centre, 1))
        assert lo > hi
        assert check(q, centre, 1) == []
    # the first and last y_1 of the level-1 range, -3 and 0, both give
    # points, so the level-0 centre, affine in y_1, is right at both ends
    q, centre, radius = ((2, 1), (1, 2)), (Fraction(-3, 2), Fraction(-3, 2)), Fraction(13, 2)
    assert check(q, centre, radius) == [(-3, -2), (-2, -3), (-1, 0), (0, -1)]
    args = integer_form(*fraction_ldl(q), centre, radius)
    assert args[0][1][0][0] != 0 and last_slab(*args) == (-3, 0)


def test_primitive_and_clear_denominators():
    assert linalg.primitive((4, 2, 0)) == (2, 1, 0)
    assert linalg.primitive((-6, -9)) == (-2, -3)
    with pytest.raises(DegenerateFormError):
        linalg.primitive((0, 0))
    assert linalg.clear_denominators((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
