"""Cartan data, Weyl-group combinatorics and the denominator identity,
cross-checked against from-scratch oracles (descent decision for real
roots, matrix action on the Weyl vector for the signed sum, naive
polynomial expansion for the product side)."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy.functions.combinatorial.numbers import partition

from ex134_data import CUSP, F01, F02
from lorentzroots import cones, kacmoody as km, linalg, weylstruct as ws
from lorentzroots.errors import (DenominatorMismatchError, DimensionError, DomainError,
                                 NonObtusePairError)
from lorentzroots.lattice import Lattice, norm


PHI_D1 = (1, 2, 6)


def simple_reflection_on_tuple(gcm, j, coeffs):
    """s_j acting on simple-root coordinates: c_j -> c_j - sum_i a_{ji} c_i."""
    out = list(coeffs)
    out[j] -= linalg.dot(gcm.a[j], coeffs)
    return tuple(out)


def exponent_involution(gcm, j, exponent):
    """Left multiplication by s_j on Weyl exponents: e -> e_j + s_j(e)."""
    out = list(simple_reflection_on_tuple(gcm, j, exponent))
    out[j] += 1
    return tuple(out)


@pytest.fixture(scope="module")
def datum(ex134, triangle):
    return km.root_datum(ex134, triangle)


def test_cartan_triangle(ex134, triangle):
    gcm = km.cartan(ex134, triangle)
    assert gcm.a == ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))
    assert gcm.b == gcm.a
    assert gcm.d == (Fraction(1), Fraction(1), Fraction(1))
    # A = D B exactly
    for i in range(3):
        for j in range(3):
            assert gcm.a[i][j] == gcm.d[i] * gcm.b[i][j]


def test_cartan_norm8_family(ex134):
    gcm = km.cartan(ex134, [F01, F02, PHI_D1])
    assert gcm.a[0][1] == -2                       # 2*(-8)/8
    assert gcm.d[0] == Fraction(1, 4)
    assert gcm.b[0][1] == -8
    assert linalg.signature(gcm.b) == (2, 1, 0)


def test_cartan_disconnected_rejected():
    lat = Lattice(gram=((2, 0, 0), (0, 2, 0), (0, 0, -2)))
    with pytest.raises(DomainError):
        km.cartan(lat, [(1, 0, 0), (0, 1, 0)])


def test_cartan_orthogonal_pair_zeros(u_plus_2):
    # connected spanning system containing an orthogonal pair
    gcm = km.cartan(u_plus_2, [(-1, 0, -1), (1, -1, 0), (0, 0, 1)])
    for i in range(3):
        for j in range(3):
            assert (gcm.a[i][j] == 0) == (gcm.a[j][i] == 0)
    assert any(gcm.a[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_cartan_rejects_obtuse(ex134):
    with pytest.raises(NonObtusePairError):
        km.cartan(ex134, [(1, 0, 0), (2, 1, 0)])


def _descent_is_real_root(gcm, t):
    """Independent oracle: positive real roots descend to a simple root."""
    k = len(gcm.a)
    t = tuple(t)
    seen = set()
    while True:
        if sum(t) == 1 and max(t) == 1:
            return True
        if t in seen:
            return False
        seen.add(t)
        drops = []
        for j in range(k):
            img = simple_reflection_on_tuple(gcm, j, t)
            if sum(img) < sum(t):
                drops.append(img)
        ok = [d for d in drops if min(d) >= 0]
        if not ok:
            return False
        t = min(ok)


def test_real_roots_match_descent_oracle(datum):
    n = 6
    got = set(km.real_root_tuples(datum, n))
    for t in itertools.product(range(n + 1), repeat=3):
        if not any(t) or sum(t) > n:
            continue
        assert (t in got) == _descent_is_real_root(datum.cartan, t), t


def test_real_roots_heights_and_norms(datum, ex134):
    rr = [(km.tuple_to_vector(datum, t), sum(t)) for t in km.real_root_tuples(datum, 5)]
    simples = {v for v, h in rr if h == 1}
    assert simples == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert ((2, 1, 0), 3) in rr          # s_{d1}(d2) at height 3
    simple_norms = {norm(ex134, r) for r in datum.simple_roots}
    for v, h in rr:
        assert norm(ex134, v) in simple_norms


def test_weyl_elements_small(datum):
    sums = km.weyl_elements(datum, 4)
    by_word = {w: (e, s) for w, e, s in _matrix_bfs_weyl_elements(datum, 4)}
    assert by_word[()] == ((0, 0, 0), 1)
    for i in range(3):
        assert by_word[(i,)] == (tuple(1 if j == i else 0 for j in range(3)), -1)
    assert by_word[(0, 1)] == ((3, 1, 0), 1)
    assert sums == dict(by_word.values())
    assert [e for e in sums if sum(e) == 0] == [(0, 0, 0)]


def _word_matrix(lattice, datum, word):
    """Lattice matrix of a Weyl word, the leftmost letter applied last."""
    from lorentzroots.lattice import reflection

    mat = linalg.identity(lattice.rank)
    for j in word:
        mat = linalg.mat_mul(mat, reflection(lattice, datum.simple_roots[j]))
    return mat


def test_weyl_elements_matrix_word_consistency(datum, ex134):
    rho = (Fraction(1, 2),) * 3
    words = _matrix_bfs_weyl_elements(datum, 5)
    assert list(km.weyl_elements(datum, 5).items()) == [(e, s) for _, e, s in words]
    mats = []
    for word, exponent, sign in words:
        mat = _word_matrix(ex134, datum, word)
        mats.append(mat)
        assert sign == (-1) ** len(word)
        assert linalg.det(mat) == sign  # reflections have det -1
        # exponent agrees with the matrix action on the Weyl vector
        moved = linalg.mat_vec(mat, rho)
        diff = tuple(a - b for a, b in zip(moved, rho))
        lifted = km.tuple_to_vector(datum, exponent)
        assert tuple(map(Fraction, lifted)) == diff
    assert len(set(mats)) == len(mats)   # distinct group elements


def _matrix_bfs_weyl_elements(datum, height_bound):
    """Reference: breadth-first search over all reflection-matrix words up
    to length N, deduplicated by matrix and filtered by exponent height at
    the end, as (word, exponent, sign) triples."""
    from lorentzroots.lattice import reflection

    k = len(datum.simple_roots)
    refl = [reflection(datum.lattice, r) for r in datum.simple_roots]
    ident = linalg.identity(datum.lattice.rank)
    elements = [((), ident, (0,) * k, 1)]
    seen = {ident}
    frontier = elements[:]
    for _ in range(height_bound):
        nxt = []
        for word, mat, exp, sign in frontier:
            for j in range(k):
                new = linalg.mat_mul(refl[j], mat)
                if new in seen:
                    continue
                seen.add(new)
                nxt.append(((j,) + word, new, exponent_involution(datum.cartan, j, exp),
                            -sign))
        frontier = nxt
        elements.extend(nxt)
    return [(w, e, s) for w, _, e, s in elements if sum(e) <= height_bound]


I41_WALLS = ((0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 0, 0, -1),
             (1, 1, 1, 1, 0))


def test_weyl_elements_match_matrix_bfs(datum):
    i41 = Lattice(gram=tuple(tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(5))
                             for i in range(5)), name="I41")
    for d in (datum, km.root_datum(i41, I41_WALLS)):
        for n in range(-2, 11):
            got = km.weyl_elements(d, n)
            assert list(got.items()) == [(e, s) for _, e, s in _matrix_bfs_weyl_elements(d, n)]
            assert (got == {}) == (n < 0)


def test_weyl_elements_prefix_stability(datum):
    small = km.weyl_elements(datum, 3)
    big = km.weyl_elements(datum, 5)
    assert list(big.items())[:len(small)] == list(small.items())
    words = [w for w, _, _ in _matrix_bfs_weyl_elements(datum, 5)]
    assert words[:len(small)] == [w for w, _, _ in _matrix_bfs_weyl_elements(datum, 3)]


def test_sum_side(datum):
    series = km.sum_side(datum, 6)
    zero = (0, 0, 0)
    assert series.get(zero) == 1
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert series.get(e) == -1
    # deterministic recomputation
    again = km.sum_side(datum, 6)
    assert series.coeffs == again.coeffs
    # the solve returns the sum it balanced
    assert km.solve_multiplicities(datum, 6).sum_side.coeffs == series.coeffs


def _matrix_action_sum_side(datum, n):
    """Oracle: enumerate group elements by matrices, exponent via the action
    on the lattice Weyl vector, fully independent of inversion bookkeeping."""
    from lorentzroots.lattice import reflection

    lat = datum.lattice
    rho = datum.weyl_data.rho
    rank = lat.rank
    refl = [reflection(lat, r) for r in datum.simple_roots]
    basis_cols = linalg.transpose(datum.simple_roots)
    seen = {linalg.identity(rank): 1}
    frontier = [linalg.identity(rank)]
    coeffs = {}
    while frontier:
        nxt = []
        for mat in frontier:
            sign = seen[mat]
            moved = linalg.mat_vec(mat, rho)
            diff = tuple(a - b for a, b in zip(moved, rho))
            sol = linalg.solve(basis_cols, diff)
            assert all(c.denominator == 1 for c in sol)
            key = tuple(int(c) for c in sol)
            if sum(key) <= n:
                coeffs[key] = coeffs.get(key, 0) + sign
                for r in refl:
                    new = linalg.mat_mul(r, mat)
                    if new not in seen:
                        seen[new] = -sign
                        nxt.append(new)
        frontier = nxt
    return {k: v for k, v in coeffs.items() if v}


def test_sum_side_against_matrix_oracle(datum):
    series = km.sum_side(datum, 6)
    assert series.coeffs == _matrix_action_sum_side(datum, 6)


def _naive_expand_product(mults, n, nvars):
    """Oracle: expand prod (1 - x^t)^{m_t} with plain dict polynomials."""
    def mul(p, q):
        out = {}
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                if sum(k) <= n:
                    out[k] = out.get(k, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    from math import comb

    prod = {tuple(0 for _ in range(nvars)): 1}
    for t, m in sorted(mults.items()):
        if m == 0:
            continue
        h = sum(t)
        factor = {}
        copies = n // h
        if m > 0:
            for j in range(min(m, copies) + 1):
                factor[tuple(j * x for x in t)] = (-1) ** j * comb(m, j)
        else:
            for j in range(copies + 1):
                factor[tuple(j * x for x in t)] = comb(-m + j - 1, j)
        prod = mul(prod, factor)
    return prod


def test_solve_multiplicities_triangle(datum, ex134):
    res = km.solve_multiplicities(datum, 6)
    assert res.residual_zero
    # every real root has multiplicity one
    for t in km.real_root_tuples(datum, 6):
        assert res.mults[t] == 1
    # frozen spot values computed by the independent expansion oracle
    assert res.mults[(1, 1, 0)] == 1          # the cusp direction
    assert res.mults[(2, 2, 0)] == 1          # twice the cusp
    assert res.mults[(1, 1, 1)] == 2
    assert res.mults[(2, 1, 1)] == 3
    assert res.mults[(2, 2, 2)] == 14
    # the full identity, re-expanded from scratch
    expanded = _naive_expand_product(res.mults, 6, 3)
    assert expanded == _matrix_action_sum_side(datum, 6)


def test_solve_multiplicities_norm8_family(ex134):
    # the twisted wall system has a genuinely non-symmetric Cartan matrix
    # (symmetrizers 1/4, 1/4, 1) and an isotropic Weyl vector c/4
    datum8 = km.root_datum(ex134, [F01, F02, PHI_D1])
    assert datum8.weyl_data.kind == "parabolic-type"
    res = km.solve_multiplicities(datum8, 4)
    assert res.residual_zero
    for t in km.real_root_tuples(datum8, 4):
        assert res.mults[t] == 1
    assert res.mults[(1, 1, 0)] == 1      # isotropic wall sum F01 + F02
    assert km.tuple_norm(datum8.cartan, (1, 1, 0)) == 0
    assert _naive_expand_product(res.mults, 4, 3) == _matrix_action_sum_side(datum8, 4)
    assert km.anti_invariance_check(datum8, 4)


def _ff_datum():
    """The Feingold-Frenkel Cartan matrix, affine A1 plus a node on its second
    vertex, as its own lattice."""
    ff = Lattice(gram=((2, -2, 0), (-2, 2, -1), (0, -1, 2)))
    return km.root_datum(ff, linalg.identity(3))


def test_solve_multiplicities_level_one_of_the_feingold_frenkel_algebra():
    # a root of level 1 (third coordinate 1) has multiplicity p(1 - (a|a)/2)
    # (Feingold & Frenkel 1983)
    datum = _ff_datum()
    res = km.solve_multiplicities(datum, 40)
    assert len(res.mults) == 1380
    level1 = {t: m for t, m in res.mults.items() if t[2] == 1}
    assert len(level1) == 122
    for t, m in level1.items():
        assert m == partition(1 - km.tuple_norm(datum.cartan, t) // 2), t


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _peterson_mults(datum, height_bound):
    """Root multiplicities from Peterson's recursion, with no Weyl sum:
    (b|b - 2 rho) c_b = sum_{b' + b'' = b} (b'|b'') c_b' c_b'' over ordered
    pairs in Q+, where c_b = sum_{k >= 1} mult(b/k)/k and (rho|a_i) = (a_i|a_i)/2
    (Kac, Infinite-dimensional Lie algebras, Exercise 11.11).  c vanishes off
    the multiples of the roots, which lie among the real roots and the
    imaginary candidates.  Where (b|b) > 0 the factor b|b - 2 rho may vanish,
    so c_b is set directly: 1/k on k times a real root, else 0; where
    (b|b) <= 0 it is (b|b) - sum b_i (a_i|a_i) < 0.  mult comes back by
    Moebius inversion, mult(b) = sum_{k | b} mu(k) c_{b/k} / k."""
    b = datum.cartan.b
    form = lambda x, y: sum(xi * linalg.dot(row, y) for xi, row in zip(x, b))  # noqa: E731
    reals = set(km.real_root_tuples(datum, height_bound))
    roots = reals | set(km.imaginary_candidate_tuples(datum, height_bound))
    support = sorted({tuple(k * x for x in t) for t in roots
                      for k in range(1, height_bound // sum(t) + 1)}, key=lambda t: (sum(t), t))
    c = {}
    for beta in support:
        if form(beta, beta) > 0:
            k = gcd(*beta)
            c[beta] = Fraction(1, k) if tuple(x // k for x in beta) in reals else 0
            continue
        rhs = 0
        for lower in c:          # c is filled in height order
            if sum(lower) >= sum(beta):
                break
            rest = tuple(x - y for x, y in zip(beta, lower))
            if rest in c:
                rhs += form(lower, rest) * c[lower] * c[rest]
        c[beta] = rhs / (form(beta, beta) - sum(x * b[i][i] for i, x in enumerate(beta)))
    mults = {}
    for beta in support:
        g = gcd(*beta)
        m = sum(Fraction(_mobius(k), k) * c.get(tuple(x // k for x in beta), 0)
                for k in range(1, g + 1) if g % k == 0)
        if m:
            assert m.denominator == 1, beta
            mults[beta] = int(m)
    return mults


def _e10_datum():
    """The T_{2,3,7} (E10) Cartan matrix as its own lattice, II_{9,1}."""
    edges = {(i, i + 1) for i in range(8)} | {(2, 9)}
    e10 = [[2 * (i == j) - ((i, j) in edges or (j, i) in edges) for j in range(10)]
           for i in range(10)]
    return km.root_datum(Lattice(gram=e10), linalg.identity(10))


def test_solve_multiplicities_equals_peterson_recursion(datum):
    for d, height, count in ((_ff_datum(), 30, 626), (datum, 16, 497), (_i41_datum(), 11, 76),
                             (_e10_datum(), 15, 154)):
        mults = km.solve_multiplicities(d, height).mults
        assert len(mults) == count
        assert _peterson_mults(d, height) == mults


def _all_steps_closure(gcm, base, height_bound):
    """Reference: closure of nonnegative tuples under every simple
    reflection, rising or not, keeping the images that stay nonnegative and
    inside the height bound; sorted by (height, tuple)."""
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


def _check_rising_walk(d, height):
    gcm = d.cartan
    simple = linalg.identity(len(gcm.a)) if height > 0 else ()
    assert km.real_root_tuples(d, height) == _all_steps_closure(gcm, simple, height)
    k_cone = cones.k_element_tuples(gcm.b, height)
    assert km.imaginary_candidate_tuples(d, height) == _all_steps_closure(gcm, k_cone, height)


def test_rising_walk_equals_the_all_steps_closure(datum):
    for d, height in ((_ff_datum(), 40), (datum, 32), (_i41_datum(), 11), (_e10_datum(), 20)):
        _check_rising_walk(d, height)


def _random_datum(data):
    """A symmetric generalized Cartan matrix of rank 3 or 4, off-diagonal
    entries in {0, -1, -2, -3}, with no lattice behind it."""
    k = data.draw(st.integers(3, 4))
    a = [[2] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        a[i][j] = a[j][i] = data.draw(st.sampled_from((0, -1, -2, -3)))
    a = tuple(map(tuple, a))
    gcm = km.GeneralizedCartanMatrix(a=a, d=(Fraction(1),) * k, b=a)
    return km.RootDatum(lattice=None, simple_roots=linalg.identity(k), cartan=gcm,
                        weyl_data=None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rising_walk_equals_the_all_steps_closure_on_random_cartan_matrices(data):
    _check_rising_walk(_random_datum(data), data.draw(st.integers(0, 12)))


def _q_plus(nvars, height_bound):
    """Every nonzero nonnegative tuple of height <= N, by stars and bars."""
    for h in range(1, height_bound + 1):
        for bars in itertools.combinations(range(h + nvars - 1), nvars - 1):
            yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (h + nvars - 1,)))


def test_imaginary_support_follows_kacs_hyperbolic_criterion(datum):
    # for a hyperbolic Cartan matrix (every proper connected subdiagram finite
    # or affine) the positive imaginary roots are the a in Q+ with (a|a) <= 0
    # (Kac, Infinite-dimensional Lie algebras, 5.10)
    for d, height, count in ((_ff_datum(), 40, 1269), (datum, 24, 1442), (_i41_datum(), 11, 8)):
        want = {a for a in _q_plus(len(d.simple_roots), height)
                if km.tuple_norm(d.cartan, a) <= 0}
        assert len(want) == count
        candidates = km.imaginary_candidate_tuples(d, height)
        assert len(candidates) == count and set(candidates) == want
        mults = km.solve_multiplicities(d, height).mults
        assert {t for t in mults if km.tuple_norm(d.cartan, t) <= 0} == want


def test_solve_multiplicities_mismatch_reports_first_exponent(datum, monkeypatch):
    # withholding all imaginary candidates makes the identity unbalanceable;
    # the first failing exponent is the cusp direction at height 2
    monkeypatch.setattr(km, "imaginary_candidate_tuples", lambda d, n: [])
    with pytest.raises(DenominatorMismatchError) as err:
        km.solve_multiplicities(datum, 4)
    assert sum(err.value.exponent) == 2
    assert err.value.lhs != err.value.rhs


def _i41_datum():
    i41 = Lattice(gram=tuple(tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(5))
                             for i in range(5)), name="I41")
    return km.root_datum(i41, I41_WALLS)


def test_solve_multiplicities_mismatch_triple_matches_oracle(datum, ex134, monkeypatch):
    # with no imaginary candidates the product is the real roots at
    # multiplicity one; the error is its first difference from the Weyl sum
    monkeypatch.setattr(km, "imaginary_candidate_tuples", lambda d, n: [])
    raised = 0
    for d, heights in ((datum, range(2, 7)),
                       (km.root_datum(ex134, [F01, F02, PHI_D1]), range(2, 6)),
                       (_i41_datum(), range(2, 8))):
        nvars = len(d.simple_roots)
        for n in heights:
            reals = {t: 1 for t in km.real_root_tuples(d, n)}
            prod = _naive_expand_product(reals, n, nvars)
            weyl = _matrix_action_sum_side(d, n)
            diffs = sorted((k for k in set(prod) | set(weyl) if prod.get(k, 0) != weyl.get(k, 0)),
                           key=lambda k: (sum(k), k))
            if not diffs:       # no imaginary root up to height n
                assert km.solve_multiplicities(d, n).mults == reals
                continue
            with pytest.raises(DenominatorMismatchError) as err:
                km.solve_multiplicities(d, n)
            first = diffs[0]
            got = (err.value.exponent, err.value.lhs, err.value.rhs)
            assert got == (first, prod.get(first, 0), weyl.get(first, 0)), n
            raised += 1
    assert raised == 11, raised


def test_solve_multiplicities_reproduce_weyl_sum_at_every_height(datum, ex134):
    # the product of the returned multiplicities is the Weyl sum, and the
    # keys are the reals at multiplicity one then the nonzero unknowns, each
    # run in (height, tuple) order
    by_height = lambda t: (sum(t), t)  # noqa: E731
    for d, top in ((datum, 8), (km.root_datum(ex134, [F01, F02, PHI_D1]), 5),
                   (_i41_datum(), 9)):
        nvars = len(d.simple_roots)
        for n in range(top + 1):
            weyl = _matrix_action_sum_side(d, n)
            reals = km.real_root_tuples(d, n)
            res = km.solve_multiplicities(d, n)
            assert _naive_expand_product(res.mults, n, nvars) == weyl, n
            keys = list(res.mults)
            assert keys[:len(reals)] == sorted(reals, key=by_height)
            rest = keys[len(reals):]
            assert rest == sorted(rest, key=by_height)
            assert all(res.mults[t] for t in rest)
            assert all(res.mults[t] == 1 for t in reals)


def test_solve_multiplicities_truncations_agree(datum, ex134):
    # each height bound N keys the solve in its own base N + 1, so a carry
    # or a wrong digit order would make two truncations disagree
    for d in (datum, km.root_datum(ex134, [F01, F02, PHI_D1]), _i41_datum()):
        solved = [km.solve_multiplicities(d, n).mults for n in range(11)]
        for big in range(1, 11):
            for small in range(big):
                cut = {t: m for t, m in solved[big].items() if sum(t) <= small}
                assert list(cut.items()) == list(solved[small].items()), (big, small)


def test_solve_multiplicities_rejects_bad_height_bound(datum):
    for bad in (-1, -5, True, False, 2.0, "3", None):
        with pytest.raises(DomainError) as err:
            km.solve_multiplicities(datum, bad)
        assert not isinstance(err.value, DenominatorMismatchError)
        assert repr(bad) in str(err.value)
    assert list(km.solve_multiplicities(datum, 0).mults) == []


def test_binomial_factor_against_naive_expansion():
    factors = [((1, 0, 0), 2), ((0, 1, 1), -3), ((1, 1, 0), 0), ((2, 1, 1), 1),
               ((0, 0, 1), -1), ((3, 3, 1), 5), ((1, 2, 0), 4)]
    for n in range(7):
        series = km.GradedSeries.one(3, n)
        for i, (t, m) in enumerate(factors):
            series.binomial_factor(t, m)
            assert series.coeffs == _naive_expand_product(dict(factors[:i + 1]), n, 3), (n, t)


def test_binomial_factor_rejects_bad_keys():
    for key in ((1, 1), (1, 1, 1, 1), (1, -1, 1), (0, 0, 0)):
        series = km.GradedSeries.one(3, 4)
        with pytest.raises(DomainError):
            series.binomial_factor(key, 2)
        assert series.coeffs == {(0, 0, 0): 1}


def test_multiplicity_weyl_invariance(datum):
    res = km.solve_multiplicities(datum, 6)
    gcm = datum.cartan
    for t, m in res.mults.items():
        for j in range(3):
            img = simple_reflection_on_tuple(gcm, j, t)
            if min(img) >= 0 and sum(img) <= 6:
                assert res.mults.get(img, 0) == m, (t, img)


def test_anti_invariance(datum):
    assert km.anti_invariance_check(datum, 4)


CORRUPTIONS = {"sign-flip": lambda c: -c, "dropped": lambda c: 0, "doubled": lambda c: 2 * c}


def _corrupted(series, u, corrupt):
    coeffs = dict(series.coeffs)
    coeffs[u] = corrupt(coeffs[u])
    return km.GradedSeries(nvars=series.nvars, truncation=series.truncation,
                           coeffs={k: v for k, v in coeffs.items() if v})


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_anti_invariance_rejects_corrupted_series(datum, corrupt):
    # every nonzero exponent has a descent, whose image lies inside the
    # truncation, and 0 maps to the e_j, so a change at any single exponent
    # is caught
    for d, height in ((datum, 6), (_i41_datum(), 8)):
        series = km.sum_side(d, height)
        for u in series.coeffs:
            assert not km.weyl_sum_anti_invariant(d.cartan, _corrupted(series, u, corrupt)), u


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_anti_invariance_rejects_corrupted_series_on_random_cartan_matrices(data):
    d = _random_datum(data)
    series = km.sum_side(d, data.draw(st.integers(1, 8)))
    assert km.weyl_sum_anti_invariant(d.cartan, series)
    u = data.draw(st.sampled_from(sorted(series.coeffs)))
    corrupt = CORRUPTIONS[data.draw(st.sampled_from(sorted(CORRUPTIONS)))]
    assert not km.weyl_sum_anti_invariant(d.cartan, _corrupted(series, u, corrupt))


def test_anti_invariance_rejects_an_exponent_of_the_wrong_length(datum):
    for bad in ((1, 0), (1, 0, 0, 0)):
        series = km.GradedSeries(nvars=3, truncation=4, coeffs={bad: -1, (0, 0, 0): 1})
        with pytest.raises(DimensionError):
            km.weyl_sum_anti_invariant(datum.cartan, series)


def test_anti_invariance_rank1_subcase(ex134):
    # a single generator swaps (0, +) and (e_1, -)
    lat = Lattice(gram=((2, -4), (-4, 2)))
    sub = km.root_datum(lat, [(1, 0), (0, 1)])
    series = km.sum_side(sub, 1)
    assert series.coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    assert km.weyl_sum_anti_invariant(sub.cartan, series)


def test_anti_invariance_needs_weyl_vector(datum):
    stripped = km.RootDatum(lattice=datum.lattice, simple_roots=datum.simple_roots,
                            cartan=datum.cartan,
                            weyl_data=ws.WeylData(rho=None, rho_norm=None, kind="none"))
    with pytest.raises(DomainError):
        km.anti_invariance_check(stripped, 3)


def test_imaginary_membership(datum, ex134):
    assert km.imaginary_membership(datum, (1, 1, 1), 12) == 1
    assert km.imaginary_membership(datum, CUSP, 12) == 1     # isotropic: the cusp
    with pytest.raises(DomainError):
        km.imaginary_membership(datum, (1, 0, 0), 12)         # spacelike
    with pytest.raises(DomainError, match="zero vector"):
        km.imaginary_membership(datum, (0, 0, 0), 12)
    # the dual cone of this Lorentzian triangle has no timelike interior point
    wide = km.root_datum(Lattice(gram=((2, 0, -2), (0, 2, -5), (-2, -5, 2))), linalg.identity(3))
    with pytest.raises(DomainError, match="no timelike interior point"):
        km.imaginary_membership(wide, (-3, -3, -3), 1)
    # negated vectors drive through the opposite cone
    assert km.imaginary_membership(datum, (-1, -1, -1), 12) == 1


def test_imaginary_membership_montecarlo(datum, ex134):
    rng = random.Random(41)
    done = 0
    while done < 50:
        x = tuple(rng.randint(-10, 10) for _ in range(3))
        if norm(ex134, x) >= 0:
            continue
        assert km.imaginary_membership(datum, x, 12) == 1
        done += 1


def test_imaginary_membership_fails_off_arithmetic_type(ex134):
    # negative direction of the equivalence: a truncated translation-orbit
    # chamber is not of arithmetic type (spacelike dual ray), and small
    # multiples of some timelike vectors never reach its root cone
    from ex134_data import PHI

    c, sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 2)
    assert c == (0, 1, 1)
    art = cones.is_arithmetic_type(ex134, sample)
    assert not art.finite_volume
    assert art.witness is not None and norm(ex134, art.witness) > 0
    datum8 = km.root_datum(ex134, sample)
    assert km.imaginary_membership(datum8, (1, 1, 1), 8) is None
    assert km.imaginary_membership(datum8, (2, 1, 1), 8) is None
    assert km.imaginary_membership(datum8, (3, 2, 2), 8) == 3


def test_cusp_embedding(ex134):
    omega = km.cusp_embedding(ex134, 1, (1, 1, 1))
    assert omega[3] == Fraction(-3)        # S(z,z)/2 = -3
    assert omega[4] == 1
    omega0 = km.cusp_embedding(ex134, 3, (0, 0, 0))
    assert omega0 == (0, 0, 0, 0, Fraction(1, 3))
    rng = random.Random(42)
    for _ in range(200):
        z = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        k = rng.randint(1, 5)
        km.cusp_embedding(ex134, k, z)     # raises on any inexactness


def test_extended_gram(u, ex134):
    big = km.extended_gram(ex134, 2)
    assert big.rank == 5
    assert big.gram[3][4] == -2 and big.gram[4][3] == -2
    assert big.gram[3][3] == 0 and big.gram[4][4] == 0
    for k in (0, -1):
        with pytest.raises(DomainError, match="must be positive"):
            km.extended_gram(ex134, k)
