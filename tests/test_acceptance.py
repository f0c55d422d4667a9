"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every tolerance is exact (integer or rational equality); the
stated wall-clock budgets are asserted where the criteria carry one.
"""

import itertools
import random
import time
from fractions import Fraction

from ex134_data import CUSP, F01, F02, PHI
from lorentzroots import cones, kacmoody as km, linalg, qseries as qs, vinberg, weylstruct as ws
from lorentzroots.lattice import (Lattice, is_crystallographic, is_isometry, norm, pair,
                                  reflection)
from lorentzroots.vinberg import HeightKey, RootFilter
from test_kacmoody import _matrix_bfs_weyl_elements, simple_reflection_on_tuple


def _report(number, label):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_01_example_end_to_end(ex134):
    t0 = time.monotonic()
    rep = vinberg.run(ex134, (1, 1, 1), RootFilter(norms=frozenset({2})),
                      max_key=HeightKey(1000, 1))
    elapsed = time.monotonic() - t0
    assert rep.terminated
    assert len(rep.accepted) == 3
    target = ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))
    assert any(
        tuple(tuple(rep.gram[p[i]][p[j]] for j in range(3)) for i in range(3)) == target
        for p in itertools.permutations(range(3)))
    assert elapsed < 5.0
    _report(1, f"vinberg on the worked example: 3 walls, certified, {elapsed:.2f}s")


def test_criterion_02_weyl_vectors(ex134, triangle):
    data = ws.lattice_weyl_vector(ex134, triangle)
    assert data.rho == (Fraction(1, 2),) * 3
    assert data.rho_norm == Fraction(-3, 2)
    phi_d1 = linalg.mat_vec(PHI, (1, 0, 0))
    family = [(1, 0, 0), F01, F02]
    fdata = ws.lattice_weyl_vector(ex134, family)
    assert fdata.rho == (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    assert fdata.rho == tuple(Fraction(x, 4) for x in CUSP)
    for a in family:
        assert 2 * pair(ex134, fdata.rho, a) == -norm(ex134, a)
    assert [norm(ex134, a) for a in family] == [2, 8, 8]
    assert ws.lattice_weyl_vector(ex134, [F01, F02, phi_d1]).rho == fdata.rho
    _report(2, "Weyl vectors (1/2,1/2,1/2) and c/4 with exact pairings")


def test_criterion_03_arithmetic_type_vs_sampling(ex134, triangle):
    t0 = time.monotonic()
    art = cones.is_arithmetic_type(ex134, triangle)
    assert art.finite_volume
    assert art.cone.rays == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert all(norm(ex134, r) == 0 for r in art.cone.rays)
    rng = random.Random(1003)
    done = 0
    while done < 100:
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        if norm(ex134, x) >= 0:
            continue
        hit = None
        for n in range(1, 13):
            for sign in (1, -1):
                v = tuple(sign * n * c for c in x)
                if cones.q_plus_membership(ex134, triangle, v) is not None:
                    hit = n
                    break
            if hit:
                break
        assert hit is not None and hit <= 12
        done += 1
    single = cones.is_arithmetic_type(ex134, [(1, 0, 0)])
    assert not single.finite_volume
    assert single.witness is not None and norm(ex134, single.witness) > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"arithmetic-type criterion vs sampling oracle, {elapsed:.2f}s")


def test_criterion_04_gram_bounds(ex134, u_plus_2, u_plus_a2, diag22m):
    chambers = [
        (ex134, (1, 1, 1), {2}),
        (ex134, (4, 3, 2), {2, 8}),
        (u_plus_2, (-4, -3, -1), {2}),
        (u_plus_2, (-4, -3, -1), {2, 4}),
        (diag22m, (1, 2, 4), {2, 4}),
        (u_plus_a2, (-4, -3, -1, -1), {2}),
    ]
    checked = 0
    for lat, h, norms in chambers:
        rep = vinberg.run(lat, h, RootFilter(norms=frozenset(norms)),
                          max_key=HeightKey(2000, 1), max_roots=16)
        assert rep.terminated, (lat.name, norms)
        bound = vinberg.gram_bound_check(lat, rep.accepted)
        assert bound.violations == ()
        assert bound.spanning_subset is not None
        checked += 1
    synthetic = Lattice(gram=((2, -63), (-63, 2)))
    flagged = vinberg.gram_bound_check(synthetic, [(1, 0), (0, 1)])
    assert flagged.violations == ((0, 1),)
    _report(4, f"pairing bounds hold on {checked} certified chambers; violator flagged")


def test_criterion_05_denominator_identity(ex134, triangle):
    t0 = time.monotonic()
    datum = km.root_datum(ex134, triangle)
    res = km.solve_multiplicities(datum, 6)
    assert res.residual_zero
    reals = km.real_root_tuples(datum, 6)
    for t in reals:
        assert res.mults[t] == 1
    # independent from-scratch expansion of the product side
    from test_kacmoody import _matrix_action_sum_side, _naive_expand_product

    assert _naive_expand_product(res.mults, 6, 3) == _matrix_action_sum_side(datum, 6)
    # W-invariance on orbit pairs inside the truncation
    for t, m in res.mults.items():
        for j in range(3):
            img = simple_reflection_on_tuple(datum.cartan, j, t)
            if min(img) >= 0 and sum(img) <= 6:
                assert res.mults.get(img, 0) == m
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"denominator identity to height 6, residual zero, {elapsed:.2f}s")


def test_criterion_06_anti_invariance(ex134, triangle):
    datum = km.root_datum(ex134, triangle)
    assert datum.weyl_data.rho == (Fraction(1, 2),) * 3
    assert km.anti_invariance_check(datum, 4)
    series = km.sum_side(datum, 4)
    corrupted = dict(series.coeffs)
    corrupted[(0, 0, 0)] = -corrupted[(0, 0, 0)]
    assert not km.weyl_sum_anti_invariant(
        datum.cartan, km.GradedSeries(nvars=3, truncation=4, coeffs=corrupted))
    _report(6, "anti-invariance at height 4; corrupted sign detected")


def test_criterion_07_qseries(ex134):
    t0 = time.monotonic()
    from test_qseries import naive_eta_power

    p24 = qs.eta_power(-24, 20)
    assert list(p24.coeffs) == naive_eta_power(-24, 20)
    tau = qs.ramanujan_tau(20)
    assert tau[0] == 1 and tau[1] == -24 and tau[2] == 252
    assert tau == naive_eta_power(24, 19)
    m = qs.cusp_identity("tau_to_m", [24] * 3, 3)
    assert m == [24, -252, 1472]
    assert qs.cusp_identity("m_to_tau", m, 3) == [24, 24, 24]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(7, f"eta powers, tau values and the cusp identity, {elapsed:.2f}s")


def test_criterion_08_cusp_embedding(ex134):
    rng = random.Random(1008)
    for _ in range(1000):
        z = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(3))
        k = rng.randint(1, 5)
        omega = km.cusp_embedding(ex134, k, z)   # asserts both identities exactly
        assert omega[-1] == Fraction(1, k)
    _report(8, "cusp lift isotropy and normalization, 1000 random points")


def test_criterion_09_parabolic_structure(ex134, triangle):
    assert is_isometry(ex134, PHI)
    s2, s3 = reflection(ex134, (0, 1, 0)), reflection(ex134, (0, 0, 1))
    assert linalg.mat_mul(s3, s2) == PHI
    assert linalg.mat_vec(PHI, CUSP) == CUSP
    delta = tuple(tuple(PHI[i][j] - (1 if i == j else 0) for j in range(3))
                  for i in range(3))
    assert not linalg.is_zero_matrix(linalg.mat_mul(delta, delta))
    assert linalg.is_zero_matrix(linalg.mat_pow(delta, 3))
    assert len(ws.symmetry_group(ex134, triangle)) == 6
    rho = (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    for k in (2, 3):
        c, sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, k, 6)
        assert c == (0, 1, 1)
        for r in sample:
            assert is_crystallographic(ex134, r)
            assert 2 * pair(ex134, rho, r) == -norm(ex134, r)
        for a, b in itertools.combinations(sample, 2):
            assert pair(ex134, a, b) <= 0
    _report(9, "translation is unipotent with cusp c; families validate")


def test_criterion_10_property_suites(ex134, u, u_plus_2, u_plus_a2, diag22m):
    t0 = time.monotonic()
    rng = random.Random(1010)
    # reflections on 200 random crystallographic roots across the fixtures
    fixtures = [ex134, u, u_plus_2, u_plus_a2, diag22m]
    done = 0
    while done < 200:
        lat = fixtures[done % len(fixtures)]
        v = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        if not any(v) or norm(lat, v) <= 0 or not is_crystallographic(lat, v):
            continue
        s = reflection(lat, v)
        assert linalg.mat_mul(s, s) == linalg.identity(lat.rank)
        assert is_isometry(lat, s)
        done += 1
    # double-description duality round trips on random cones
    done = 0
    while done < 10:
        lat = fixtures[done % len(fixtures)]
        roots = []
        while len(roots) < lat.rank:
            v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
            if any(v):
                roots.append(v)
        first = cones.dual_extreme_rays(lat, roots)
        if not first.rays:
            continue
        gens1 = list(first.rays) + list(first.lineality) + \
            [tuple(-x for x in l) for l in first.lineality]
        second = cones.dual_extreme_rays(lat, gens1)
        if not second.rays:
            continue
        gens2 = list(second.rays) + list(second.lineality) + \
            [tuple(-x for x in l) for l in second.lineality]
        third = cones.dual_extreme_rays(lat, gens2)
        assert third.rays == first.rays
        done += 1
    # weyl element prefix stability and matrix-word consistency to N=5
    datum = km.root_datum(ex134, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    small = km.weyl_elements(datum, 3)
    big = km.weyl_elements(datum, 5)
    assert list(big.items())[:len(small)] == list(small.items())
    words = _matrix_bfs_weyl_elements(datum, 5)
    assert [(e, s) for _, e, s in words] == list(big.items())
    refl = [reflection(ex134, r) for r in datum.simple_roots]
    rho = (Fraction(1, 2),) * 3
    mats = set()
    for word, exponent, sign in words:
        mat = linalg.identity(3)
        for j in word:
            mat = linalg.mat_mul(mat, refl[j])
        mats.add(mat)
        assert sign == (-1) ** len(word)
        assert linalg.det(mat) == sign
        moved = linalg.mat_vec(mat, rho)
        assert tuple(a - b for a, b in zip(moved, rho)) == \
            tuple(map(Fraction, km.tuple_to_vector(datum, exponent)))
    assert len(mats) == len(big)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(10, f"reflection, duality and Weyl-element property suites, {elapsed:.2f}s")
