"""Weyl vectors, twists, symmetry groups, cusps and the wall families."""

import random
from fractions import Fraction

import pytest

from ex134_data import CUSP, F01, F02, PHI
from lorentzroots import linalg, weylstruct as ws
from lorentzroots.errors import (DomainError, IndeterminateFixedSpaceError,
                                 NonObtusePairError, UnderDeterminedError)
from lorentzroots.lattice import (apply_isometry, is_crystallographic, is_isometry,
                                  norm, pair, reflection)


PHI_D1 = (1, 2, 6)   # PHI applied to d1


def test_weyl_vector_triangle(ex134, triangle):
    data = ws.lattice_weyl_vector(ex134, triangle)
    assert data.rho == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert data.rho_norm == Fraction(-3, 2)
    assert data.kind == "elliptic-type"


def test_weyl_vector_parabolic_family(ex134):
    roots = [F01, F02, PHI_D1]
    assert apply_isometry(PHI, (1, 0, 0)) == PHI_D1
    data = ws.lattice_weyl_vector(ex134, roots)
    assert data.rho == (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    assert data.rho_norm == 0
    assert data.kind == "parabolic-type"
    for a in roots:
        assert 2 * pair(ex134, data.rho, a) == -norm(ex134, a)
    assert [norm(ex134, a) for a in roots] == [8, 8, 2]


def test_weyl_vector_spacelike_solution_is_none_kind(ex134):
    data = ws.lattice_weyl_vector(ex134, [F01, F02, (2, 0, 0)])
    assert data.rho is not None and data.rho_norm > 0
    assert data.kind == "none"


def test_weyl_vector_inconsistent(ex134, triangle):
    data = ws.lattice_weyl_vector(ex134, list(triangle) + [F01])
    assert data.rho is None and data.kind == "none"


def test_weyl_vector_under_determined(ex134):
    with pytest.raises(UnderDeterminedError):
        ws.lattice_weyl_vector(ex134, [(1, 0, 0), (0, 1, 0)])


def test_weyl_vector_uniqueness_and_equivariance(ex134, triangle):
    rng = random.Random(31)
    base = ws.lattice_weyl_vector(ex134, triangle).rho
    perm = list(triangle)
    for _ in range(5):
        rng.shuffle(perm)
        assert ws.lattice_weyl_vector(ex134, perm).rho == base
    for g in ws.symmetry_group(ex134, triangle).generators:
        assert apply_isometry(g, base) == base


def test_generalized_weyl_check(ex134):
    assert ws.generalized_weyl_check(ex134, [(1, 0, 0)], CUSP, 4)
    assert ws.generalized_weyl_check(ex134, [(0, 1, 0)], CUSP, 0)
    assert not ws.generalized_weyl_check(ex134, [(1, 0, 0)], (1, 0, 0), 10)
    with pytest.raises(DomainError):
        ws.generalized_weyl_check(ex134, [(1, 0, 0)], (0, 0, 0), 1)


def test_admissible_twists(ex134, u):
    assert ws.admissible_twists(ex134, (1, 0, 0)) == [1, 2]
    # norm-2 root with a(d) = 1: only the trivial twist
    assert ws.admissible_twists(u, (1, -1)) == [1]
    with pytest.raises(DomainError):
        ws.admissible_twists(ex134, (2, 0, 0))
    for lam in ws.admissible_twists(ex134, (1, 0, 0)):
        assert is_crystallographic(ex134, tuple(lam * x for x in (1, 0, 0)))


def test_m_star_p_membership(ex134):
    rho = (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    assert ws.m_star_p_membership(ex134, [], (0, 0, 0))
    assert ws.m_star_p_membership(ex134, [(1, 0, 0), F01, F02], rho)
    assert not ws.m_star_p_membership(ex134, [], (Fraction(1, 3), 0, 0))


def test_candidate_roots_elliptic(ex134, triangle):
    rho = (Fraction(1, 2),) * 3
    got = ws.candidate_roots_for_weyl_vector(ex134, rho, 64)
    for t in triangle:
        assert t in got
    # independent brute-force box oracle
    import itertools

    brute = []
    for x in itertools.product(range(-7, 8), repeat=3):
        d = norm(ex134, x)
        if 0 < d <= 64 and 2 * pair(ex134, rho, x) == -d and is_crystallographic(ex134, x):
            brute.append(x)
    assert set(brute) <= set(got)
    assert sorted(got) == got
    assert len(got) == 9


def test_candidate_roots_parabolic(ex134):
    rho = (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    got = ws.candidate_roots_for_weyl_vector(ex134, rho, 64, max_pairing=14)
    for expected in [(1, 0, 0), F01, F02]:
        assert expected in got
    with pytest.raises(DomainError):
        ws.candidate_roots_for_weyl_vector(ex134, rho, 64)   # needs a budget
    assert ws.candidate_roots_for_weyl_vector(ex134, rho, 0, max_pairing=5) == []


def test_symmetry_group_triangle(ex134, triangle):
    sym = ws.symmetry_group(ex134, triangle)
    assert sym.order == 6
    mats = set(sym.generators)
    assert linalg.identity(3) in mats
    # closure and inverses
    from lorentzroots.lattice import int_inverse

    for g in mats:
        assert is_isometry(ex134, g)
        assert int_inverse(g) in mats
        for h in mats:
            assert linalg.mat_mul(g, h) in mats


def test_symmetry_group_distinct_norms_trivial(ex134):
    sym = ws.symmetry_group(ex134, [(1, 0, 0), F01, (0, 0, 3)])
    assert sym.order == 1
    assert sym.generators == (linalg.identity(3),)


def test_fixed_isotropic(ex134, diag22m):
    assert ws.fixed_isotropic(ex134, [PHI]) == CUSP
    with pytest.raises(IndeterminateFixedSpaceError):
        ws.fixed_isotropic(ex134, [linalg.identity(3)])
    s1 = reflection(ex134, (1, 0, 0))
    got = ws.fixed_isotropic(ex134, [s1])
    assert got is not None and norm(ex134, got) == 0
    assert pair(ex134, got, (1, 0, 0)) == 0
    # a wall whose restricted form has non-square discriminant carries no
    # rational isotropic vector: exact negative decision
    s_wall = reflection(diag22m, (1, 1, 0))
    assert ws.fixed_isotropic(diag22m, [s_wall]) is None


def test_parabolic_translation(ex134):
    phi = ws.parabolic_translation(ex134, (0, 1, 0), (0, 0, 1))
    assert phi == PHI
    assert apply_isometry(phi, CUSP) == CUSP
    delta = tuple(tuple(phi[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3))
    assert not linalg.is_zero_matrix(linalg.mat_mul(delta, delta))
    assert linalg.is_zero_matrix(linalg.mat_pow(delta, 3))
    # (d1, d2) are also parallel; the product fixes d1 + d2
    phi12 = ws.parabolic_translation(ex134, (1, 0, 0), (0, 1, 0))
    assert apply_isometry(phi12, (1, 1, 0)) == (1, 1, 0)
    with pytest.raises(DomainError):
        ws.parabolic_translation(ex134, (1, 0, 0), (0, 1, -1))   # intersecting
    with pytest.raises(DomainError):
        ws.parabolic_translation(ex134, (2, 1, 0), (2, 3, 10))   # ultraparallel


def test_build_Pk_sample(ex134):
    sample2 = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 2)
    roots = set(sample2.roots)
    assert PHI_D1 in roots and F01 in roots and F02 in roots
    assert len(sample2) == 8
    norms = sorted(norm(ex134, r) for r in sample2)
    assert norms == [2, 2, 8, 8, 8, 8, 8, 8]
    # Weyl property against rho = c/4 on every element
    rho = (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    for r in sample2:
        assert 2 * pair(ex134, rho, r) == -norm(ex134, r)
    # norm pattern along the translation orbit: k-1 single norm-2 walls
    # between consecutive norm-8 pairs
    assert [norm(ex134, r) for r in sample2] == [8, 8, 2, 8, 8, 2, 8, 8]
    sample3 = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 3, 3)
    assert [norm(ex134, r) for r in sample3] == [8, 8, 2, 2, 8, 8, 2, 2, 8, 8]
    assert set(sample3.roots) != set(
        ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 3).roots)


def test_family_restricted_parabolic_r_squared(ex134):
    # the horoball invariant (squared radius at the cusp) takes finitely
    # many values along the infinite family: the restricted-parabolic mark
    from lorentzroots.geometry import horo_invariants

    sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 6)
    values = {horo_invariants(ex134, CUSP, r).r_squared for r in sample}
    assert values == {Fraction(8), Fraction(32)}


def test_build_Pk_sample_rejects_bad_phi(ex134):
    s1 = reflection(ex134, (1, 0, 0))
    with pytest.raises(DomainError):
        ws.build_Pk_sample(ex134, s1, (1, 0, 0), F01, F02, 2, 2)


def test_rootset_checked_rejects_obtuse(ex134):
    with pytest.raises(NonObtusePairError):
        ws.RootSet.checked(ex134, [(1, 0, 0), (2, 1, 0)])
    with pytest.raises(DomainError):
        ws.RootSet.checked(ex134, [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(DomainError, match="proportional"):    # antiparallel
        ws.RootSet.checked(ex134, [(1, 0, 0), (-1, 0, 0)])


def test_classify_chamber(ex134, triangle):
    sym = ws.symmetry_group(ex134, triangle)
    assert ws.classify_chamber(ex134, triangle, sym) == "elliptic"
    sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 2)
    phi2 = linalg.mat_mul(PHI, PHI)
    fam_sym = ws.SymmetryGroup(generators=(phi2,), order="infinite-candidate")
    assert ws.classify_chamber(ex134, sample.roots, fam_sym) == "parabolic-candidate"
    lone = ws.SymmetryGroup(generators=(), order=1)
    assert ws.classify_chamber(ex134, [(1, 0, 0)], lone) == "indefinite"
