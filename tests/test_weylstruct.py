"""Weyl vectors, twists, symmetry groups, cusps and the wall families."""

import itertools
import random
from fractions import Fraction

import pytest

from ex134_data import CUSP, F01, F02, PHI
from lorentzroots import linalg, weylstruct as ws
from lorentzroots.errors import (DomainError, IndeterminateFixedSpaceError,
                                 NonObtusePairError, UnderDeterminedError)
from lorentzroots.lattice import (Lattice, int_inverse, is_crystallographic, is_isometry, norm,
                                  pair, reflection, timelike_vector)


PHI_D1 = (1, 2, 6)   # PHI applied to d1


def test_weyl_vector_triangle(ex134, triangle):
    data = ws.lattice_weyl_vector(ex134, triangle)
    assert data.rho == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert data.rho_norm == Fraction(-3, 2)
    assert data.kind == "elliptic-type"


def test_weyl_vector_parabolic_family(ex134):
    roots = [F01, F02, PHI_D1]
    assert linalg.mat_vec(PHI, (1, 0, 0)) == PHI_D1
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


def test_zero_weyl_vector_is_not_parabolic(u):
    # the isotropic walls of U solve to rho = 0, which is no Weyl vector
    data = ws.lattice_weyl_vector(u, [(1, 0), (0, 1)])
    assert data.rho == (0, 0) and data.rho_norm == 0
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
    for g in ws.symmetry_group(ex134, triangle):
        assert linalg.mat_vec(g, base) == base


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
    for bad, why in (((1, 1, 1), "spacelike"), ((0, 1, 1), "spacelike")):
        with pytest.raises(DomainError, match=why):
            ws.admissible_twists(ex134, bad)
    for lam in ws.admissible_twists(ex134, (1, 0, 0)):
        assert is_crystallographic(ex134, tuple(lam * x for x in (1, 0, 0)))


def test_m_star_p_membership(ex134):
    rho = (Fraction(0), Fraction(1, 4), Fraction(1, 4))
    assert ws.m_star_p_membership(ex134, [], (0, 0, 0))
    assert ws.m_star_p_membership(ex134, [(1, 0, 0), F01, F02], rho)
    assert not ws.m_star_p_membership(ex134, [], (Fraction(1, 3), 0, 0))
    # (0, 1/2, 0) is in the dual lattice, but 2 S(x, F01) = -4 is not a multiple of 8
    assert not ws.m_star_p_membership(ex134, [F01], (0, Fraction(1, 2), 0))


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
    # the whole result against a box oracle, cut by h = timelike_vector(ex134)
    import itertools

    h, box, brute = timelike_vector(ex134), 16, []
    for x in itertools.product(range(-box, box + 1), repeat=3):
        d = norm(ex134, x)
        if 0 < d <= 64 and 2 * pair(ex134, rho, x) == -d \
                and 0 <= -pair(ex134, h, x) <= 14 and is_crystallographic(ex134, x):
            assert max(map(abs, x)) < box, x
            brute.append(x)
    assert got == brute
    with pytest.raises(DomainError):
        ws.candidate_roots_for_weyl_vector(ex134, rho, 64)   # needs a budget
    assert ws.candidate_roots_for_weyl_vector(ex134, rho, 0, max_pairing=5) == []
    # both budgets are read before any shell, even when no norm is searched
    with pytest.raises(DomainError, match="max_pairing 2.9 is not an integer"):
        ws.candidate_roots_for_weyl_vector(ex134, rho, 0, max_pairing=2.9)
    for norm_bound, max_pairing in ((0, -1), (-1, 5), (-1, None)):
        with pytest.raises(DomainError, match="must be >= 0"):
            ws.candidate_roots_for_weyl_vector(ex134, rho, norm_bound, max_pairing=max_pairing)
    for bad in ((1, 0, 0), (0, 0, 0)):      # spacelike, zero
        with pytest.raises(DomainError):
            ws.candidate_roots_for_weyl_vector(ex134, bad, 8, max_pairing=5)


def test_symmetry_group_triangle(ex134, triangle):
    sym = ws.symmetry_group(ex134, triangle)
    assert len(sym) == 6
    mats = set(sym)
    assert linalg.identity(3) in mats
    # closure and inverses
    for g in mats:
        assert is_isometry(ex134, g)
        assert int_inverse(g) in mats
        for h in mats:
            assert linalg.mat_mul(g, h) in mats


def test_symmetry_group_distinct_norms_trivial(ex134):
    sym = ws.symmetry_group(ex134, [(1, 0, 0), F01, (0, 0, 3)])
    assert len(sym) == 1
    assert sym == (linalg.identity(3),)


def test_symmetry_group_rejects_walls_that_do_not_span(ex134, triangle):
    for walls in ([], triangle[:2], [(1, 0, 0), (2, 0, 0), F01]):
        with pytest.raises(DomainError, match="must span"):
            ws.symmetry_group(ex134, walls)


def _symmetry_group_by_brute_force(lattice, roots):
    """Every permutation of the walls, kept iff its map g on the base walls is
    integral, passes is_isometry and maps every wall; each g once."""
    base = linalg.pivots(linalg.transpose(roots))
    base_inv = linalg.inverse(linalg.transpose([roots[i] for i in base]))
    out = []
    for perm in itertools.permutations(range(len(roots))):
        g = linalg.mat_mul(linalg.transpose([roots[perm[b]] for b in base]), base_inv)
        if any(Fraction(x).denominator != 1 for row in g for x in row):
            continue
        g = tuple(tuple(int(x) for x in row) for row in g)
        if is_isometry(lattice, g) and g not in out and all(
                linalg.mat_vec(g, r) == roots[p] for r, p in zip(roots, perm)):
            out.append(g)
    return tuple(out)


def test_symmetry_group_matches_a_brute_force_reference(ex134, u_plus_a2, triangle):
    cases = [
        (ex134, triangle, 6),
        # the chamber vinberg.run finds on U + A_2 from (-4, -3, -1, -1), norms {2}
        (u_plus_a2, [(-1, 0, -1, -1), (0, 0, 0, 1), (0, 0, 1, 0), (1, -1, 0, 0)], 2),
        (ex134, ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 1)[1], None),
        # a zero form: every unimodular g is an isometry, so only the wall map
        # rejects the four permutations that move (1, 1); 6 without it
        (Lattice(gram=((0, 0), (0, 0))), [(1, 0), (0, 1), (1, 1)], 2),
    ]
    for lattice, walls, order in cases:
        sym = ws.symmetry_group(lattice, walls)
        assert sym == _symmetry_group_by_brute_force(lattice, walls)
        assert order is None or len(sym) == order


def test_symmetry_group_keeps_each_isometry_once(ex134):
    sym = ws.symmetry_group(ex134, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sym == (linalg.identity(3), ((1, 0, 0), (0, 0, 1), (0, 1, 0)))


def test_fixed_isotropic(ex134, diag22m):
    assert ws.fixed_isotropic(ex134, [PHI]) == CUSP
    # a unipotent isometry g != 1 always fixes an isotropic vector
    for g in (linalg.mat_mul(PHI, PHI), int_inverse(PHI),
              ws.parabolic_translation(ex134, (1, 0, 0), (0, 1, 0))):
        assert ws.is_unipotent(g) and norm(ex134, ws.fixed_isotropic(ex134, [g])) == 0
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
    # a rotation about the timelike line of (0, 0, 1): a line, not isotropic
    assert ws.fixed_isotropic(diag22m, [((-1, 0, 0), (0, -1, 0), (0, 0, 1))]) is None
    with pytest.raises(DomainError, match="verified isometries"):
        ws.fixed_isotropic(ex134, [((2, 0, 0), (0, 1, 0), (0, 0, 1))])


def _fixed_box(lattice, gens, radius=3):
    """The nonzero vectors of the box |x_i| <= radius fixed by every generator."""
    box = itertools.product(range(-radius, radius + 1), repeat=lattice.rank)
    return [x for x in box if any(x) and all(linalg.mat_vec(g, x) == x for g in gens)]


@pytest.mark.parametrize("gram, gens, expected", [
    # I_{2,1}, the reflection in (0, 1, 0): the fixed plane carries a square discriminant
    (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), [((1, 0, 0), (0, -1, 0), (0, 0, 1))], (1, 0, -1)),
    # I_{3,1} and diag(-1, -1, 1, 1): a definite fixed plane, negative discriminant
    (((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
     [((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))], None),
    # no generators: the whole rank-2 lattice, whose second basis vector is isotropic
    (((1, 1), (1, 0)), [], (0, 1)),
    (((0, 1), (1, 0)), [], (1, 0)),
])
def test_fixed_isotropic_in_a_fixed_plane(gram, gens, expected):
    lat = Lattice(gram=gram)
    got = ws.fixed_isotropic(lat, gens)
    assert got == expected
    isotropic_in_box = [x for x in _fixed_box(lat, gens) if norm(lat, x) == 0]
    assert (got is None) == (not isotropic_in_box)
    if got is not None:
        assert linalg.content(got) == 1 and norm(lat, got) == 0
        assert all(linalg.mat_vec(g, got) == got for g in gens)


def test_parabolic_translation(ex134):
    phi = ws.parabolic_translation(ex134, (0, 1, 0), (0, 0, 1))
    assert phi == PHI
    assert linalg.mat_vec(phi, CUSP) == CUSP
    delta = tuple(tuple(phi[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3))
    assert not linalg.is_zero_matrix(linalg.mat_mul(delta, delta))
    assert linalg.is_zero_matrix(linalg.mat_pow(delta, 3))
    # (d1, d2) are also parallel; the product fixes d1 + d2
    phi12 = ws.parabolic_translation(ex134, (1, 0, 0), (0, 1, 0))
    assert linalg.mat_vec(phi12, (1, 1, 0)) == (1, 1, 0)
    with pytest.raises(DomainError):
        ws.parabolic_translation(ex134, (1, 0, 0), (0, 1, -1))   # intersecting
    with pytest.raises(DomainError):
        ws.parabolic_translation(ex134, (2, 1, 0), (2, 3, 10))   # ultraparallel


def test_build_Pk_sample(ex134):
    c, sample2 = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 2)
    assert c == (0, 1, 1)
    roots = set(sample2)
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
    c3, sample3 = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 3, 3)
    assert c3 == (0, 1, 1) and [norm(ex134, r) for r in sample3] == [8, 8, 2, 2, 8, 8, 2, 2, 8, 8]
    assert set(sample3) != set(
        ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 3)[1])


def test_family_restricted_parabolic_r_squared(ex134):
    # the horoball invariant (squared radius at the cusp) takes finitely
    # many values along the infinite family: the restricted-parabolic mark
    from lorentzroots.geometry import horo_invariants

    c, sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 6)
    assert c == (0, 1, 1)
    values = {horo_invariants(ex134, c, r).r_squared for r in sample}
    assert values == {Fraction(8), Fraction(32)}


def test_build_Pk_sample_rejects_bad_phi(ex134):
    s1 = reflection(ex134, (1, 0, 0))
    with pytest.raises(DomainError, match="nontrivial unipotent isometry"):
        ws.build_Pk_sample(ex134, s1, (1, 0, 0), F01, F02, 2, 2)
    # a unipotent shear that is not an isometry is caught by fixed_isotropic's check
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert ws.is_unipotent(shear) and not is_isometry(ex134, shear)
    with pytest.raises(DomainError, match="^fixed_isotropic expects verified isometries$"):
        ws.build_Pk_sample(ex134, shear, (1, 0, 0), F01, F02, 2, 2)
    # S(c, e0) = -4 e0[0]: (0, 1, 0) passes through the cusp c = (0, 1, 1)
    with pytest.raises(DomainError, match="passes through the cusp"):
        ws.build_Pk_sample(ex134, PHI, (0, 1, 0), F01, F02, 2, 2)


def test_build_Pk_sample_checks_the_weyl_property_on_the_seeds(ex134):
    # (-2, -1, 0) is crystallographic of norm 2, but with rho = c/4 and S(c, f) = 8,
    # 2 S(rho, f) = 4 is not -S(f, f) = -2
    f = (-2, -1, 0)
    assert is_crystallographic(ex134, f) and norm(ex134, f) == 2 and pair(ex134, CUSP, f) == 8
    with pytest.raises(DomainError, match=r"^seed \(-2, -1, 0\) violates the Weyl property$"):
        ws.build_Pk_sample(ex134, PHI, (1, 0, 0), f, F02, 2, 1)
    assert ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 0) == ((0, 1, 1), (F01, F02))


def test_rootset_checked_rejects_obtuse(ex134):
    with pytest.raises(NonObtusePairError):
        ws.check_walls(ex134, [(1, 0, 0), (2, 1, 0)])
    with pytest.raises(DomainError):
        ws.check_walls(ex134, [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(DomainError, match="proportional"):    # antiparallel
        ws.check_walls(ex134, [(1, 0, 0), (-1, 0, 0)])


def test_classify_chamber(ex134, triangle):
    sym = ws.symmetry_group(ex134, triangle)
    assert ws.classify_chamber(ex134, triangle, sym) == "elliptic"
    c, sample = ws.build_Pk_sample(ex134, PHI, (1, 0, 0), F01, F02, 2, 2)
    assert c == (0, 1, 1)
    phi2 = linalg.mat_mul(PHI, PHI)
    assert ws.classify_chamber(ex134, sample, (phi2,)) == "parabolic-candidate"
    assert ws.classify_chamber(ex134, [(1, 0, 0)], ()) == "indefinite"
    # the identity and a reflection (not unipotent) are passed over
    s1 = reflection(ex134, (1, 0, 0))
    assert ws.classify_chamber(ex134, sample, (linalg.identity(3), s1)) == "indefinite"
    # PHI + 1 on ex134 + <2> + <2> fixes a 3-space, which is not decided
    lat5 = Lattice(gram=tuple(tuple(row) + (0, 0) for row in ex134.gram)
                   + ((0, 0, 0, 2, 0), (0, 0, 0, 0, 2)))
    phi5 = tuple(tuple(row) + (0, 0) for row in PHI) + ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    with pytest.raises(IndeterminateFixedSpaceError):
        ws.fixed_isotropic(lat5, [phi5])
    assert ws.classify_chamber(lat5, [(1, 0, 0, 0, 0)], (phi5,)) == "indefinite"


def test_classify_chamber_rejects_non_walls(u, ex134, triangle):
    # isotropic vectors, or a timelike one among the walls, bound no chamber
    with pytest.raises(DomainError, match="not spacelike"):
        ws.classify_chamber(u, [(1, 0), (0, 1)], ws.symmetry_group(u, [(1, 0), (0, 1)]))
    walls = [*triangle, (1, 1, 1)]
    with pytest.raises(DomainError, match=r"\(1, 1, 1\) is not spacelike"):
        ws.classify_chamber(ex134, walls, ws.symmetry_group(ex134, walls))
