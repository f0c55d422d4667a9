"""Light-cone classification, exact distances and the cusp-angle identities."""

import random
from fractions import Fraction

import pytest

from lorentzroots.errors import DomainError
from ex134_data import CUSP, PHI
from lorentzroots.geometry import (HoroInvariants, MirrorRelation, VectorClass,
                                   classify_mirrors, classify_vector, cosh2,
                                   horo_invariants, theta_identity_check)
from lorentzroots.lattice import Lattice, norm, pair, reflection
from lorentzroots.linalg import mat_vec



ORIENT = (1, 1, 1)


def test_classify_vector(ex134):
    assert classify_vector(ex134, (1, 1, 1), ORIENT) is VectorClass.TIMELIKE_SAME_CONE
    assert classify_vector(ex134, (-1, -1, -1), ORIENT) is VectorClass.TIMELIKE_OPPOSITE_CONE
    assert classify_vector(ex134, CUSP, ORIENT) is VectorClass.LIGHTLIKE_SAME_CONE
    assert classify_vector(ex134, tuple(-x for x in CUSP), ORIENT) is VectorClass.LIGHTLIKE_OPPOSITE_CONE
    assert classify_vector(ex134, (1, 0, 0), ORIENT) is VectorClass.SPACELIKE
    with pytest.raises(DomainError):
        classify_vector(ex134, (1, 1, 1), (1, 0, 0))   # orientation not timelike
    with pytest.raises(DomainError):
        classify_vector(ex134, (0, 0, 0), ORIENT)


def test_cosh2_values(ex134):
    assert cosh2(ex134, (1, 1, 1), (1, 1, 1)) == 1
    assert cosh2(ex134, (1, 1, 1), (2, 1, 1)) == Fraction(4, 3)
    assert cosh2(ex134, (2, 1, 1), (1, 1, 1)) == Fraction(4, 3)
    # scale invariance
    assert cosh2(ex134, (2, 2, 2), (2, 1, 1)) == Fraction(4, 3)
    with pytest.raises(DomainError):
        cosh2(ex134, (1, 0, 0), (1, 1, 1))
    with pytest.raises(DomainError, match="opposite half-cones"):
        cosh2(ex134, (1, 1, 1), (-1, -1, -1))


def test_cosh2_cauchy_schwarz(ex134, u_plus_2):
    rng = random.Random(8)
    for lat in (ex134, u_plus_2):
        done = 0
        while done < 60:
            x = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
            y = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
            if norm(lat, x) >= 0 or norm(lat, y) >= 0 or pair(lat, x, y) >= 0:
                continue
            c = cosh2(lat, x, y)
            assert c >= 1
            proportional = all(x[i] * y[j] == x[j] * y[i]
                               for i in range(lat.rank) for j in range(lat.rank))
            assert (c == 1) == proportional
            done += 1


def test_classify_mirrors(ex134):
    assert classify_mirrors(ex134, (0, 1, 0), (0, 0, 1)) is MirrorRelation.PARALLEL_AT_INFINITY
    assert classify_mirrors(ex134, (1, 0, 0), (0, 1, 0)) is MirrorRelation.PARALLEL_AT_INFINITY
    # orthogonal pair in a throwaway positive-definite-pair lattice
    lat = Lattice(gram=((2, 0, 0), (0, 2, 0), (0, 0, -2)))
    assert classify_mirrors(lat, (1, 0, 0), (0, 1, 0)) is MirrorRelation.INTERSECTING
    # norm-2 pair with pairing -4: det 4 - 16 < 0
    two = Lattice(gram=((2, -4), (-4, 2)))
    assert classify_mirrors(two, (1, 0), (0, 1)) is MirrorRelation.ULTRAPARALLEL
    with pytest.raises(DomainError):
        classify_mirrors(ex134, CUSP, (1, 0, 0))
    for same in (((0, 1, 0), (0, 1, 0)), ((0, 1, 0), (0, -2, 0))):
        with pytest.raises(DomainError):
            classify_mirrors(ex134, *same)


def test_classify_mirrors_symmetry_and_equivariance(ex134):
    rng = random.Random(9)
    s1 = reflection(ex134, (1, 0, 0))
    done = 0
    while done < 40:
        a = tuple(rng.randint(-4, 4) for _ in range(3))
        b = tuple(rng.randint(-4, 4) for _ in range(3))
        if norm(ex134, a) <= 0 or norm(ex134, b) <= 0:
            continue
        rel = classify_mirrors(ex134, a, b)
        assert rel is classify_mirrors(ex134, b, a)
        assert rel is classify_mirrors(ex134, mat_vec(s1, a), mat_vec(s1, b))
        done += 1


def test_horo_invariants(ex134):
    inv = horo_invariants(ex134, CUSP, (1, 0, 0))
    assert inv == HoroInvariants(theta=Fraction(1, 4), r_squared=Fraction(16, 2))
    # doubling the cusp representative halves theta
    inv2 = horo_invariants(ex134, (0, 2, 2), (1, 0, 0))
    assert inv2.theta == Fraction(1, 8)
    with pytest.raises(DomainError):
        horo_invariants(ex134, CUSP, (0, 1, 0))     # mirror through cusp
    with pytest.raises(DomainError):
        horo_invariants(ex134, (1, 1, 1), (1, 0, 0))  # not isotropic
    with pytest.raises(DomainError, match="spacelike"):
        horo_invariants(ex134, CUSP, (1, 1, 1))
    with pytest.raises(DomainError, match="nonpositive side"):
        horo_invariants(ex134, CUSP, (-1, 0, 0))     # S(c, -d1) = 4 > 0
    # norm-8 wall: theta missing, r^2 present
    inv8 = horo_invariants(ex134, CUSP, (4, 2, 0))
    assert inv8.theta is None and inv8.r_squared == Fraction(256, 8)


def test_horo_r_squared_isometry_invariance(ex134):
    for d in [(1, 0, 0), (4, 2, 0), (2, 1, 0)]:
        before = horo_invariants(ex134, CUSP, d).r_squared
        after = horo_invariants(ex134, CUSP, mat_vec(PHI, d)).r_squared
        assert before == after


def test_theta_identity_substitutions():
    assert theta_identity_check(1, 1, 0) == 2
    assert theta_identity_check(Fraction(1, 4), Fraction(1, 7), 0) == 2
    assert theta_identity_check(1, 1, 1) == 14
    with pytest.raises(DomainError):
        theta_identity_check(0, 1, 0)
    with pytest.raises(DomainError, match="cannot be negative"):
        theta_identity_check(1, 1, -1)


def test_theta_additivity_configuration(ex134):
    # consecutive ideal vertices: walls e1 = s_{d1}(d2), e2 = s_{d1}(d3), e3 = d1;
    # e3 spans the tangency interval of e1 and e2 on the horocycle at CUSP
    e1, e2, e3 = (2, 1, 0), (2, 0, 1), (1, 0, 0)
    t1 = horo_invariants(ex134, CUSP, e1).theta
    t2 = horo_invariants(ex134, CUSP, e2).theta
    t3 = horo_invariants(ex134, CUSP, e3).theta
    assert t1 == t2 == Fraction(1, 8)
    assert t3 == t1 + t2
    # the tangent pair satisfies the identity with t12 = 0
    assert theta_identity_check(t1, t2, 0) == -pair(ex134, e1, e2) == 2


def test_theta_identity_nontangent_pair(ex134):
    # e1 and e2' do not touch; the minimal tangent wall between them is the
    # rational norm-2 vector v below (tangencies verified exactly)
    e1, e2p = (2, 1, 0), (2, 3, 10)
    assert pair(ex134, e2p, e2p) == 2
    v = (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3))
    assert pair(ex134, v, v) == 2
    assert pair(ex134, v, e1) == -2          # tangent to e1
    assert pair(ex134, v, e2p) == -2         # tangent to e2'
    t12 = Fraction(-1, pair(ex134, CUSP, v))
    assert t12 == Fraction(3, 8)
    t1 = horo_invariants(ex134, CUSP, e1).theta
    t2 = horo_invariants(ex134, CUSP, e2p).theta
    assert theta_identity_check(t1, t2, t12) == -pair(ex134, e1, e2p) == 62
