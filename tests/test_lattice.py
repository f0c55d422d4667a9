"""Bilinear form plumbing on the worked rank-3 lattice and random fixtures."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from lorentzroots import linalg
from lorentzroots.errors import DegenerateFormError, DimensionError, DomainError
from ex134_data import CUSP, F01, F02, PHI
from lorentzroots.lattice import (Lattice, a_delta, gram_matrix, int_inverse, invariants,
                                  is_crystallographic, is_isometry, norm, pair, reflection,
                                  scaled, timelike_vector)



def test_pair_examples(ex134):
    assert pair(ex134, CUSP, (1, 0, 0)) == -4
    assert pair(ex134, (0, 0, 0), (1, 2, 3)) == 0
    assert pair(ex134, F01, F01) == 8
    assert pair(ex134, F02, F02) == 8
    assert pair(ex134, CUSP, (0, 1, 0)) == 0
    assert pair(ex134, CUSP, (0, 0, 1)) == 0


def test_pair_dimension_mismatch(ex134):
    with pytest.raises(DimensionError):
        pair(ex134, (1, 0), (1, 0, 0))


def test_gram_matrix_matches_pair(ex134):
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        lat = Lattice(gram=tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n)))
        vecs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        vecs.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)))
        g = gram_matrix(lat, vecs)
        assert g == tuple(tuple(pair(lat, x, y) for y in vecs) for x in vecs)
    assert gram_matrix(ex134, []) == ()
    with pytest.raises(DimensionError) as exc:
        pair(ex134, (1, 0, 0), (1, 0))
    with pytest.raises(DimensionError, match=f"^{exc.value}$"):
        gram_matrix(ex134, [(1, 0, 0), (1, 0)])


def test_invariants_u(u):
    inv = invariants(u)
    assert inv.signature == (1, 1)
    assert inv.even
    assert inv.determinant == -1
    assert inv.smith_divisors == (1, 1)
    assert inv.exponent_aS == 1


def test_invariants_ex134(ex134):
    inv = invariants(ex134)
    assert inv.signature == (2, 1)
    assert inv.even
    assert inv.determinant == -32
    assert inv.smith_divisors == (2, 4, 4)
    assert inv.exponent_aS == 4


def test_invariants_divisor_product(ex134, u, u_plus_2, u_plus_a2, diag22m):
    import math

    for lat in (ex134, u, u_plus_2, u_plus_a2, diag22m):
        inv = invariants(lat)
        assert math.prod(inv.smith_divisors) == abs(inv.determinant)
        for a, b in zip(inv.smith_divisors, inv.smith_divisors[1:]):
            assert b % a == 0


def test_invariants_rank1():
    inv = invariants(Lattice(gram=((1,),)))
    assert inv.signature == (1, 0)
    assert not inv.even


def test_invariants_degenerate():
    with pytest.raises(DomainError):
        invariants(Lattice(gram=((1, 1), (1, 1))))


def test_gram_matrix_must_be_square_and_symmetric():
    with pytest.raises(DimensionError, match="square"):
        Lattice(gram=((1, 2, 3), (2, 1, 0)))
    with pytest.raises(DegenerateFormError, match="symmetric"):
        Lattice(gram=((1, 2), (3, 1)))


def test_invariants_scaling_property(ex134, u, u_plus_2, u_plus_a2):
    rng = random.Random(5)
    lattices = [ex134, u, u_plus_2, u_plus_a2]
    # plus random nondegenerate symmetric lattices of rank <= 4
    while len(lattices) < 12:
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        gram = tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n))
        if linalg.det(gram) != 0:
            lattices.append(Lattice(gram=gram))
    for lat in lattices:
        m = rng.choice([2, 3, 5])
        inv, sinv = invariants(lat), invariants(scaled(lat, m))
        assert sinv.signature == inv.signature
        assert sinv.smith_divisors == tuple(m * d for d in inv.smith_divisors)


def test_invariants_smith_oracle(ex134, u_plus_2, u_plus_a2, diag22m):
    for lat in (ex134, u_plus_2, u_plus_a2, diag22m):
        ours = [d for d in invariants(lat).smith_divisors]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix([list(r) for r in lat.gram]))]
        assert ours == theirs


def test_a_delta(ex134):
    assert a_delta(ex134, (1, 0, 0)) == 2
    # pairings of f01/2 = (2,1,0) with the basis are (2,-2,-6): gcd 2
    assert a_delta(ex134, (2, 1, 0)) == 2
    assert a_delta(ex134, linalg.primitive(F01)) == 2


def test_a_delta_unit_pairing(u):
    assert a_delta(u, (1, 0)) == 1


def test_a_delta_rejects_imprimitive(ex134):
    with pytest.raises(DomainError):
        a_delta(ex134, (2, 0, 0))
    with pytest.raises(DomainError):
        a_delta(ex134, (0, 0, 0))


def test_a_delta_divides_exponent(ex134, u_plus_2, u_plus_a2):
    rng = random.Random(6)
    for lat in (ex134, u_plus_2, u_plus_a2):
        a_s = invariants(lat).exponent_aS
        done = 0
        while done < 25:
            v = tuple(rng.randint(-5, 5) for _ in range(lat.rank))
            if all(x == 0 for x in v):
                continue
            v = linalg.primitive(v)
            assert a_s % a_delta(lat, v) == 0
            done += 1


def test_reflection_examples(ex134):
    s1 = reflection(ex134, (1, 0, 0))
    assert linalg.mat_vec(s1, (1, 0, 0)) == (-1, 0, 0)
    assert linalg.mat_vec(s1, (0, 1, 0)) == (2, 1, 0)       # s1(d2) = d2 + 2 d1
    s3 = reflection(ex134, (0, 0, 1))
    assert linalg.mat_vec(s3, CUSP) == CUSP                  # S(c, d3) = 0
    assert pair(ex134, linalg.mat_vec(s1, (0, 1, 0)), linalg.mat_vec(s1, (0, 1, 0))) == 2
    # twice the image of d2 is f01 of norm 8
    assert tuple(2 * x for x in linalg.mat_vec(s1, (0, 1, 0))) == F01


def test_reflection_rejects_bad_vectors(ex134):
    with pytest.raises(DomainError):
        reflection(ex134, CUSP)          # isotropic
    with pytest.raises(DomainError):
        reflection(ex134, (1, 1, 1))     # timelike
    # norm 18 and pairings (6, -6, -10): 18 does not divide 2 * 6
    with pytest.raises(DomainError, match="not crystallographic"):
        reflection(ex134, (4, 1, 0))


def test_crystallographic(ex134, u):
    assert is_crystallographic(ex134, (1, 0, 0))
    assert is_crystallographic(ex134, F01)               # norm 8, pairings (4,-4,-12)
    assert is_crystallographic(u, (1, -1))
    with pytest.raises(DomainError):
        is_crystallographic(ex134, (1, 1, 2))            # norm -8, not spacelike


def test_is_isometry(ex134):
    assert is_isometry(ex134, linalg.identity(3))
    assert is_isometry(ex134, reflection(ex134, (1, 0, 0)))
    assert is_isometry(ex134, PHI)
    assert linalg.mat_vec(PHI, CUSP) == CUSP
    # phi is the product of the two reflections
    s2, s3 = reflection(ex134, (0, 1, 0)), reflection(ex134, (0, 0, 1))
    assert linalg.mat_mul(s3, s2) == PHI
    bad = ((1, 0, 0), (0, 1, 0), (0, 1, 1))
    assert not is_isometry(ex134, bad)
    with pytest.raises(DimensionError, match="isometry matrix size"):
        is_isometry(ex134, ((1, 0), (0, 1)))


def test_int_inverse_rejects_non_unimodular():
    assert int_inverse(PHI) == linalg.inverse(PHI)
    assert linalg.mat_mul(PHI, int_inverse(PHI)) == linalg.identity(3)
    assert int_inverse(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    # determinant 2 and 3: the rational inverse has a non-integer entry
    for g in (((2, 0), (0, 1)), ((1, 1), (-1, 2)), ((2, 1, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(DomainError, match="not unimodular"):
            int_inverse(g)


def _random_crystallographic(rng, lat, count):
    found = []
    while len(found) < count:
        v = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        if all(x == 0 for x in v):
            continue
        if norm(lat, v) <= 0:
            continue
        if is_crystallographic(lat, v):
            found.append(v)
    return found


def test_reflection_involution_and_invariance(ex134, u_plus_2, u_plus_a2, diag22m):
    rng = random.Random(7)
    for lat in (ex134, u_plus_2, u_plus_a2, diag22m):
        for d in _random_crystallographic(rng, lat, 50):
            s = reflection(lat, d)
            assert linalg.mat_mul(s, s) == linalg.identity(lat.rank)
            assert is_isometry(lat, s)
            x = tuple(rng.randint(-5, 5) for _ in range(lat.rank))
            y = tuple(rng.randint(-5, 5) for _ in range(lat.rank))
            assert pair(lat, linalg.mat_vec(s, x), linalg.mat_vec(s, y)) == pair(lat, x, y)


def test_timelike_vector(ex134, u, u_plus_2, u_plus_a2, diag22m):
    for lat in (ex134, u, u_plus_2, u_plus_a2, diag22m):
        h = timelike_vector(lat)
        assert norm(lat, h) < 0
    with pytest.raises(DomainError, match="no timelike vectors"):
        timelike_vector(Lattice(gram=((2, 0), (0, 0))))


def test_json_roundtrip(tmp_path, ex134):
    import json

    from lorentzroots.lattice import load_lattice

    path = tmp_path / "lat.json"
    path.write_text(json.dumps(ex134.to_dict()))
    again = load_lattice(path)
    assert again == ex134
