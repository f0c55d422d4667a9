"""Height-ordered enumeration, chamber accretion and the pairing bounds."""

import itertools
from fractions import Fraction

import pytest

from lorentzroots import cones, linalg, vinberg
from lorentzroots.errors import ControllerOnMirrorError, DomainError
from lorentzroots.lattice import Lattice, apply_isometry, norm, pair, reflection
from lorentzroots.vinberg import HeightKey, RootFilter


H = (1, 1, 1)
NORMS2 = RootFilter(norms=frozenset({2}))


def test_height_key_ordering():
    assert HeightKey(4, 2) == HeightKey(2, 1)
    assert HeightKey(1, 2) < HeightKey(4, 2) < HeightKey(144, 8)
    assert sorted([HeightKey(144, 8), HeightKey(4, 2), HeightKey(36, 2)]) \
        == [HeightKey(4, 2), HeightKey(144, 8), HeightKey(36, 2)]
    assert HeightKey(1, 1) != 1 and HeightKey(1, 1) != "1"
    with pytest.raises(TypeError):
        HeightKey(1, 1) < 1
    with pytest.raises(DomainError):
        HeightKey(-1, 2)
    with pytest.raises(DomainError):
        HeightKey(1, 0)


def brute_first_shell(lat, h, d, max_key, box=10):
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=lat.rank):
        if norm(lat, x) != d or linalg.content(x) != 1:
            continue
        m = -pair(lat, h, x)
        if m <= 0 or HeightKey(m * m, d) > max_key:
            continue
        from lorentzroots.lattice import is_crystallographic

        if is_crystallographic(lat, x):
            out.append(x)
    return sorted(out)


def test_first_shell_matches_bruteforce(ex134):
    got = vinberg.enumerate_roots(ex134, H, NORMS2, HeightKey(4, 2))
    assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert sorted(got) == brute_first_shell(ex134, H, 2, HeightKey(4, 2))


def test_enumeration_matches_bruteforce_broadly(ex134, u_plus_2, u_plus_a2, diag22m):
    # deeper shells, several lattices and norm sets, against the box oracle
    configs = [
        (ex134, (1, 1, 1), {2}, HeightKey(100, 2)),
        (ex134, (4, 3, 2), {2, 8}, HeightKey(256, 8)),
        (u_plus_2, (-4, -3, -1), {2, 4}, HeightKey(81, 1)),
        (diag22m, (1, 2, 4), {2, 4}, HeightKey(100, 1)),
        (u_plus_a2, (-4, -3, -1, -1), {2}, HeightKey(49, 1)),
    ]
    for lat, h, norms, max_key in configs:
        filt = RootFilter(norms=frozenset(norms))
        got = sorted(vinberg.enumerate_roots(lat, h, filt, max_key))
        brute = []
        for d in norms:
            brute.extend(brute_first_shell(lat, h, d, max_key, box=12))
        assert got == sorted(brute), (lat.name, norms)


def test_shell_arithmetic_is_exact(monkeypatch):
    # every shell gets its centre and radius as exact rationals, never floats
    seen = []
    quadric = linalg.quadric_integer_points

    def spy(ldl, centre, radius):
        seen.append((tuple(centre), radius))
        return quadric(ldl, centre, radius)

    monkeypatch.setattr(linalg, "quadric_integer_points", spy)
    i41 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(5))
                             for i in range(5)))
    rep = vinberg.run(i41, (400, 4, 3, 2, 1), RootFilter(norms=frozenset({1, 2})),
                      max_key=HeightKey(10 ** 7, 1))
    assert rep.terminated and len(rep.accepted) == 5
    assert seen
    for centre, radius in seen:
        assert type(radius) in (int, Fraction)
        assert all(type(c) in (int, Fraction) for c in centre)


def test_zero_key_is_empty(ex134):
    assert vinberg.enumerate_roots(ex134, H, NORMS2, HeightKey(0, 2)) == []


def test_rootless_norm_set_terminates():
    # 3x^2 - y^2 = 1 has no solutions mod 3, so diag(6,-2) has no norm-2
    # roots at any height; the stream must still stop at the key budget
    lat = Lattice(gram=((6, 0), (0, -2)))
    assert vinberg.enumerate_roots(lat, (0, 1), NORMS2, HeightKey(400, 1)) == []
    rep = vinberg.run(lat, (0, 1), NORMS2, max_key=HeightKey(400, 1))
    assert rep.accepted == () and rep.exhausted and not rep.terminated


def test_empty_norms_rejected():
    with pytest.raises(DomainError):
        RootFilter(norms=frozenset())


def test_enumerate_prefix_stability(ex134):
    small = vinberg.enumerate_roots(ex134, H, NORMS2, HeightKey(36, 2))
    big = vinberg.enumerate_roots(ex134, H, NORMS2, HeightKey(100, 2))
    assert big[:len(small)] == small
    assert len(big) > len(small)


def test_run_triangle(ex134):
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    assert rep.terminated and not rep.exhausted
    assert sorted(rep.accepted) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert rep.gram == ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))


def test_run_budget_zero(ex134):
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1), max_roots=0)
    assert rep.accepted == () and rep.exhausted and not rep.terminated


def test_run_prefix_stability_under_budget(ex134):
    full = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    for k in (1, 2):
        part = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1), max_roots=k)
        assert part.exhausted
        assert part.accepted == full.accepted[:k]


def test_controller_on_mirror_cases(ex134, diag22m):
    # (0,0,1) is orthogonal to the norm-2 root (1,0,0) of diag(2,2,-2)
    with pytest.raises(ControllerOnMirrorError):
        vinberg.enumerate_roots(diag22m, (0, 0, 1), NORMS2, HeightKey(4, 1))
    # with norms {2,8} the center (1,1,1) of the ex134 triangle lies on the
    # norm-8 mirror of (-1,0,1): the spec's example controller is invalid here
    with pytest.raises(ControllerOnMirrorError):
        vinberg.enumerate_roots(ex134, H, RootFilter(norms=frozenset({2, 8})),
                                HeightKey(4, 2))


def test_run_norms_2_8_with_generic_controller(ex134):
    # mathematically correct {2,8} chamber: the triangle is cut by norm-8
    # mirrors through its ideal vertices, leaving a sixth of it
    filt = RootFilter(norms=frozenset({2, 8}))
    rep = vinberg.run(ex134, (4, 3, 2), filt, max_key=HeightKey(400, 1))
    assert rep.terminated
    assert sorted(rep.accepted) == [(-1, 1, 0), (0, -1, 1), (1, 0, 0)]
    art = cones.is_arithmetic_type(ex134, rep.accepted)
    assert sorted(norm(ex134, r) for r in art.cone.rays) == [-8, -6, 0]
    # the direction of f01 appears later in the stream (squared height 50 here)
    found = vinberg.enumerate_roots(ex134, (4, 3, 2), filt, HeightKey(100, 2))
    assert (2, 1, 0) in found
    assert pair(ex134, (2, 1, 0), (1, 0, 0)) > 0   # would be rejected against d1


def test_congruence_filter(ex134):
    # roots congruent to d1 modulo 2M
    filt = RootFilter(norms=frozenset({2}),
                      congruence=(((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((1, 0, 0),)))
    got = vinberg.enumerate_roots(ex134, H, filt, HeightKey(36, 2))
    assert got[0] == (1, 0, 0)
    assert all((x[0] - 1) % 2 == 0 and x[1] % 2 == 0 and x[2] % 2 == 0 for x in got)
    assert (0, 1, 0) not in got


def test_gram_bound_check_triangle(ex134, triangle):
    rep = vinberg.gram_bound_check(ex134, triangle)
    assert rep.violations == ()
    assert rep.spanning_subset == (0, 1, 2)


def test_gram_bound_check_diagonal_boundary():
    lat = Lattice(gram=((2, 0), (0, -2)))
    rep = vinberg.gram_bound_check(lat, [(1, 0)], strict=True)
    assert rep.violations == ()          # -2S/2 = -2 at the lower boundary


def test_gram_bound_check_synthetic_violation():
    lat = Lattice(gram=((2, -63), (-63, 2)))
    rep = vinberg.gram_bound_check(lat, [(1, 0), (0, 1)], strict=True)
    assert rep.violations == ((0, 1),)
    assert rep.spanning_subset is None
    loose = vinberg.gram_bound_check(lat, [(1, 0), (0, 1)], strict=False)
    assert loose.violations == ((0, 1),)  # 63 exceeds even the closed bound
    edge = Lattice(gram=((2, -62), (-62, 2)))
    assert vinberg.gram_bound_check(lat, [(1, 0)], strict=True).violations == ()
    assert vinberg.gram_bound_check(edge, [(1, 0), (0, 1)], strict=True).violations == ((0, 1),)
    assert vinberg.gram_bound_check(edge, [(1, 0), (0, 1)], strict=False).violations == ()


def _wall_is_facet(lat, roots, wall):
    cone = cones.dual_extreme_rays(lat, roots)
    tight = [r for r in cone.rays if pair(lat, r, wall) == 0]
    tight += list(cone.lineality)
    return linalg.rank(tight) == lat.rank - 1


def test_accepted_roots_are_walls(ex134, u_plus_2, u_plus_a2, diag22m):
    runs = [
        (ex134, H, NORMS2),
        (u_plus_2, (-4, -3, -1), NORMS2),
        (diag22m, (1, 2, 4), RootFilter(norms=frozenset({2, 4}))),
        (u_plus_a2, (-4, -3, -1, -1), NORMS2),
    ]
    for lat, h, filt in runs:
        rep = vinberg.run(lat, h, filt, max_key=HeightKey(2000, 1), max_roots=16)
        assert rep.terminated, (lat.name, rep)
        for i in range(len(rep.accepted)):
            for j in range(i + 1, len(rep.accepted)):
                assert pair(lat, rep.accepted[i], rep.accepted[j]) <= 0
        for wall in rep.accepted:
            assert _wall_is_facet(lat, rep.accepted, wall)
        bound = vinberg.gram_bound_check(lat, rep.accepted)
        assert bound.violations == ()
        assert bound.spanning_subset is not None


def test_acceptance_order_monotone(ex134):
    rep = vinberg.run(ex134, (4, 3, 2), RootFilter(norms=frozenset({2, 8})),
                      max_key=HeightKey(400, 1))
    keys = []
    for x in rep.accepted:
        m = -pair(ex134, (4, 3, 2), x)
        keys.append(HeightKey(m * m, norm(ex134, x)))
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_orbit_soundness(ex134):
    # reflecting the controller through an accepted wall reflects the chamber
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    wall = rep.accepted[0]
    s = reflection(ex134, wall)
    h2 = apply_isometry(s, H)
    rep2 = vinberg.run(ex134, h2, NORMS2, max_key=HeightKey(1000, 1))
    assert sorted(rep2.accepted) == sorted(apply_isometry(s, r) for r in rep.accepted)
