"""Height-ordered enumeration, chamber accretion and the pairing bounds."""

import ast
import itertools
import random
import re
import sys
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lorentzroots import cones, linalg, vinberg, weylstruct
from lorentzroots.errors import (ControllerOnMirrorError, DegenerateFormError, DimensionError,
                                 DomainError)
from lorentzroots.lattice import (Lattice, gram_matrix, is_crystallographic, norm, pair,
                                  reflection, timelike_vector)
from lorentzroots.vinberg import HeightKey, RootFilter
from test_cones import _reference_cone
from test_linalg import last_slab


H = (1, 1, 1)
NORMS2 = RootFilter(norms=frozenset({2}))


def test_height_key_ordering(ex134):
    # keys are not ordered; the stream orders by height, so two keys with the
    # same value cut it at the same shell and a larger key reads further
    with pytest.raises(TypeError):
        HeightKey(1, 2) < HeightKey(4, 2)
    with pytest.raises(TypeError):
        HeightKey(1, 1) < 1
    with pytest.raises(DomainError):
        HeightKey(-1, 2)
    with pytest.raises(DomainError):
        HeightKey(1, 0)
    for h, norms in ((H, {2}), ((4, 3, 2), {2, 8})):
        filt = RootFilter(norms=frozenset(norms))
        cut = [list(vinberg.candidate_stream(ex134, h, filt, HeightKey(num, den)))
               for num, den in ((36, 2), (18, 1), (54, 3), (100, 2))]
        assert cut[0] == cut[1] == cut[2] and len(cut[0]) < len(cut[3])


def test_a_budget_that_is_not_a_height_key_is_rejected(ex134):
    # a float, str or None has no numerator, and an int or Fraction would
    # skip HeightKey's numerator >= 0 rule and read as an empty, exhausted run
    for bad in (2.5, "9", None, -5, Fraction(-1, 2), 100, (100, 1)):
        with pytest.raises(DomainError, match="max_key"):
            vinberg.candidate_stream(ex134, H, NORMS2, bad)
        with pytest.raises(DomainError, match="max_key"):
            vinberg.run(ex134, H, NORMS2, max_key=bad)


def test_height_key_hash_and_repr():
    # a key is the integer pair it was given: equality and hash are field-wise
    assert len({HeightKey(4, 2), HeightKey(4, 2)}) == 1
    assert len({HeightKey(4, 2), HeightKey(2, 1)}) == 2
    assert HeightKey(1, 1) != 1 and HeightKey(1, 1) != "1"
    assert repr(HeightKey(4, 2)) == "HeightKey(numerator=4, denominator=2)"
    assert not hasattr(HeightKey(4, 2), "value")


def brute_first_shell(lat, h, d, max_key, box=10):
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=lat.rank):
        if norm(lat, x) != d or linalg.content(x) != 1:
            continue
        m = -pair(lat, h, x)
        if m <= 0 or Fraction(m * m, d) > Fraction(max_key.numerator, max_key.denominator):
            continue
        from lorentzroots.lattice import is_crystallographic

        if is_crystallographic(lat, x):
            out.append(x)
    return sorted(out)


def test_first_shell_matches_bruteforce(ex134):
    got = list(vinberg.candidate_stream(ex134, H, NORMS2, HeightKey(4, 2)))
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
        got = sorted(vinberg.candidate_stream(lat, h, filt, max_key))
        brute = []
        for d in norms:
            brute.extend(brute_first_shell(lat, h, d, max_key, box=12))
        assert got == sorted(brute), (lat.name, norms)


def test_shell_arithmetic_is_exact(monkeypatch):
    # every shell gets its centre and radius as Python ints, never floats
    # or Fractions, and no Fraction is made for a shell: the scaling is done
    # once per controller
    seen, made = [], []
    quadric, shells, new = linalg.quadric_integer_points, vinberg.shells, Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def spy(form, centre, radius):
        seen.append((form, tuple(centre), radius))
        return quadric(form, centre, radius)

    def spy_shells(lattice, h):
        roots, walk = shells(lattice, h)

        def spy_roots(d, m):
            before = len(made)
            out = roots(d, m)
            assert len(made) == before, made[before:]
            return out
        return spy_roots, walk

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(vinberg, "shells", spy_shells)
    monkeypatch.setattr(linalg, "quadric_integer_points", spy)
    i41 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(5))
                             for i in range(5)))
    rep = vinberg.run(i41, (400, 4, 3, 2, 1), RootFilter(norms=frozenset({1, 2})),
                      max_key=HeightKey(10 ** 7, 1))
    assert rep.terminated and len(rep.accepted) == 5
    assert seen
    for (nn, nu, kd), centre, radius in seen:
        assert type(radius) is int
        assert all(type(c) is int for c in centre)
        assert type(nn) is int and all(type(x) is int for row in nu for x in row)
        assert all(type(x) is int for x in kd)
    Fraction(1, 2)
    assert made[-1] == (1, 2)


def test_shells_whose_norm_does_not_divide_twice_the_pairing_are_skipped(monkeypatch):
    # a crystallographic x of norm d has d | 2 S(e_j, x) for every j, so
    # d | 2 S(h, x) = -2m: on U+<22> no norm-22 shell with 11 not dividing m
    lat = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    h = (22, 30, -1)
    hh = -norm(lat, h)
    seen, shell, scales = [], [], set()
    quadric, shells = linalg.quadric_integer_points, vinberg.shells

    def spy_shells(lattice, h):
        roots, walk = shells(lattice, h)

        def spy_roots(d, m):
            shell[:] = [(d, m)]
            return roots(d, m)
        return spy_roots, walk

    def spy(form, centre, radius):
        # the scaled radius is (d hh + m^2) times one constant per controller
        d, m = shell[0]
        assert radius % (d * hh + m * m) == 0
        scales.add(radius // (d * hh + m * m))
        seen.append((d, m))
        return quadric(form, centre, radius)

    monkeypatch.setattr(vinberg, "shells", spy_shells)
    monkeypatch.setattr(linalg, "quadric_integer_points", spy)
    max_key = HeightKey(22 * 22, 22)
    got = list(vinberg.candidate_stream(lat, h, RootFilter(norms=frozenset({2, 22})), max_key))
    assert sorted(got) == sorted(brute_first_shell(lat, h, 2, max_key)
                                 + brute_first_shell(lat, h, 22, max_key))
    assert any(norm(lat, x) == 22 for x in got)
    assert len(scales) == 1
    # the admissible norm-2 shells m = 2, 4, 6 hold no integer in their last
    # slab, and m = 0 has no solution mod 8, so the stream descends none of
    # them; they are empty
    assert set(seen) == {(22, 0), (22, 22)}
    assert all(m % 11 == 0 for d, m in seen if d == 22)
    monkeypatch.undo()
    roots, _ = vinberg.shells(lat, h)
    assert roots(2, 0) == roots(2, 2) == roots(2, 4) == roots(2, 6) == []


def test_shells_return_exactly_the_crystallographic_vectors(ex134):
    # roots(d, m) of every shell with g | m (g = gcd(G h)) up to the key bound
    # against a box, with the non-primitive 2 (1,0,0) of norm 8 kept; in a
    # shell with d not dividing 2m the crystallographic row test rejects every
    # point.  On U + <6> each of the two rows tested for norm 6 is the only
    # one that rejects some vector of the box
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    d6 = Lattice(gram=((-6, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)))
    u6 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 6)))
    cases = [(ex134, (4, 3, 2), {2, 8}, 32, 12), (u22, (22, 30, -1), {2, 22}, 22, 12),
             (d6, (3, 1, 2, 2), {1, 2, 3, 6}, 12, 6), (u6, (3, 3, 1), {2, 6}, 12, 8)]
    drops = []
    for lat, h, norms, key, box in cases:
        want, dropped = {}, 0
        for x in itertools.product(range(-box, box + 1), repeat=lat.rank):
            d, m = norm(lat, x), -pair(lat, h, x)
            if d not in norms or m < 0 or m * m > key * d:
                continue
            if not is_crystallographic(lat, x):
                dropped += 2 * m % d == 0     # left to the test in the shell
                continue
            assert max(map(abs, x)) < box, (lat.gram, x)
            want.setdefault((d, m), []).append(x)     # product order is sorted
        roots, _ = vinberg.shells(lat, h)
        g, inadmissible = linalg.content(linalg.mat_vec(lat.gram, h)), 0
        for d in sorted(norms):
            for m in range(0, isqrt(key * d) + 1, g):
                assert roots(d, m) == want.pop((d, m), []), (lat.gram, d, m)
                inadmissible += 2 * m % d != 0
        assert not want, lat.gram
        drops.append((dropped, inadmissible))
    # the even form of ex134 makes every vector of norm 2 or 8 crystallographic;
    # on U + <6>, g = 3 leaves no g | m shell with d not dividing 2m
    assert drops[0][0] == 0 and all(n for n, _ in drops[1:])
    assert all(n for _, n in drops[:3]) and drops[3][1] == 0
    assert (2, 0, 0) in vinberg.shells(ex134, (4, 3, 2))[0](8, 4)


def brute_stream(lat, h, norms, max_key, box):
    """(key, norm, root) of every admissible root in a box with key <= max_key,
    sorted as Fractions: the order candidate_stream promises."""
    from lorentzroots.lattice import is_crystallographic

    bound = Fraction(max_key.numerator, max_key.denominator)
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=lat.rank):
        d, m = norm(lat, x), -pair(lat, h, x)
        if d in norms and m > 0 and Fraction(m * m, d) <= bound \
                and linalg.content(x) == 1 and is_crystallographic(lat, x):
            out.append((Fraction(m * m, d), d, x))
    return sorted(out)


def test_stream_keys_and_order_match_a_fraction_sort(ex134):
    # integer heap keys m^2 (L/d), L = lcm(norms), against Fraction keys
    d6 = Lattice(gram=((-6, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)))
    configs = [(d6, (3, 1, 2, 2), {1, 2, 3, 6}, HeightKey(49, 3), 7, 0),
               (d6, (3, 1, 2, 2), {1, 2, 3, 6}, HeightKey(75, 2), 7, 2),
               (ex134, (4, 3, 2), {2, 8}, HeightKey(256, 8), 12, 1)]  # ties across norms
    for lat, h, norms, max_key, box, on_bound in configs:
        got = list(vinberg.candidate_stream(lat, h, RootFilter(norms=frozenset(norms)),
                                            max_key))
        want = brute_stream(lat, h, norms, max_key, box)
        assert [(Fraction(pair(lat, h, x) ** 2, norm(lat, x)), norm(lat, x), x) for x in got] \
            == want
        assert all(max(map(abs, x)) < box for x in got)
        assert {d for _, d, _ in want} == norms
        assert sum(k == Fraction(max_key.numerator, max_key.denominator)
                   for k, _, _ in want) == on_bound


def every_m_stream(lat, h, filt, max_key):
    """What candidate_stream yields, rebuilt from roots(d, m) at every
    m = 0..M with g = gcd(G h) | m of every norm: the primitive,
    congruence-admissible roots sorted by (m^2/d, d, x) and cut at the key
    bound."""
    roots, _ = vinberg.shells(lat, h)
    g, out = linalg.content(linalg.mat_vec(lat.gram, h)), []
    for d in filt.norms:
        for m in range(0, isqrt(max_key.numerator * d // max_key.denominator) + 1, g):
            out.extend((Fraction(m * m, d), d, x) for x in roots(d, m)
                       if linalg.content(x) == 1 and vinberg._congruence_test(filt)(x))
    return [x for _, _, x in sorted(out)]


def test_stepped_stream_equals_a_stream_over_every_pairing(ex134, u_plus_a2):
    # the stream steps m by lcm(g, d/gcd(d, 2)), g = gcd(G h); the skipped
    # pairings hold no root, so nothing is lost, reordered or added
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    i41 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(5))
                             for i in range(5)))
    m1 = (((1, 1, -2), (1, 0, 3), (0, 1, 1)), ((1, 0, 0), (0, 1, 0)))
    cases = [(u22, (22, 30, -1), {2, 22}, None, HeightKey(10 ** 5, 1)),   # g = 2, q = 11
             (ex134, (4, 3, 2), {2, 8}, None, HeightKey(2000, 1)),        # g = 2, q = 4
             (u_plus_a2, (-4, -3, -1, -1), {2}, None, HeightKey(400, 1)),
             (i41, (400, 4, 3, 2, 1), {1, 2}, None, HeightKey(10 ** 5, 1)),
             (ex134, (4, 3, 2), {2, 8}, m1, HeightKey(2000, 1))]
    assert linalg.content(linalg.mat_vec(u22.gram, (22, 30, -1))) == 2
    for lat, h, norms, congruence, max_key in cases:
        filt = RootFilter(norms=frozenset(norms), congruence=congruence)
        got = list(vinberg.candidate_stream(lat, h, filt, max_key))
        assert got and got == every_m_stream(lat, h, filt, max_key), (lat.gram, congruence)
    # the m = 0 shells still come first: the classical controller (1, 0, ..., 0)
    # of I_{5,1} lies on the mirrors of e_1, ..., e_5
    i51 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(6))
                             for i in range(6)))
    with pytest.raises(ControllerOnMirrorError):
        list(vinberg.candidate_stream(i51, (1, 0, 0, 0, 0, 0),
                                      RootFilter(norms=frozenset({1, 2})), HeightKey(100, 1)))


def test_deep_runs_descend_only_admissible_pairings(monkeypatch):
    # the three full-size runs of the `deep` benchmark workload: every shell
    # the stream asks for has m = 0 mod lcm(g, d/gcd(d, 2)), an integer in
    # its last slab, a solution mod 8 and mod 11 or 13, and no inert prime to
    # an odd power in its scaled radius, so each roots(d, m) call descends
    # (964 calls; 1,896 without the residue test, 3,351 without the inert
    # primes either, 3,501 without the slab test too, 10,098 with m stepped
    # by 1).  Up to the key bound, each walk keeps only admissible pairings
    # whose last slab holds an integer, and every such pairing it drops is
    # empty under the real descent
    calls, descents, walks = [], [], []
    quadric, shells = linalg.quadric_integer_points, vinberg.shells

    def spy_shells(lattice, h):
        roots, walk = shells(lattice, h)
        g = linalg.content(linalg.mat_vec(lattice.gram, h))

        def spy_roots(d, m):
            calls.append((g, d, m))
            return roots(d, m)

        def spy_walk(d, big, bound):
            walks.append((lattice, h, roots, walk, g, d, big, bound))
            return walk(d, big, bound)
        return spy_roots, spy_walk

    monkeypatch.setattr(vinberg, "shells", spy_shells)
    monkeypatch.setattr(linalg, "quadric_integer_points",
                        lambda *a: descents.append(a) or quadric(*a))
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    u26 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 26)))
    for lat, h, norms, max_roots in ((u22, (22, 30, -1), {2}, 24),
                                     (u22, (22, 30, -1), {2, 22}, None),
                                     (u26, (-12, -28, -3), {2}, 40)):
        vinberg.run(lat, h, RootFilter(norms=frozenset(norms)),
                    max_key=HeightKey(4 * 10 ** 6, 1), max_roots=max_roots)
    assert all(m % lcm(g, d // gcd(d, 2)) == 0 for g, d, m in calls)
    assert len(calls) == len(descents) == 964
    assert all(lo <= hi for lo, hi in (last_slab(*a) for a in descents))
    # every admissible pairing up to the bound, its slab read off the
    # arguments roots(d, m) passes the real descent
    slabs = []
    monkeypatch.setattr(linalg, "quadric_integer_points",
                        lambda *a: slabs.append(a) or quadric(*a))
    by_slab = by_residue = by_prime = 0
    for lat, h, roots, walk, g, d, big, bound in walks:
        walked = {m for _, _, m in walk(d, big, bound)}
        with monkeypatch.context() as mp:
            mp.setattr(vinberg, "_residue_masks", lambda q: [])
            _, prime_walk = shells(lat, h)
        prime_walked = {m for _, _, m in prime_walk(d, big, bound)}
        assert walked <= prime_walked
        step = lcm(g, d // gcd(d, 2))
        for m in range(0, isqrt(bound // (big // d)) + 1, step):
            found = roots(d, m)
            lo, hi = last_slab(*slabs[-1])
            if m in walked:
                assert lo <= hi, (d, m)
            elif lo <= hi:
                assert found == [], (d, m)
                by_residue += m in prime_walked
                by_prime += m not in prime_walked
            else:
                by_slab += 1
    assert (by_slab, by_residue, by_prime) == (150, 1247, 1772)


def test_non_integer_norms_keys_and_controllers_rejected(ex134):
    for norms in ({2.5}, {True}, {2, 2.0001}, {Fraction(2)}):
        with pytest.raises(DomainError, match="norm .* is not an integer"):
            RootFilter(norms=frozenset(norms))
    with pytest.raises(DomainError, match="2.5"):
        RootFilter(norms=frozenset({2.5}))
    for num, den in ((1.5, 1), (4, 2.0), (True, 1), (4, False), (Fraction(4), 1)):
        with pytest.raises(DomainError, match="height key .* is not an integer"):
            HeightKey(num, den)
    for h in ((1.0, 1, 1), (True, 1, 1), (Fraction(1), 1, 1), (1, 1, 1.5)):
        with pytest.raises(DomainError, match="controller entry .* is not an integer"):
            vinberg.run(ex134, h, NORMS2, max_key=HeightKey(100, 1))
        with pytest.raises(DomainError, match="controller entry .* is not an integer"):
            list(vinberg.candidate_stream(ex134, h, NORMS2, HeightKey(100, 1)))


def test_zero_key_is_empty(ex134):
    assert list(vinberg.candidate_stream(ex134, H, NORMS2, HeightKey(0, 2))) == []


def test_rank_one_lattice_has_no_roots():
    # the kernel of S(h, .) is 0, so no shell has a slab, and the radius
    # (d |S(h,h)| + m^2) / |S(h,h)| > 0 leaves every shell empty
    lat = Lattice(gram=((-2,),))
    rep = vinberg.run(lat, (1,), NORMS2, max_key=HeightKey(1000, 1))
    assert rep == vinberg.ChamberReport(accepted=(), terminated=False, gram=())
    assert list(vinberg.candidate_stream(lat, (3,), RootFilter(norms=frozenset({1, 2, 8})),
                                         HeightKey(10 ** 6, 1))) == []


@pytest.mark.parametrize("gram, name, h", [
    (((-2, 0, 0), (0, -2, 0), (0, 0, 2)), "diag(-2,-2,2)", (1, 0, 0)),
    (((0, 0, 0), (0, 2, 0), (0, 0, -2)), "degenerate", (0, 0, 1)),
    (((-2, 0, 0), (0, -2, 0), (0, 0, 2)), "", (1, 0, 0)),
])
def test_a_lattice_that_is_not_hyperbolic_is_named(gram, name, h):
    # on a lattice that is not hyperbolic, h^perp is indefinite or degenerate
    lat = Lattice(gram=gram, name=name)
    label = name or f"with Gram {gram}"
    message = (f"^lattice {re.escape(label)} is not hyperbolic: "
               "the form is not positive definite on h\\^perp$")
    for call in (lambda: vinberg.run(lat, h, NORMS2, max_key=HeightKey(100, 1)),
                 lambda: list(vinberg.candidate_stream(lat, h, NORMS2, HeightKey(100, 1))),
                 lambda: weylstruct.candidate_roots_for_weyl_vector(lat, h, 4)):
        with pytest.raises(DegenerateFormError, match=message):
            call()


def test_rootless_norm_set_terminates():
    # 3x^2 - y^2 = 1 has no solutions mod 3, so diag(6,-2) has no norm-2
    # roots at any height; the stream must still stop at the key budget
    lat = Lattice(gram=((6, 0), (0, -2)))
    assert list(vinberg.candidate_stream(lat, (0, 1), NORMS2, HeightKey(400, 1))) == []
    rep = vinberg.run(lat, (0, 1), NORMS2, max_key=HeightKey(400, 1))
    assert rep.accepted == () and rep.exhausted and not rep.terminated


def test_empty_norms_rejected():
    with pytest.raises(DomainError):
        RootFilter(norms=frozenset())


def test_enumerate_prefix_stability(ex134):
    small = list(vinberg.candidate_stream(ex134, H, NORMS2, HeightKey(36, 2)))
    big = list(vinberg.candidate_stream(ex134, H, NORMS2, HeightKey(100, 2)))
    assert big[:len(small)] == small
    assert len(big) > len(small)


@pytest.mark.parametrize("h", [(1, 0, 0), (0, 0, 0), (1, 1), (1.5, 1, 1)], ids=repr)
def test_run_checks_its_inputs_at_any_budget(ex134, h):
    # the stream checks the controller when it is called, so max_roots=0
    # rejects what max_roots=1 rejects instead of returning an empty report
    raised = []
    for budget in (1, 0):
        with pytest.raises(DomainError) as exc:
            vinberg.run(ex134, h, NORMS2, max_key=HeightKey(1000, 1), max_roots=budget)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]


def chain_gram(n, edges):
    """Cartan matrix of a simply-laced diagram on n nodes: 2 on the
    diagonal, -1 on each edge."""
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


E8 = chain_gram(8, [(i, i + 1) for i in range(6)] + [(4, 7)])
E10 = chain_gram(10, [(i, i + 1) for i in range(8)] + [(2, 9)])


def minus_inverse_sum(gram):
    """-G^-1 1: the vector pairing to -1 with every basis vector."""
    return tuple(-int(sum(row)) for row in linalg.inverse(gram))


def test_even_unimodular_chambers_ii_9_1_and_ii_17_1():
    # II_{9,1}: the E10 diagram is its whole chamber (Vinberg 1972), and
    # rho = -G^-1 1 is its Weyl vector, of norm -1240
    e10 = Lattice(gram=E10)
    rho = minus_inverse_sum(E10)
    rep = vinberg.run(e10, rho, NORMS2, max_key=HeightKey(10 ** 9, 1))
    assert rep.terminated and len(rep.accepted) == 10
    assert sorted(map(sorted, rep.gram)) == sorted(map(sorted, E10))
    weyl = weylstruct.lattice_weyl_vector(e10, rep.accepted)
    assert (weyl.kind, weyl.rho_norm, weyl.rho) == ("elliptic-type", -1240, rho)
    # the walls are the simple roots: S(rho, a) = -S(a, a)/2 up to norm 8
    # holds for the unit vectors only
    assert weylstruct.candidate_roots_for_weyl_vector(e10, weyl.rho, 8) \
        == sorted(linalg.identity(10))
    # II_{17,1} = E8 + E8 + U: 19 walls, pairwise at angle pi/2 or pi/3
    # (Vinberg 1975), with the same Gram rows from three controllers inside
    # both E8 chambers, each with the dual cone of the rank-test reference;
    # the Weyl vector's norm -620 is as measured here
    gram = [row + [0] * 10 for row in E8] + [[0] * 8 + row + [0, 0] for row in E8] \
        + [[0] * 16 + [0, -1], [0] * 16 + [-1, 0]]
    ii171 = Lattice(gram=gram)
    w = minus_inverse_sum(E8)
    rows = []
    for u in ((60, 61), (100, 103), (300, 307)):
        rep = vinberg.run(ii171, w + tuple(2 * x for x in w) + u, NORMS2,
                          max_key=HeightKey(10 ** 9, 1))
        assert rep.terminated and len(rep.accepted) == 19
        assert {x for row in rep.gram for x in row} == {2, 0, -1}
        rows.append(sorted(map(sorted, rep.gram)))
        assert cones.dual_extreme_rays(ii171, rep.accepted) == _reference_cone(ii171, rep.accepted)
        weyl = weylstruct.lattice_weyl_vector(ii171, rep.accepted)
        assert (weyl.kind, weyl.rho_norm) == ("elliptic-type", -620)
    assert rows[0] == rows[1] == rows[2]


def test_degenerate_cones_of_ii_25_1_match_the_rank_test_reference():
    # Conway's chamber of II_{25,1} = E8 + E8 + E8 + U has infinitely many
    # walls; the dual cones of its first walls are far from simplicial:
    # 90 extreme rays at 27 walls and 730 at 28 on 26 coordinates, as
    # measured here
    gram = [[0] * 26 for _ in range(26)]
    for b in range(0, 24, 8):
        for i, row in enumerate(E8):
            gram[b + i][b:b + 8] = row
    gram[24][25] = gram[25][24] = -1
    ii251 = Lattice(gram=gram)
    w = minus_inverse_sum(E8)
    h = w + tuple(2 * x for x in w) + tuple(3 * x for x in w) + (1000, 1009)
    rep = vinberg.run(ii251, h, NORMS2, max_key=HeightKey(10 ** 12, 1), max_roots=28)
    assert len(rep.accepted) == 28 and not rep.terminated
    assert {x for row in rep.gram for x in row} == {2, 0, -1}
    cone = cones.dual_extreme_rays(ii251, rep.accepted[:27])
    assert cone == _reference_cone(ii251, rep.accepted[:27])
    assert len(cone.rays) == 90 and not cone.lineality
    cone = cones.dual_extreme_rays(ii251, rep.accepted)
    assert len(cone.rays) == 730 and not cone.lineality


def _subdiagram(gram, s):
    """("elliptic" or "parabolic", rank) of the walls s, or None.  Elliptic:
    the Gram submatrix is positive definite, of rank |s|.  Parabolic: every
    connected component is positive semidefinite of corank 1, of rank |s|
    less the number of components."""
    sub = lambda t: [[gram[i][j] for j in t] for i in t]  # noqa: E731
    if linalg.signature(sub(s))[0] == len(s):
        return "elliptic", len(s)
    left, parts = set(s), []
    while left:
        part, todo = set(), [min(left)]
        while todo:
            i = todo.pop()
            part.add(i)
            todo += [j for j in left - part if gram[i][j]]
        left -= part
        parts.append(sorted(part))
    if all(linalg.signature(sub(p))[1:] == (0, 1) for p in parts):
        return "parabolic", len(s) - len(parts)
    return None


def _finite_volume_by_vinberg(gram, rank):
    """Vinberg's finite-volume criterion (Vinberg 1985, Hyperbolic reflection
    groups, Prop. 4.2) for the walls of a Coxeter polytope in hyperbolic
    space of dimension n - 1, n = rank: the polytope has finite volume iff
    it has a vertex, proper (an elliptic subdiagram of rank n - 1) or ideal
    (a parabolic one of rank n - 2), and every elliptic subdiagram of rank
    n - 2 extends in exactly two ways to an elliptic subdiagram of rank
    n - 1 or a parabolic one of rank n - 2.  Only subsets of at least n - 2
    walls are read."""
    n = rank
    kinds = {frozenset(s): _subdiagram(gram, s) for size in range(n - 2, len(gram) + 1)
             for s in itertools.combinations(range(len(gram)), size)}
    ends = {s for s, kind in kinds.items()
            if kind in (("elliptic", n - 1), ("parabolic", n - 2))}
    corners = [s for s, kind in kinds.items() if kind == ("elliptic", n - 2)]
    return bool(ends) and all(sum(s < t for t in ends) == 2 for s in corners)


def test_finite_volume_follows_vinbergs_criterion(ex134):
    # the criterion reads only the Gram matrix; run decides termination with
    # the double description of the wall cone
    def diag(n):
        return Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(n + 1))
                                  for i in range(n + 1)))
    cases = [(ex134, H, NORMS2, HeightKey(1000, 1))]
    cases += [(diag(n), (400,) + tuple(range(n, 0, -1)), RootFilter(norms=frozenset({1, 2})),
               HeightKey(10 ** 7, 1)) for n in range(3, 10)]
    cases += [(Lattice(gram=E10), minus_inverse_sum(E10), NORMS2, HeightKey(10 ** 9, 1))]
    for lat, h, filt, max_key in cases:
        rep = vinberg.run(lat, h, filt, max_key=max_key)
        assert rep.terminated and len(rep.accepted) == lat.rank, lat.gram
        assert _finite_volume_by_vinberg(rep.gram, lat.rank) == rep.terminated
        for i in range(len(rep.gram)):      # any one wall removed: infinite volume
            rest = [[x for j, x in enumerate(row) if j != i]
                    for k, row in enumerate(rep.gram) if k != i]
            assert not _finite_volume_by_vinberg(rest, lat.rank), (lat.gram, i)


def test_run_triangle(ex134):
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    assert rep.terminated and not rep.exhausted
    assert sorted(rep.accepted) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert rep.gram == ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))


def test_run_budget_zero(ex134):
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1), max_roots=0)
    assert rep.accepted == () and rep.exhausted and not rep.terminated


@pytest.mark.parametrize("bad", [-3, -1, 2.5, 1.0, True, False, "2", Fraction(2)], ids=repr)
def test_run_rejects_bad_max_roots(ex134, bad):
    with pytest.raises(DomainError, match=f"max_roots.* {re.escape(repr(bad))}"):
        vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1), max_roots=bad)


def test_run_prefix_stability_under_budget(ex134):
    full = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    for k in (1, 2):
        part = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1), max_roots=k)
        assert part.exhausted
        assert part.accepted == full.accepted[:k]


def _transvections(n, steps):
    """U = product of (I + s e_i e_j^T) over steps (i, j, s), and U^-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for i, j, s in steps:
        for r in range(n):
            u[r][j] += s * u[r][i]
        u_inv[i] = [a - s * b for a, b in zip(u_inv[i], u_inv[j])]
    assert linalg.mat_mul(u, u_inv) == linalg.identity(n)
    return u, u_inv


def test_runs_and_enumerations_do_not_depend_on_the_basis(ex134):
    # the same lattice in a new basis: S' = U^T S U and x' = U^-1 x, mapped
    # back by x = U x'; the shell basis is reduced, so only cost may change
    i51 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(6))
                             for i in range(6)))
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    cases = [(i51, (400, 5, 4, 3, 2, 1), {1, 2}, 10 ** 7, 2000,
              [(0, 3, 1), (5, 1, -1), (2, 4, 1), (3, 0, -1)]),
             (ex134, (1, 1, 1), {2}, 2000, 400, [(0, 1, 1), (2, 0, -1), (1, 2, 1)]),
             (u22, (22, 30, -1), {2, 22}, 4 * 10 ** 6, 10 ** 5,
              [(2, 0, 1), (0, 1, -1), (1, 2, 1), (2, 1, -1)])]
    for lat, h, norms, key, enum_key, steps in cases:
        u, u_inv = _transvections(lat.rank, steps)
        moved = Lattice(gram=linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(lat.gram, u)))
        h2 = linalg.mat_vec(u_inv, h)
        filt = RootFilter(norms=frozenset(norms))
        rep = vinberg.run(lat, h, filt, max_key=HeightKey(key, 1))
        rep2 = vinberg.run(moved, h2, filt, max_key=HeightKey(key, 1))
        assert rep.terminated and rep2.terminated, lat.gram
        assert sorted(linalg.mat_vec(u, x) for x in rep2.accepted) == sorted(rep.accepted)
        got = list(vinberg.candidate_stream(moved, h2, filt, HeightKey(enum_key, 1)))
        want = list(vinberg.candidate_stream(lat, h, filt, HeightKey(enum_key, 1)))
        assert len(want) > len(rep.accepted)
        assert sorted(linalg.mat_vec(u, x) for x in got) == sorted(want)


@pytest.mark.parametrize("n", range(3, 10))
def test_odd_unimodular_chamber_is_the_classical_simple_system(n):
    # Vinberg 1972: for 3 <= n <= 9 the chamber of I_{n,1} has the n + 1
    # walls e0 - e1 - e2 - e3, e_i - e_{i+1} (1 <= i < n) and e_n
    lat = Lattice(gram=tuple(tuple((-1 if i == 0 else 1) * (i == j) for j in range(n + 1))
                             for i in range(n + 1)))
    rep = vinberg.run(lat, (400,) + tuple(range(n, 0, -1)), RootFilter(norms=frozenset({1, 2})),
                      max_key=HeightKey(10 ** 7, 1))
    e = linalg.identity(n + 1)
    classical = [(1, -1, -1, -1) + (0,) * (n - 3)] \
        + [linalg.vec_sub(e[i], e[i + 1]) for i in range(1, n)] + [e[n]]
    assert rep.terminated and len(rep.accepted) == n + 1
    assert sorted(sorted(row) for row in rep.gram) \
        == sorted(sorted(row) for row in gram_matrix(lat, classical))


def _certificate_by_prefix(lat, accepted):
    return [cones.is_arithmetic_type(lat, accepted[:k]).finite_volume
            for k in range(1, len(accepted) + 1)]


def test_run_stops_where_a_fresh_certificate_first_holds(
        ex134, u_plus_2, u_plus_a2, diag22m):
    # the kept cone clipped once per wall agrees with a fresh double
    # description on every prefix of the accepted walls
    runs = [(ex134, (1, 1, 1), {2}, 2000, 16), (ex134, (4, 3, 2), {2, 8}, 2000, 16),
            (u_plus_2, (-4, -3, -1), {2}, 2000, 16), (u_plus_2, (-4, -3, -1), {2, 4}, 2000, 16),
            (diag22m, (1, 2, 4), {2, 4}, 2000, 16), (u_plus_a2, (-4, -3, -1, -1), {2}, 2000, 16)]
    for n in (4, 5):
        gram = tuple(tuple((-1 if i == 0 else 1) * (i == j) for j in range(n + 1))
                     for i in range(n + 1))
        runs.append((Lattice(gram=gram), (400,) + tuple(range(n, 0, -1)), {1, 2}, 10 ** 7, None))
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    runs.append((u22, (22, 30, -1), {2, 22}, 4 * 10 ** 6, None))
    for lat, h, norms, key, max_roots in runs:
        rep = vinberg.run(lat, h, RootFilter(norms=frozenset(norms)),
                          max_key=HeightKey(key, 1), max_roots=max_roots)
        assert rep.terminated, (lat.gram, h)
        assert _certificate_by_prefix(lat, rep.accepted) \
            == [False] * (len(rep.accepted) - 1) + [True], (lat.gram, h)
    # budget-capped runs never see the certificate
    u26 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 26)))
    for lat, h, max_roots, walls in ((u22, (22, 30, -1), 5, 5), (u26, (-12, -28, -3), 40, 25)):
        rep = vinberg.run(lat, h, NORMS2, max_key=HeightKey(4 * 10 ** 6, 1),
                          max_roots=max_roots)
        assert rep.exhausted and len(rep.accepted) == walls
        assert _certificate_by_prefix(lat, rep.accepted) == [False] * walls


def test_controller_on_mirror_cases(ex134, diag22m, monkeypatch):
    calls = []
    quadric = linalg.quadric_integer_points
    monkeypatch.setattr(linalg, "quadric_integer_points",
                        lambda *a: calls.append(a) or quadric(*a))
    # (0,0,1) is orthogonal to the norm-2 root (1,0,0) of diag(2,2,-2); the
    # first admissible root of the sorted m = 0 shell is reported
    with pytest.raises(ControllerOnMirrorError) as exc:
        list(vinberg.candidate_stream(diag22m, (0, 0, 1), NORMS2, HeightKey(4, 1)))
    assert exc.value.root == (-1, 0, 0)
    assert len(calls) == 1
    # with norms {2,8} the center (1,1,1) of the ex134 triangle lies on the
    # norm-8 mirror of (-1,0,1); the norm-2 shell at m = 0 is empty, and it
    # has no solution mod 8, so the stream descends only the norm-8 shell
    calls.clear()
    with pytest.raises(ControllerOnMirrorError) as exc:
        list(vinberg.candidate_stream(ex134, H, RootFilter(norms=frozenset({2, 8})),
                                      HeightKey(4, 2)))
    assert exc.value.root == (-1, 0, 1)
    assert len(calls) == 1
    monkeypatch.undo()
    assert vinberg.shells(ex134, H)[0](2, 0) == []


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
    found = list(vinberg.candidate_stream(ex134, (4, 3, 2), filt, HeightKey(100, 2)))
    assert (2, 1, 0) in found
    assert pair(ex134, (2, 1, 0), (1, 0, 0)) > 0   # would be rejected against d1


def test_congruence_filter(ex134):
    # roots congruent to d1 modulo 2M
    filt = RootFilter(norms=frozenset({2}),
                      congruence=(((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((1, 0, 0),)))
    got = list(vinberg.candidate_stream(ex134, H, filt, HeightKey(36, 2)))
    assert got[0] == (1, 0, 0)
    assert all((x[0] - 1) % 2 == 0 and x[1] % 2 == 0 and x[2] % 2 == 0 for x in got)
    assert (0, 1, 0) not in got


def test_congruence_filter_with_two_residues_matches_a_box(ex134):
    # M1 = {v : v0 + v1 + v2 even, v1 = v2 mod 3}, given by a non-diagonal
    # basis of index 6; x is admissible iff x - r lies in M1 for some residue
    basis, residues = ((1, 1, -2), (1, 0, 3), (0, 1, 1)), ((1, 0, 0), (0, 1, 0))
    assert abs(linalg.det(basis)) == 6

    def in_m1(v):
        return sum(v) % 2 == 0 and (v[1] - v[2]) % 3 == 0
    assert all(in_m1(row) for row in basis)
    h, norms, max_key = (4, 3, 2), {2, 8}, HeightKey(256, 8)
    filt = RootFilter(norms=frozenset(norms), congruence=(basis, residues))
    got = list(vinberg.candidate_stream(ex134, h, filt, max_key))
    everything = brute_stream(ex134, h, norms, max_key, 12)
    want = [(k, d, x) for k, d, x in everything
            if any(in_m1(linalg.vec_sub(x, r)) for r in residues)]
    assert [(Fraction(pair(ex134, h, x) ** 2, norm(ex134, x)), norm(ex134, x), x)
            for x in got] == want
    for r in residues:
        assert any(in_m1(linalg.vec_sub(x, r)) for x in got)
    assert len(everything) > len(want)


def fraction_congruence_test(filt, x):
    """x - r = C a for a residue r and an integral a, C the basis as
    columns, with a from the Fraction solve."""
    basis, residues = filt.congruence
    cols = linalg.transpose(basis)
    return any(all(a.denominator == 1 for a in linalg.solve(cols, linalg.vec_sub(x, r)))
               for r in residues)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_congruence_test_matches_the_fraction_solve(data):
    n = data.draw(st.integers(1, 4))
    basis = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        basis[0] = [-a for a in basis[0]]               # either sign of det
    det = linalg.det(basis)
    assume(det != 0)
    residues = [[data.draw(st.integers(-9, 9)) for _ in range(n)]
                for _ in range(data.draw(st.integers(1, 3)))]
    filt = RootFilter(norms=frozenset({2}), congruence=(basis, residues))
    # a point of some coset r + C Z^n, moved off it by a small offset or not
    a = [data.draw(st.integers(-6, 6)) for _ in range(n)]
    r = data.draw(st.sampled_from(residues))
    off = [data.draw(st.integers(-2, 2)) if data.draw(st.booleans()) else 0 for _ in range(n)]
    x = tuple(ri + sum(row[j] * a[j] for j in range(n)) + o
              for ri, row, o in zip(r, linalg.transpose(basis), off))
    assert vinberg._congruence_test(filt)(x) == fraction_congruence_test(filt, x)
    assert vinberg._congruence_test(filt)(x) or any(off)


def test_roots_of_two_norms_read_interleaved_match_a_crystallographic_filter():
    # U+<22> with h = (22, 30, -1): S(x, x) = -2 x0 x1 + 22 x2^2 and
    # S(h, x) = -(30 x0 + 22 x1 + 22 x2).  roots(2, m) and roots(22, m) are
    # read in turn at every m with gcd(G h) = 2 | m, so each norm's rows are
    # read after the other norm's: both must be the shell points x with
    # d | 2 G x, found by solving for x0 at each x2
    lat, h = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22))), (22, 30, -1)
    roots, _ = vinberg.shells(lat, h)

    def brute(d, m):
        # 22 x1 = m - 30 x0 - 22 x2 turns S(x, x) = d into
        # 60 x0^2 - 2 (m - 22 x2) x0 + 484 x2^2 - 22 d = 0, whose
        # discriminant is negative once |x2| > m + 10 (d <= 22)
        out = []
        for x2 in range(-m - 10, m + 11):
            b = m - 22 * x2
            disc = b * b - 60 * (484 * x2 * x2 - 22 * d)
            if disc < 0 or isqrt(disc) ** 2 != disc:
                continue
            for num in {b + isqrt(disc), b - isqrt(disc)}:
                if num % 60 == 0 and (m - 30 * (num // 60) - 22 * x2) % 22 == 0:
                    x = (num // 60, (m - 30 * (num // 60) - 22 * x2) // 22, x2)
                    assert norm(lat, x) == d and -pair(lat, h, x) == m
                    if all(2 * linalg.dot(row, x) % d == 0 for row in lat.gram):
                        out.append(x)
        return sorted(out)

    found = {2: 0, 22: 0}
    for m in range(0, 700, 2):
        for d in ((2, 22) if m % 4 else (22, 2)):
            got = roots(d, m)
            assert got == brute(d, m), (d, m)
            found[d] += len(got)
    assert found[2] > 0 and found[22] > 0


def test_congruence_basis_of_infinite_index_rejected():
    # a singular or non-square basis spans no finite-index sublattice
    for basis in (((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0)),
                  ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(DomainError, match="finite index"):
            RootFilter(norms=frozenset({2}), congruence=(basis, ((0, 0, 0),)))


@pytest.mark.parametrize("congruence", [
    ((), ((0, 0, 0),)),                                   # det of the empty basis is 1
    7, ((1,),), (((1,),), ((0,),), ()),                   # not [basis rows, residues]
    ((1, 0), ((0, 0),)),                                  # basis rows that are not rows
], ids=["empty", "int", "one-part", "three-parts", "flat-basis"])
def test_congruence_of_the_wrong_shape_is_rejected_when_built(congruence):
    with pytest.raises(DomainError, match=re.escape(vinberg.CONGRUENCE_SHAPE)):
        RootFilter(frozenset({2}), congruence)


def test_congruence_filter_needs_a_residue():
    # an empty residue list would reject every root
    with pytest.raises(DomainError, match="residue"):
        RootFilter(norms=frozenset({2}), congruence=(((2, 0, 0), (0, 1, 0), (0, 0, 1)), ()))


def test_congruence_entries_must_be_integers():
    # a float or str entry, a fractional residue or a bool is named, not
    # truncated or passed on to the elimination
    basis = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    for bad, congruence in ((1.5, (((1.5, 0, 0),) + basis[1:], ((0, 0, 0),))),
                            ("a", ((("a", 0, 0),) + basis[1:], ((0, 0, 0),))),
                            (0.5, (basis, ((0.5, 0, 0),))),
                            (True, (basis, ((True, 0, 0),)))):
        with pytest.raises(DomainError, match=re.escape(f"entry {bad!r} is not an integer")):
            RootFilter(norms=frozenset({2}), congruence=congruence)


def test_congruence_vectors_must_have_the_lattice_rank(monkeypatch):
    # a 3x3 basis on the rank-4 I_{3,1} is rejected before any shell is
    # built, naming both lengths; a residue shorter than its own basis is
    # rejected when the filter is built
    i31 = Lattice(gram=((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    monkeypatch.setattr(vinberg, "shells", lambda *a: pytest.fail("shell built"))
    filt = RootFilter(norms=frozenset({1, 2}), congruence=(linalg.identity(3), ((0, 0, 0),)))
    with pytest.raises(DimensionError, match="length 3 against lattice of rank 4"):
        list(vinberg.candidate_stream(i31, (10, 3, 2, 1), filt, HeightKey(10 ** 4, 1)))
    with pytest.raises(DomainError, match=re.escape(vinberg.CONGRUENCE_SHAPE)):
        RootFilter(norms=frozenset({1, 2}),
                   congruence=(linalg.identity(4), ((0, 0, 0, 0), (0, 0, 0))))


def test_gram_bound_check_triangle(ex134, triangle):
    rep = vinberg.gram_bound_check(ex134, triangle)
    assert rep.violations == ()
    assert rep.spanning_subset == (0, 1, 2)
    # a dependent first triple is passed over for the next spanning one
    walls = triangle[:2] + [(2, 0, 0), triangle[2]]
    assert vinberg.gram_bound_check(ex134, walls).spanning_subset == (0, 1, 3)
    with pytest.raises(DomainError, match="spacelike"):
        vinberg.gram_bound_check(ex134, [(1, 0, 0), (1, 1, 1)])


def test_gram_bound_check_diagonal_boundary():
    lat = Lattice(gram=((2, 0), (0, -2)))
    rep = vinberg.gram_bound_check(lat, [(1, 0)])
    assert rep.violations == ()          # -2S/2 = -2 at the lower boundary


def test_gram_bound_check_synthetic_violation():
    lat = Lattice(gram=((2, -63), (-63, 2)))
    rep = vinberg.gram_bound_check(lat, [(1, 0), (0, 1)])
    assert rep.violations == ((0, 1),)
    assert rep.spanning_subset is None
    edge = Lattice(gram=((2, -62), (-62, 2)))
    assert vinberg.gram_bound_check(lat, [(1, 0)]).violations == ()
    assert vinberg.gram_bound_check(edge, [(1, 0), (0, 1)]).violations == ((0, 1),)


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
        keys.append(Fraction(m * m, norm(ex134, x)))
    assert all(a <= b for a, b in zip(keys, keys[1:]))


def test_orbit_soundness(ex134):
    # reflecting the controller through an accepted wall reflects the chamber
    rep = vinberg.run(ex134, H, NORMS2, max_key=HeightKey(1000, 1))
    wall = rep.accepted[0]
    s = reflection(ex134, wall)
    h2 = linalg.mat_vec(s, H)
    rep2 = vinberg.run(ex134, h2, NORMS2, max_key=HeightKey(1000, 1))
    assert sorted(rep2.accepted) == sorted(linalg.mat_vec(s, r) for r in rep.accepted)


def test_an_inert_prime_takes_no_value_of_odd_valuation():
    # p inert for k1 X^2 + k0 Y^2 exactly when the form has no nonzero zero
    # mod p; then no nonzero value has odd p-adic valuation, while a split p
    # (p not dividing k0 k1, not inert) takes some value to the first power
    for k0, k1 in itertools.product(range(1, 9), repeat=2):
        inert = vinberg._inert_primes(k0, k1)
        values = {k1 * x * x + k0 * y * y for x in range(41) for y in range(41)} - {0}
        assert not any(vinberg._odd_valuation(v, inert) for v in values), (k0, k1)
        for p in (3, 5, 7, 11, 13):
            anisotropic = all((k1 * x * x + k0 * y * y) % p
                              for x in range(p) for y in range(p) if x or y)
            assert (p in inert) == anisotropic, (k0, k1, p)
            if k0 * k1 % p and not anisotropic:
                assert any(v % p == 0 and v % (p * p) for v in values), (k0, k1, p)


def test_inert_primes_drop_no_shell_that_holds_a_root(monkeypatch):
    # U + <2k>, k = 1..30, three seeded timelike controllers each: every
    # shell m <= 400 of norm 1, 2, k, 2k or 4k that holds a root is walked,
    # and the inert primes and the residue test each drop shells that the
    # walk keeps with that test switched off
    rng = random.Random(27)
    nonempty = by_prime = by_residue = 0
    for k in range(1, 31):
        lat = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 2 * k)))
        hs = []
        while len(hs) < 3:
            h = (rng.randint(1, 40), rng.randint(1, 40), rng.randint(-6, 6))
            if norm(lat, h) < 0:
                hs.append(h)
        for h in hs:
            roots, walk = vinberg.shells(lat, h)
            with monkeypatch.context() as mp:
                mp.setattr(vinberg, "_inert_primes", lambda k0, k1: [])
                _, prime_off = vinberg.shells(lat, h)
            with monkeypatch.context() as mp:
                mp.setattr(vinberg, "_residue_masks", lambda q: [])
                _, residue_off = vinberg.shells(lat, h)
            g = linalg.content(linalg.mat_vec(lat.gram, h))
            for d in {1, 2, k, 2 * k, 4 * k}:
                walked = {m for _, _, m in walk(d, d, 400 ** 2)}
                without_prime = {m for _, _, m in prime_off(d, d, 400 ** 2)}
                without_residue = {m for _, _, m in residue_off(d, d, 400 ** 2)}
                assert walked <= without_prime and walked <= without_residue
                by_prime += len(without_prime - walked)
                by_residue += len(without_residue - walked)
                for m in range(0, 401, lcm(g, d // gcd(d, 2))):
                    if roots(d, m):
                        assert m in walked, (k, h, d, m)
                        nonempty += 1
    assert (nonempty, by_prime, by_residue) == (2322, 3378, 23665)


def _brute_residue_masks(q, mod):
    masks = [0] * mod
    for u in itertools.product(range(mod), repeat=3):
        masks[sum(u[i] * q[i][j] * u[j] for i in range(3) for j in range(3)) % mod] |= 1 << u[0]
    return masks


def test_residue_masks_match_a_brute_force_table():
    # bit t of masks[e] is set iff q(t, y) = e (mod M) for some y mod M: for
    # M = 8 always, and for an odd p only when p | det q, as a modulus that
    # rules nothing out is left out.  Entries of the y-block scaled by p make
    # the cases p | K, p | k22 alone and p | det K with k22 a unit mod p
    rng = random.Random(31)
    kept = dict.fromkeys((8, 3, 5, 7, 11), 0)
    for trial in range(400):
        p = (3, 5, 7, 11)[trial % 4]
        a, b1, b2, k11, k12, k22 = (rng.randint(-20, 20) for _ in range(6))
        k11, k12, k22 = (x * p if rng.random() < 0.4 else x for x in (k11, k12, k22))
        q = ((a, b1, b2), (b1, k11, k12), (b2, k12, k22))
        got = dict(vinberg._residue_masks(q))
        assert set(got) <= {8} | {m for m in vinberg._ODD_PRIMES if linalg.det(q) % m == 0}
        for mod in {8} | ({p} if linalg.det(q) % p == 0 else set()):
            want = _brute_residue_masks(q, mod)
            if min(want) == (1 << mod) - 1:
                assert mod not in got, (q, mod)
            else:
                assert got[mod] == want, (q, mod)
                kept[mod] += 1
    assert all(kept.values()), kept
    # 3, 5, 7, 11 and 13 divide det q and the y-block; the moduli are taken
    # while their product stays within 2^12, so the walk's pattern stays small
    q = ((1, 1, 1), (1, 15015, 0), (1, 0, 15015))
    assert [mod for mod, _ in vinberg._residue_masks(q)] == [8, 3, 5, 7]


def test_residue_test_on_u_plus_194_keeps_the_walls_and_a_bounded_set_up(monkeypatch):
    # 97 divides det G = -194, so the walk reads a mod-97 table; its set-up
    # stays within 10 ms of the walk's without the test, and the run accepts
    # the same walls from fewer descents
    lat = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 194)))
    h, filt, max_key = (22, 30, -1), RootFilter(norms=frozenset({2, 194})), HeightKey(10 ** 6, 1)
    masks, quadric = vinberg._residue_masks, linalg.quadric_integer_points
    tables, descents, reports, setups = [], [], [], []
    monkeypatch.setattr(vinberg, "_residue_masks", lambda q: tables.append(masks(q)) or tables[-1])
    monkeypatch.setattr(linalg, "quadric_integer_points",
                        lambda *a: descents.append(a) or quadric(*a))
    for off in (False, True):
        if off:
            monkeypatch.setattr(vinberg, "_residue_masks", lambda q: [])
        descents.clear()
        reports.append((vinberg.run(lat, h, filt, max_key=max_key), len(descents)))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            vinberg.shells(lat, h)
            best = min(best, time.perf_counter() - start)
        setups.append(best)
    assert [mod for mod, _ in tables[0]] == [8, 97]
    (on, on_descents), (off, off_descents) = reports
    assert on.accepted == off.accepted and len(on.accepted) == 9
    assert (on_descents, off_descents) == (212, 349)
    assert setups[0] - setups[1] < 0.01, setups


def test_walks_at_rank_4_and_5_do_not_read_the_residue_test(monkeypatch, u_plus_a2):
    # the residue test is made on rank-3 lattices only: walks on I_{4,1} and
    # U + A2 never build its table, and yield the counts pinned from the walk
    # without the test
    monkeypatch.setattr(vinberg, "_residue_masks", lambda q: pytest.fail("rank-3 only"))
    i41 = Lattice(gram=tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(5))
                             for i in range(5)))
    got = []
    for lat, h, norms, bound in ((i41, (400, 4, 3, 2, 1), (1, 2), 10 ** 7),
                                 (u_plus_a2, (-4, -3, -1, -1), (2,), 10 ** 5)):
        _, walk = vinberg.shells(lat, h)
        for d in norms:
            keys = list(walk(d, 2, bound))
            got.append((len(keys), sum(m for _, _, m in keys), keys[-1]))
    assert got == [(181, 250015, (8217458, 1, 2027)), (348, 666941, (9998244, 2, 3162)),
                   (317, 50086, (99856, 2, 316))]


# ---------------------------------------------------------------------------
# the walk's jumps over runs of empty slabs

def stepped_walk(walk, d, big, bound):
    """A test-only oracle: walk(d, big, bound) as it was before it jumped
    over empty slabs.  Every multiple m of the step is visited, and its last
    slab pays an isqrt.  The set-up of shells() is read from the walk's
    closure, so the two loops share it."""
    env = dict(zip(walk.__code__.co_freevars, (cell.cell_contents for cell in walk.__closure__)))
    if not env["r"]:
        return
    g, nn, centre, form, hh, scale = (env[k] for k in ("g", "nn", "centre", "form", "hh", "scale"))
    local, period, full, inert = (env[k] for k in ("local", "period", "full", "inert"))
    step, per = lcm(g, d // gcd(d, 2)), big // d
    n2, c1, kd = nn * nn, nn * centre[-1], form[2][-1]
    ok, i, di = full, 0, step // g % period
    for mod, masks in local:
        ok &= masks[d % mod] * (full // ((1 << mod) - 1))
    m = key = 0
    wide = False
    while key <= bound:
        if not wide:
            c, s = m * c1, isqrt((d * hh + m * m) * scale // kd)
            wide = 2 * s + 1 >= n2
        if (wide or -((s - c) // n2) <= (c + s) // n2) and ok >> i & 1 and not (
                inert and gcd(rad := (d * hh + m * m) * scale, env["inert_product"]) > 1
                and vinberg._odd_valuation(rad, inert)):
            yield key, d, m
        m += step
        key = m * m * per
        i = (i + di) % period


def _slab_sign(gram, h):
    """(sign of a, c1 == 0) for the walks of controller h: a = K D c1^2 - sc,
    in the names of the shells() docstring."""
    _, walk = vinberg.shells(Lattice(gram=gram), h)
    env = dict(zip(walk.__code__.co_freevars, (cell.cell_contents for cell in walk.__closure__)))
    c1 = env["nn"] * env["centre"][-1]
    a = env["form"][2][-1] * c1 * c1 - env["scale"]
    return (a > 0) - (a < 0), c1 == 0


def _diag(*entries):
    return tuple(tuple(x if i == j else 0 for j in range(len(entries)))
                 for i, x in enumerate(entries))


def _u_plus(k2):
    return ((0, -1, 0), (-1, 0, 0), (0, 0, k2))


EX134_GRAM = ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))
U_PLUS_A2_GRAM = ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))
DIAG_2_2_M2_GRAM = _diag(2, 2, -2)
# (gram, h, norms, bound): a > 0 with runs of hundreds of empty slabs, a = 0,
# a < 0, and c1 = 0 (h has no top kernel coordinate, so a = -sc < 0)
WALK_EXAMPLES = [(_diag(-1, 1, 1, 1, 1), (400, 4, 3, 2, 1), frozenset({1, 2}), 2 * 10 ** 7),
                 (_diag(-1, 1), (9, 8), frozenset({1, 2}), 5000 ** 2),
                 (((2, 3), (3, -4)), (1, 5), frozenset({1, 2, 3}), 5000 ** 2),
                 (_u_plus(22), (2, 6, 0), frozenset({1, 2, 22}), 5000 ** 2)]


def _moved(gram, h, seed):
    """gram and h in the basis B U, for a unimodular U made of 12 seeded
    elementary column moves."""
    n = len(gram)
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(12 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in u:                               # U <- U (I + s e_i e_j^T)
            row[j] += s * row[i]
        u_inv[i] = [a - s * b for a, b in zip(u_inv[i], u_inv[j])]
    moved = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(gram, u))
    return tuple(map(tuple, moved)), tuple(linalg.mat_vec(u_inv, h))


@st.composite
def walk_cases(draw):
    """(gram, h, norms, bound): U + <2k>, I_{n,1}, a hyperbolic binary form
    or a fixture lattice, in its own basis or a moved one, a random timelike
    controller, one to three norms and a key bound up to 5000^2."""
    kind = draw(st.sampled_from(("u_plus", "odd_unimodular", "binary", "fixture")))
    if kind == "u_plus":
        gram = _u_plus(2 * draw(st.integers(1, 30)))
    elif kind == "odd_unimodular":
        gram = _diag(-1, *[1] * draw(st.integers(1, 6)))
    elif kind == "binary":
        p, q, s = (draw(st.integers(-6, 6)) for _ in range(3))
        assume(p * s < q * q)
        gram = ((p, q), (q, s))
    else:
        gram = draw(st.sampled_from((EX134_GRAM, U_PLUS_A2_GRAM, DIAG_2_2_M2_GRAM)))
    lat = Lattice(gram=gram)
    h0 = timelike_vector(lat)
    t = draw(st.integers(1, 40))
    h = [t * a + draw(st.integers(-9, 9)) for a in h0]
    while norm(lat, h) >= 0:
        h = [a + b for a, b in zip(h, h0)]
    seed = draw(st.integers(0, 3))
    if seed:
        gram, h = _moved(gram, h, seed)
    norms = frozenset(draw(st.sets(st.integers(1, 12), min_size=1, max_size=3)))
    return gram, tuple(h), norms, draw(st.integers(0, 5000 ** 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(walk_cases())
@example(WALK_EXAMPLES[0])
@example(WALK_EXAMPLES[1])
@example(WALK_EXAMPLES[2])
@example(WALK_EXAMPLES[3])
def test_walk_equals_the_stepped_walk(case):
    gram, h, norms, bound = case
    _, walk = vinberg.shells(Lattice(gram=gram), h)
    big = lcm(*norms)
    for d in norms:
        assert list(walk(d, big, bound)) == list(stepped_walk(walk, d, big, bound)), d


def test_the_walk_examples_cover_each_sign_of_a_and_only_a_positive_one_jumps(monkeypatch):
    # with a <= 0, y = 0 lies in every slab (a m^2 <= d |S(h,h)| sc), so no
    # slab is empty and the walk never jumps
    first_root, calls = vinberg._first_root, []
    monkeypatch.setattr(vinberg, "_first_root",
                        lambda *args: calls.append(args) or first_root(*args))
    got = []
    for gram, h, norms, bound in WALK_EXAMPLES:
        _, walk = vinberg.shells(Lattice(gram=gram), h)
        calls.clear()
        for d in norms:
            list(walk(d, lcm(*norms), bound))
        got.append((*_slab_sign(gram, h), len(calls)))
    assert got == [(1, False, 20), (0, False, 0), (-1, False, 0), (-1, True, 0)]


def _first_root_scan(a, b, c, m):
    """(the ceiling of the least real x >= m with P(x) <= 0, the least int
    k >= m with P(k) <= 0), each None if there is none, by a scan of the unit
    intervals [k - 1, k] from k = m + 1: P <= 0 somewhere on one iff at an
    end, or a > 0, b^2 >= 4 a c and the vertex -b / 2a lies inside it.  Every
    real root is at most 1 + |b| + |c| in size (Cauchy), so the scan stops."""
    def p(x):
        return (a * x + b) * x + c
    ks = range(m + 1, abs(b) + abs(c) + 3)
    ceiling = next((k for k in ks if p(k) <= 0 or (
        a > 0 and b * b >= 4 * a * c and 2 * a * (k - 1) < -b < 2 * a * k)), None)
    return ceiling, next((k for k in ks if p(k) <= 0), None)


def test_first_root_is_a_floor_of_the_least_root_within_one():
    # every P = a x^2 + b x + c and int m with P(m) > 0 in a box, a of each
    # sign: lo never exceeds the least int k >= m with P(k) <= 0, and is
    # within one of it, so a jump to lo makes progress and skips no pairing
    # that passes.  lo is None exactly when no real x >= m has P(x) <= 0;
    # for a <= 0 that is when no such int exists, while for a > 0 the real
    # roots may lie between two ints (P = (2x - 1)^2 at m = 0), and lo is
    # an int there: a slab edge can cross y N^2 between two pairings, and a
    # later pairing then passes with a farther multiple
    between = 0
    box = itertools.product(range(-4, 5), range(-14, 15), range(-14, 15), range(-5, 6))
    for a, b, c, m in box:
        if (a * m + b) * m + c <= 0:
            continue
        ceiling, least = _first_root_scan(a, b, c, m)
        lo = vinberg._first_root(a, b, c, m)
        assert (lo is None) == (ceiling is None), (a, b, c, m)
        if lo is not None:
            assert lo <= ceiling <= lo + 1, (a, b, c, m, lo)
        assert least in (None, ceiling), (a, b, c, m)
        between += ceiling is not None and least is None
    assert between > 0
    assert vinberg._first_root(4, -4, 1, 0) in (0, 1)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 12, 10 ** 12),
       st.integers(-10 ** 18, 10 ** 18), st.integers(-10 ** 6, 10 ** 6))
@example(0, -3, 10 ** 18, 0)                            # a = 0: the linear root, exactly
@example(-1, 10 ** 6, 1, 0)                             # a < 0, b' >> 0: no cancellation
@example(4, -4 * (2 * 10 ** 6 + 1), (2 * 10 ** 6 + 1) ** 2, 0)  # a double root at 10^6 + 1/2
@example(1, -2 * 10 ** 6, 10 ** 12 - 1, 5)             # roots 10^6 - 1 and 10^6 + 1
def test_first_root_at_scale(a, b, c, m):
    def p(x):
        return (a * x + b) * x + c

    def dips(x0, x1):
        # P <= 0 somewhere on the real interval [x0, x1], x0 <= x1
        return p(x0) <= 0 or p(x1) <= 0 or (a > 0 and b * b >= 4 * a * c
                                            and 2 * a * x0 < -b < 2 * a * x1)
    assume(p(m) > 0)
    lo = vinberg._first_root(a, b, c, m)
    # P has a real zero right of m iff it falls to -inf, falls along a line,
    # or has real roots with its vertex right of m
    has_root = a < 0 or (a == 0 and b < 0) or (a > 0 and b * b >= 4 * a * c and -b > 2 * a * m)
    assert (lo is not None) == has_root
    if lo is not None:
        assert lo >= m
        assert lo - 1 < m or not dips(m, lo - 1)        # lo <= ceil(x0)
        assert dips(m, lo + 1)                           # ceil(x0) <= lo + 1


CHAMBER_RUNS = ([(_diag(-1, *[1] * n), (400,) + tuple(range(n, 0, -1)), {1, 2}, 10 ** 7, None)
                 for n in (4, 5, 6)]
                + [(gram, h, norms, 2000, 16) for gram, h, norms in (
                    (EX134_GRAM, (1, 1, 1), {2}), (EX134_GRAM, (4, 3, 2), {2, 8}),
                    (_u_plus(2), (-4, -3, -1), {2}), (_u_plus(2), (-4, -3, -1), {2, 4}),
                    (DIAG_2_2_M2_GRAM, (1, 2, 4), {2, 4}),
                    (U_PLUS_A2_GRAM, (-4, -3, -1, -1), {2}))])
DEEP_RUNS = [(_u_plus(22), (22, 30, -1), {2}, 4 * 10 ** 6, 24),
             (_u_plus(22), (22, 30, -1), {2, 22}, 4 * 10 ** 6, None),
             (_u_plus(26), (-12, -28, -3), {2}, 4 * 10 ** 6, 40)]


def _walk_visits(runs):
    """The pairings the walks of shells() visit while vinberg.run makes the
    runs (gram, h, norms, key, max_roots): a line tracer counts the passes
    through the first statement of the walk's loop."""
    with open(vinberg.__file__) as fh:
        tree = ast.parse(fh.read())
    walk = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "walk")
    line = next(n for n in ast.walk(walk) if isinstance(n, ast.While)).body[0].lineno
    visits = 0

    def in_walk(frame, event, arg):
        nonlocal visits
        visits += event == "line" and frame.f_lineno == line
        return in_walk

    def on_call(frame, event, arg):
        code = frame.f_code
        return in_walk if code.co_name == "walk" and code.co_filename == vinberg.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for gram, h, norms, key, max_roots in runs:
            vinberg.run(Lattice(gram=gram), h, RootFilter(norms=frozenset(norms)),
                        max_key=HeightKey(key, 1), max_roots=max_roots)
    finally:
        sys.settrace(previous)
    return visits


def test_walks_of_the_benchmark_runs_jump_over_empty_slabs():
    # the chamber and deep runs of the benchmark: stepping through every
    # multiple of the step, the walks visit 2,366 and 3,503 pairings, of
    # which 2,277 and 150 have an empty last slab
    assert (_walk_visits(CHAMBER_RUNS), _walk_visits(DEEP_RUNS)) == (114, 3495)
