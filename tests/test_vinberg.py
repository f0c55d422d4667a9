"""Height-ordered enumeration, chamber accretion and the pairing bounds."""

import itertools
import re
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from lorentzroots import cones, linalg, vinberg, weylstruct
from lorentzroots.errors import ControllerOnMirrorError, DimensionError, DomainError
from lorentzroots.lattice import (Lattice, gram_matrix, is_crystallographic, norm, pair,
                                  reflection)
from lorentzroots.vinberg import HeightKey, RootFilter
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
    # slab, so the stream descends none of them; they are empty
    assert set(seen) == {(22, 0), (22, 22), (2, 0)}
    assert all(m % 11 == 0 for d, m in seen if d == 22)
    monkeypatch.undo()
    roots, _ = vinberg.shells(lat, h)
    assert roots(2, 2) == roots(2, 4) == roots(2, 6) == []


def test_shells_return_exactly_the_crystallographic_vectors(ex134, monkeypatch):
    # roots(d, m) of every shell up to the key bound against a box, with the
    # non-primitive 2 (1,0,0) of norm 8 kept; a shell with d not dividing 2m
    # is empty and never descended.  On U + <6> each of the two rows tested
    # for norm 6 is the only one that rejects some vector of the box
    calls = []
    quadric = linalg.quadric_integer_points
    monkeypatch.setattr(linalg, "quadric_integer_points",
                        lambda *a: calls.append(a) or quadric(*a))
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
        skipped = 0
        for d in sorted(norms):
            for m in range(isqrt(key * d) + 1):
                before = len(calls)
                assert roots(d, m) == want.pop((d, m), []), (lat.gram, d, m)
                if 2 * m % d:
                    assert len(calls) == before
                    skipped += 1
        assert not want and skipped, lat.gram
        drops.append(dropped)
    # the even form of ex134 makes every vector of norm 2 or 8 crystallographic
    assert drops[0] == 0 and drops[1] and drops[2] and drops[3]
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
    m = 0..M of every norm: the primitive, congruence-admissible roots
    sorted by (m^2/d, d, x) and cut at the key bound."""
    roots, _ = vinberg.shells(lat, h)
    out = []
    for d in filt.norms:
        for m in range(isqrt(max_key.numerator * d // max_key.denominator) + 1):
            out.extend((Fraction(m * m, d), d, x) for x in roots(d, m)
                       if linalg.content(x) == 1 and vinberg._residue_ok(filt, x))
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
    # the stream asks for has m = 0 mod lcm(g, d/gcd(d, 2)) and an integer in
    # its last slab, so each roots(d, m) call descends (3,351 calls; 3,501
    # without the slab test, 10,098 with m stepped by 1).  Up to the key
    # bound, each walk keeps exactly the admissible pairings whose last slab
    # holds an integer
    calls, descents, walks = [], [], []
    quadric, shells = linalg.quadric_integer_points, vinberg.shells

    def spy_shells(lattice, h):
        roots, walk = shells(lattice, h)
        g = linalg.content(linalg.mat_vec(lattice.gram, h))

        def spy_roots(d, m):
            calls.append((g, d, m))
            return roots(d, m)

        def spy_walk(d, big, bound):
            walks.append((roots, walk, g, d, big, bound))
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
    assert len(calls) == len(descents) == 3351
    assert all(lo <= hi for lo, hi in (last_slab(*a) for a in descents))
    # every admissible pairing up to the bound, its slab read off the
    # arguments roots(d, m) passes the descent
    slabs = []
    monkeypatch.setattr(linalg, "quadric_integer_points", lambda *a: slabs.append(a) or [])
    skipped = 0
    for roots, walk, g, d, big, bound in walks:
        walked = {m for _, _, m in walk(d, big, bound)}
        step = lcm(g, d // gcd(d, 2))
        for m in range(0, isqrt(bound // (big // d)) + 1, step):
            assert roots(d, m) == []
            lo, hi = last_slab(*slabs[-1])
            assert (lo <= hi) == (m in walked), (d, m)
            skipped += m not in walked
    assert skipped == 150


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
    # II_{17,1} = E8 + E8 + U: 19 walls, pairwise at angle pi/2 or pi/3
    # (Vinberg 1975), and an elliptic-type Weyl vector of norm -620
    gram = [row + [0] * 10 for row in E8] + [[0] * 8 + row + [0, 0] for row in E8] \
        + [[0] * 16 + [0, -1], [0] * 16 + [-1, 0]]
    ii171 = Lattice(gram=gram)
    w = minus_inverse_sum(E8)
    rep = vinberg.run(ii171, w + w + (100, 101), NORMS2, max_key=HeightKey(10 ** 9, 1))
    assert rep.terminated and len(rep.accepted) == 19
    assert {x for row in rep.gram for x in row} == {2, 0, -1}
    weyl = weylstruct.lattice_weyl_vector(ii171, rep.accepted)
    assert (weyl.kind, weyl.rho_norm) == ("elliptic-type", -620)


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
    # norm-8 mirror of (-1,0,1), found after the empty norm-2 shell at m = 0
    calls.clear()
    with pytest.raises(ControllerOnMirrorError) as exc:
        list(vinberg.candidate_stream(ex134, H, RootFilter(norms=frozenset({2, 8})),
                                      HeightKey(4, 2)))
    assert exc.value.root == (-1, 0, 1)
    assert len(calls) == 2


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


def test_congruence_basis_of_infinite_index_rejected():
    # a singular or non-square basis spans no finite-index sublattice
    for basis in (((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0)),
                  ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(DomainError, match="finite index"):
            RootFilter(norms=frozenset({2}), congruence=(basis, ((0, 0, 0),)))


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
    # a 3x3 basis, or a short residue, on the rank-4 I_{3,1} is rejected
    # before any shell is built, naming both lengths
    i31 = Lattice(gram=((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    monkeypatch.setattr(vinberg, "shells", lambda *a: pytest.fail("shell built"))
    for congruence in ((linalg.identity(3), ((0, 0, 0),)),
                       (linalg.identity(4), ((0, 0, 0, 0), (0, 0, 0)))):
        filt = RootFilter(norms=frozenset({1, 2}), congruence=congruence)
        with pytest.raises(DimensionError, match="length 3 against lattice of rank 4"):
            list(vinberg.candidate_stream(i31, (10, 3, 2, 1), filt, HeightKey(10 ** 4, 1)))


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
