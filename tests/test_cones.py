"""Double description, duality round trips and the arithmetic-type test."""

import random
from itertools import combinations, product

import pytest

from ex134_data import CUSP
from lorentzroots import cones, linalg
from lorentzroots.errors import DimensionError, DomainError
from lorentzroots.lattice import Lattice, norm, pair, vector_of_sign


def test_triangle_dual_rays(ex134, triangle):
    cone = cones.dual_extreme_rays(ex134, triangle)
    assert cone.rays == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert cone.lineality == ()
    assert all(norm(ex134, r) == 0 for r in cone.rays)


def test_single_wall_rank2(u):
    cone = cones.dual_extreme_rays(u, [(1, -1)])
    assert len(cone.rays) == 1
    assert len(cone.lineality) == 1
    r, = cone.rays
    assert pair(u, r, (1, -1)) < 0
    assert pair(u, cone.lineality[0], (1, -1)) == 0


def test_simplicial_cone_negated_inverse_gram():
    lat = Lattice(gram=((1, 0), (0, 2)))
    cone = cones.dual_extreme_rays(lat, [(1, 0), (0, 1)])
    # rays are the columns of the negated inverse Gram, cleared to integers
    assert cone.rays == ((-1, 0), (0, -1))
    assert cone.lineality == ()


def test_empty_wall_system(ex134):
    with pytest.raises(DomainError):
        cones.dual_extreme_rays(ex134, [])


def test_dd_soundness_and_tightness(ex134, u_plus_2, u_plus_a2):
    rng = random.Random(21)
    for lat in (ex134, u_plus_2, u_plus_a2):
        for _ in range(25):
            k = rng.randint(1, lat.rank + 1)
            roots = []
            while len(roots) < k:
                v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
                if any(v):
                    roots.append(v)
            cone = cones.dual_extreme_rays(lat, roots)
            for r in cone.rays:
                assert all(pair(lat, r, a) <= 0 for a in roots)
                assert linalg.content(r) == 1
            for l in cone.lineality:
                assert all(pair(lat, l, a) == 0 for a in roots)
            if not cone.lineality and linalg.rank(cone.rays) == lat.rank:
                # pointed full-dimensional: every extreme ray is tight on a
                # facet-many independent set of inequalities
                rows = [linalg.mat_vec(lat.gram, a) for a in roots]
                for r in cone.rays:
                    tight = [row for row in rows if linalg.dot(row, r) == 0]
                    assert linalg.rank(tight) == lat.rank - 1


def test_dual_triple_roundtrip(ex134, u_plus_2, u_plus_a2):
    # C*** = C* for arbitrary wall systems
    rng = random.Random(22)
    for lat in (ex134, u_plus_2, u_plus_a2):
        done = 0
        while done < 12:
            roots = []
            while len(roots) < lat.rank:
                v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
                if any(v):
                    roots.append(v)
            first = cones.dual_extreme_rays(lat, roots)
            if not first.rays:
                continue
            second = cones.dual_extreme_rays(lat, list(first.rays) + list(first.lineality)
                                             + [tuple(-x for x in l) for l in first.lineality])
            if not second.rays:
                continue
            third = cones.dual_extreme_rays(lat, list(second.rays) + list(second.lineality)
                                            + [tuple(-x for x in l) for l in second.lineality])
            assert third.rays == first.rays
            done += 1


def _combinatorial_extreme_rays(lat, roots):
    """Oracle: extreme rays of a pointed full-rank cone by subset enumeration.

    Every extreme ray is the oriented kernel of some rank-(n-1) subset of
    the inequality rows; check feasibility and tightness rank directly.
    """
    import itertools

    n = lat.rank
    rows = [linalg.mat_vec(lat.gram, a) for a in roots]
    found = set()
    for subset in itertools.combinations(range(len(rows)), n - 1):
        sub = [rows[i] for i in subset]
        if linalg.rank(sub) != n - 1:
            continue
        kern = linalg.kernel_basis(sub, ncols=n)
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            vals = [linalg.dot(row, cand) for row in rows]
            if all(v <= 0 for v in vals):
                tight = [row for row, v in zip(rows, vals) if v == 0]
                if linalg.rank(tight) == n - 1:
                    found.add(linalg.primitive(cand))
    return sorted(found)


def test_dd_against_combinatorial_oracle(ex134, u_plus_2, u_plus_a2, diag22m):
    rng = random.Random(24)
    for lat in (ex134, u_plus_2, u_plus_a2, diag22m):
        done = 0
        while done < 15:
            k = rng.randint(lat.rank, lat.rank + 3)
            roots = []
            while len(roots) < k:
                v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
                if any(v):
                    roots.append(v)
            cone = cones.dual_extreme_rays(lat, roots)
            if cone.lineality:
                continue
            assert list(cone.rays) == _combinatorial_extreme_rays(lat, roots)
            done += 1


def test_dual_involution_on_triangle(ex134, triangle):
    # duality swaps the chamber cone and the wall cone of the ideal triangle
    rays = cones.dual_extreme_rays(ex134, triangle).rays
    back = cones.dual_extreme_rays(ex134, rays)
    assert back.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert back.lineality == ()


def test_arithmetic_type_triangle(ex134, triangle):
    art = cones.is_arithmetic_type(ex134, triangle)
    assert art.finite_volume
    assert art.witness is None
    assert art.cone.rays == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_arithmetic_type_single_wall(ex134):
    art = cones.is_arithmetic_type(ex134, [(1, 0, 0)])
    assert not art.finite_volume
    assert art.witness is not None
    assert norm(ex134, art.witness) > 0


def test_arithmetic_type_of_computed_chamber(ex134, triangle):
    # consistency: the certificate holds on the chamber by definition
    art = cones.is_arithmetic_type(ex134, triangle)
    assert cones.is_arithmetic_type(ex134, list(triangle)).finite_volume == art.finite_volume


def test_q_plus_membership_examples(ex134, triangle):
    assert cones.q_plus_membership(ex134, triangle, (1, 0, 0)) == (1, 0, 0)
    assert cones.q_plus_membership(ex134, triangle, CUSP) == (0, 1, 1)
    assert cones.q_plus_membership(ex134, triangle, (1, 1, 1)) == (1, 1, 1)
    assert cones.q_plus_membership(ex134, triangle, (-1, 0, 0)) is None
    assert cones.q_plus_membership(ex134, triangle, (1, -2, 0)) is None


def test_q_plus_membership_dependent_walls(ex134, triangle):
    walls = list(triangle) + [(2, 1, 0)]
    got = cones.q_plus_membership(ex134, walls, (2, 1, 0))
    assert got is not None
    combo = tuple(sum(c * w[j] for c, w in zip(got, walls)) for j in range(3))
    assert combo == (2, 1, 0)
    # dependent walls with no interior point are rejected: no ray at all, or
    # rays whose sum is not strictly inside
    for pm in ([(1, 0, 0), (-1, 0, 0)], list(triangle) + [(-1, 0, 0)]):
        with pytest.raises(DomainError, match="without interior point"):
            cones.q_plus_membership(ex134, pm, (1, 0, 0))
    with pytest.raises(DomainError, match="empty wall system"):
        cones.q_plus_membership(ex134, [], (1, 0, 0))


def test_q_plus_membership_checks_the_vector_length(ex134, triangle):
    for x in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionError, match=f"length {len(x)} against lattice of rank 3"):
            cones.q_plus_membership(ex134, triangle, x)


def test_arithmetic_sampling_oracle(ex134, triangle):
    # arithmetic type <=> small multiples of every timelike vector lie in +-Q+
    rng = random.Random(23)

    def admits(roots, x):
        for n in range(1, 13):
            nx = tuple(n * c for c in x)
            if cones.q_plus_membership(ex134, roots, nx) is not None:
                return True
            neg = tuple(-c for c in nx)
            if cones.q_plus_membership(ex134, roots, neg) is not None:
                return True
        return False

    done = 0
    while done < 25:
        x = tuple(rng.randint(-6, 6) for _ in range(3))
        if norm(ex134, x) >= 0:
            continue
        assert admits(triangle, x)
        done += 1
    # the non-arithmetic single wall fails for generic timelike vectors
    assert not admits([(1, 0, 0)], (1, 1, 1))


def test_k_elements(ex134, triangle):
    got = cones.k_elements(ex134, triangle, 2)
    assert got == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert cones.k_elements(ex134, triangle, 0) == []
    for x in cones.k_elements(ex134, triangle, 5):
        assert norm(ex134, x) <= 0


def test_k_element_tuples_match_box_enumeration():
    # the pruned search against every tuple of the box, on random symmetric
    # integer matrices with entries of both signs off the diagonal
    rng = random.Random(27)
    nonempty = 0
    for _ in range(400):
        k = rng.randint(1, 4)
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                b[i][j] = b[j][i] = rng.randint(-4, 4)
        n = rng.randint(-1, 6)
        box = [a for a in product(range(n + 1), repeat=k)
               if any(a) and sum(a) <= n and all(linalg.dot(row, a) <= 0 for row in b)]
        got = cones.k_element_tuples(b, n)
        assert got == sorted(box), (b, n)
        nonempty += bool(got)
    assert nonempty >= 100, nonempty


def _reference_dd_pointed(rows, n):
    """Extreme rays of {y : row . y <= 0} for rows of rank n: seed with an
    invertible subset of the rows, then clip by the others one at a time."""
    if n == 0:
        return []
    base = linalg.pivots(linalg.transpose(rows))
    inv = linalg.inverse([rows[i] for i in base])
    rays = [linalg.clear_denominators([-x for x in col]) for col in linalg.transpose(inv)]
    processed = list(base)

    def adjacent(p, q):
        tight = [rows[i] for i in processed
                 if linalg.dot(rows[i], p) == 0 and linalg.dot(rows[i], q) == 0]
        return linalg.rank(tight) == n - 2

    for i, row in enumerate(rows):
        if i in base:
            continue
        vals = [linalg.dot(row, r) for r in rays]
        processed.append(i)
        if all(v <= 0 for v in vals):
            continue
        new = []
        for (p, vp), (q, vq) in combinations(zip(rays, vals), 2):
            if vp * vq >= 0 or not adjacent(p, q):
                continue
            if vp < 0:
                p, q, vp, vq = q, p, vq, vp
            new.append(linalg.primitive(linalg.vec_sub(linalg.vec_scale(vp, q),
                                                       linalg.vec_scale(vq, p))))
        rays = [r for r, v in zip(rays, vals) if v <= 0] + new
        if not rays:
            break
    return sorted(set(rays))


def _reference_cone(lat, roots):
    """The pointed double description on the coordinates complementing the
    kernel of the wall rows (the pivot columns), embedded back by zeros."""
    n = lat.rank
    rows = [linalg.mat_vec(lat.gram, a) for a in roots]
    comp = linalg.pivots(rows)
    rays = []
    for qr in _reference_dd_pointed([tuple(row[j] for j in comp) for row in rows], len(comp)):
        x = [0] * n
        for j, v in zip(comp, qr):
            x[j] = v
        rays.append(tuple(x))
    lin = sorted(linalg.primitive(v) for v in linalg.kernel_basis(rows, ncols=n))
    return cones.Cone(rays=tuple(sorted(rays)), lineality=tuple(lin))


def _reference_arithmetic_type(lat, roots):
    cone = _reference_cone(lat, roots)
    witness = next((r for r in cone.rays if norm(lat, r) > 0), None)
    ok = (not cone.lineality and witness is None
          and all(norm(lat, r) <= 0 for r in cone.rays)
          and all(pair(lat, p, q) <= 0 for p, q in combinations(cone.rays, 2)))
    if not ok and witness is None and cone.lineality:
        witness = vector_of_sign(lat, 1, cone.lineality)
    return ok, witness, cone


def test_clip_fold_matches_pointed_reference(ex134, u, u_plus_2, u_plus_a2, diag22m):
    i41 = Lattice(gram=tuple(tuple((-1 if i == 0 else 1) * (i == j) for j in range(5))
                             for i in range(5)))
    u22 = Lattice(gram=((0, -1, 0), (-1, 0, 0), (0, 0, 22)))
    rng = random.Random(26)
    total = with_lineality = 0
    for lat in (ex134, u, u_plus_2, u_plus_a2, diag22m, i41, u22):
        for _ in range(150):
            k = rng.randint(1, lat.rank + 3)
            roots = []
            while len(roots) < k:
                v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
                if any(v):
                    roots.append(v)
            art = cones.is_arithmetic_type(lat, roots)
            assert (art.finite_volume, art.witness, art.cone) \
                == _reference_arithmetic_type(lat, roots), roots
            assert art.cone == cones.dual_extreme_rays(lat, roots)
            shuffled = rng.sample(roots, len(roots))
            again = cones.dual_extreme_rays(lat, shuffled)
            assert again == art.cone, roots
            total += 1
            with_lineality += bool(art.cone.lineality)
    assert total >= 1000 and with_lineality >= 300, (total, with_lineality)
