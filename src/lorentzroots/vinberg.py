"""Height-ordered root enumeration and chamber accretion.

Candidates come in shells indexed by (norm d, pairing m = -S(h, delta))
with squared height m^2/d.  Each shell is the integer point set of an
affine positive definite quadric (the restriction of the form to the
hyperplane S(h, x) = -m), enumerated exactly.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from . import cones, linalg
from .errors import ControllerOnMirrorError, DegenerateFormError, DomainError
from .lattice import Lattice, Record, gram_matrix, int_vectors, integer, norm
from .lattice import is_crystallographic  # noqa: F401  benchmarks/tracing.py wraps it here


class HeightKey(Record):
    """A budget on the squared Vinberg height S(h,d)^2 / S(d,d): the ints
    numerator >= 0 and denominator > 0.  Keys are not ordered."""
    numerator: int
    denominator: int

    def __post_init__(self):
        num = integer(self.numerator, "height key numerator")
        den = integer(self.denominator, "height key denominator")
        if num < 0 or den <= 0:
            raise DomainError("height key needs numerator >= 0, denominator > 0")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


CONGRUENCE_SHAPE = ("congruence must be [basis rows, residues]: a nonempty square basis of "
                    "finite index and at least one residue of the basis length")


class RootFilter(Record):
    norms: frozenset[int]
    congruence: tuple | None = None  # (basis rows of M1, tuple of residues)

    def __post_init__(self):
        object.__setattr__(self, "norms", frozenset(integer(d, "norm") for d in self.norms))
        if not self.norms or any(d <= 0 for d in self.norms):
            raise DomainError("norm set must be a nonempty set of positive integers")
        if self.congruence is not None:
            try:
                basis, residues = (tuple(map(tuple, part)) for part in self.congruence)
            except (TypeError, ValueError):     # not a pair of lists of rows
                raise DomainError(CONGRUENCE_SHAPE) from None
            basis, residues = (tuple(tuple(integer(x, "congruence entry") for x in row)
                                     for row in part) for part in (basis, residues))
            if (not basis or not residues or any(len(v) != len(basis) for v in basis + residues)
                    or linalg.det(basis) == 0):
                raise DomainError(CONGRUENCE_SHAPE)
            object.__setattr__(self, "congruence", (basis, residues))


def _congruence_test(filt: RootFilter):
    """The predicate x -> x = r + C a for a residue r and an integral a, C
    the congruence basis as columns.  a = adj(C) (x - r) / det C, so x
    passes iff det C divides every entry of adj(C) (x - r)."""
    if filt.congruence is None:
        return lambda x: True
    basis, residues = filt.congruence
    det, adj = linalg.adjugate(linalg.transpose(basis))
    return lambda x: any(all(linalg.dot(row, v) % det == 0 for row in adj)
                         for v in (linalg.vec_sub(x, r) for r in residues))


class ChamberReport(Record):
    accepted: tuple[tuple[int, ...], ...]
    terminated: bool
    gram: tuple[tuple[int, ...], ...]

    @property
    def exhausted(self) -> bool:
        return not self.terminated


_ODD_PRIMES = tuple(p for p in range(3, 100, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2)))


def _inert_primes(k0, k1):
    """The odd p < 100 at which k1 X^2 + k0 Y^2 is anisotropic: p does not
    divide k0 k1 and -k0 k1 is a non-residue mod p (Euler's criterion)."""
    return [p for p in _ODD_PRIMES if k0 * k1 % p and pow(-k0 * k1, (p - 1) // 2, p) == p - 1]


def _odd_valuation(n, primes):
    """Does some p in primes divide the int n > 0 to an odd power?"""
    for p in primes:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        if v % 2:
            return True
    return False


def _residue_masks(q):
    """[(M, masks)] for q = B^T G B, the integer form of a rank-3 lattice in a
    basis with u = (t, y1, y2): bit t of masks[e] is set iff q(t, y) = e
    (mod M) for some ints y.  M runs over 8 and the odd p < 100 dividing
    det q, while the product of the moduli stays within 2^12, and a modulus
    that rules nothing out is left out.

    Mod 8 only u mod 4 counts, as q(u + 4v) = q(u) + 8 u^T q v + 16 q(v),
    and q(3t, 3y) = 9 q(t, y) = q(t, y) mod 8: t = 0, 4 share one value set
    (bits 0x11), the odd t another (0xAA) and t = 2, 6 a third (0x44), and
    the 16 y mod 4 at t = 0, 1, 2 give all three.

    Mod p, write K for the y-block.  If p does not divide det K, completing
    the square leaves a nondegenerate binary form, which takes every value
    mod p.  Otherwise K = k (y2 + mu y1)^2 mod p, after swapping y1 and y2
    (and b1 and b2) if p | k22, with k = mu = 0 if p | K.  With
    w = y2 + mu y1 and beta = b1 - mu b2,
    q(t, y) = a t^2 + 2 beta t y1 + 2 b2 t w + k w^2 mod p.  At t = 0 that
    is k w^2.  At t != 0 it takes every value if beta != 0, or if k = 0 and
    b2 != 0; otherwise it is c t^2 + k (w + b2 t / k)^2 with c = a - b2^2 / k
    (c = a if k = 0).
    """
    (a, b1, b2), (_, k11, k12), (_, _, k22) = q
    masks = [0] * 8
    for y1 in range(4):
        for y2 in range(4):
            v, l = y1 * (k11 * y1 + 2 * k12 * y2) + k22 * y2 * y2, 2 * (b1 * y1 + b2 * y2)
            masks[v % 8] |= 0x11
            masks[(a + l + v) % 8] |= 0xAA
            masks[(4 * a + 2 * l + v) % 8] |= 0x44
    out = [(8, masks)] if min(masks) < 0xFF else []
    det = a * (k11 * k22 - k12 * k12) - b1 * (b1 * k22 - k12 * b2) + b2 * (b1 * k12 - k11 * b2)
    for p in _ODD_PRIMES:
        if det % p or (k11 * k22 - k12 * k12) % p or prod(mod for mod, _ in out) * p > 1 << 12:
            continue
        c1, c2, k = (b2, b1, k11) if k22 % p == 0 else (b1, b2, k22)
        inv = pow(k, -1, p) if k % p else 0
        beta, c = (c1 - k12 * inv * c2) % p, (a - c2 * c2 * inv) % p
        squares = {k * y * y % p for y in range(p)}
        masks = [int(e in squares) for e in range(p)]       # t = 0
        if beta or (inv == 0 and c2 % p):                   # every value at each t != 0
            masks = [x | (1 << p) - 2 for x in masks]
        else:
            for t in range(1, p):
                ct, bit = c * t * t, 1 << t
                for v in squares:
                    masks[(ct + v) % p] |= bit
        out.append((p, masks))
    return out


def _first_root(a, b, c, m):
    """For P(x) = a x^2 + b x + c with P(m) > 0 at the int m, any sign of
    a: None if P(x) > 0 for every real x >= m, else an int lo with
    lo <= ceil(x0) <= lo + 1, x0 the least real x >= m with P(x) = 0.

    With x = m + u, P = a u^2 + b' u + c', b' = 2 a m + b, c' = P(m) > 0,
    and disc = b'^2 - 4 a c'.  If b' < 0 and disc >= 0, the root
    (-b' - sqrt(disc)) / (2a) = 2c' / (sqrt(disc) - b') is positive and the
    least one: for a > 0 both roots are positive, for a < 0 the other is
    negative, and for a = 0 it is the linear root c' / |b'|.  With
    s = ceil(sqrt(disc)), lo = m + ceil(2c' / (s - b')).  On a square s is
    exact (a = 0 makes disc = b'^2); otherwise a != 0,
    (sqrt(disc) - b')^2 >= 4 |a| c', and the two quotients differ by at
    most 2c' / (sqrt(disc) - b')^2 <= 1/2.  With b' >= 0, if a < 0 the
    one positive root is (b' + sqrt(disc)) / (2|a|), at least
    (b' + isqrt(disc)) / (2|a|) and less than that plus 1/2; if a >= 0
    every coefficient of P(m + u) is >= 0 and c' > 0.  If a > 0 and
    disc < 0, P has no real root.
    """
    c += (a * m + b) * m
    b += 2 * a * m
    disc = b * b - 4 * a * c
    if b < 0 <= disc:
        s = isqrt(disc)
        s += s * s < disc
        return m - (-2 * c // (s - b))
    if a < 0:
        return m - ((b + isqrt(disc)) // (2 * a))
    return None


def shells(lattice, h):
    """(roots, walk) for the shells (d, m) of the controller h.

    roots(d, m): the sorted crystallographic x with S(x,x) = d and
    S(h,x) = -m, for a shell (d, m) that walk yields.  x is crystallographic
    iff d | 2 S(e_j, x) for all j, so a root needs g = gcd(G h) | m and
    d | 2m.  A point x = B u (B unimodular, u = (-m/g, y)) is kept iff
    d | 2 G B u, then mapped back; that is q = d/gcd(d, 2) | G B u, tested
    on the rows of G B not 0 mod q, which are found once per norm d.

    walk(d, big, bound): the (m^2 (big/d), d, m) with m^2 (big/d) <= bound,
    in increasing m, of the shells of norm d that can hold a root: m runs
    over the multiples of lcm(g, d/gcd(d, 2)), and m is kept only if the
    last slab of the shell's descent holds an integer, so an empty slab
    never reaches roots.  In the scaled ints below that slab holds an int y
    iff P_y(m) <= 0, where
    P_y(x) = K D (N^2 y - x c1)^2 - (d |S(h,h)| + x^2) sc
           = a x^2 + b_y x + c_y,
    c1 = N^2 z_last / |S(h,h)|, sc = K N^4 / |S(h,h)|, a = K D c1^2 - sc,
    b_y = -2 K D N^2 c1 y and c_y = K D N^4 y^2 - d |S(h,h)| sc.  y = 0
    passes while a m^2 <= d |S(h,h)| sc, so the m = 0 slab holds 0, and
    with a <= 0 no slab is empty.  Empty slabs come in runs, and from the
    fourth empty slab in a row the walk jumps.  At an empty m, a > 0 and
    m c1 lies strictly between y0 N^2 and (y0 + 1) N^2, y0 = floor(m c1 / N^2).
    The slab is [x c1 - s(x), x c1 + s(x)] with s(x)^2 = (d |S(h,h)| + x^2)
    sc / K D for real x >= 0, and 0 <= s'(x) < sqrt(sc / K D) < |c1|, so
    both edges move strictly in the direction of c1, without bound.  Say
    c1 > 0 (c1 < 0 is the mirror image, with y0 for y0 + 1).  The lower
    edge never returns to y0 N^2, so a later m' passes only with some
    y' > y0, and by the intermediate value theorem the upper edge meets
    (y0 + 1) N^2 at some x in (m, m'], where P_y0+1(x) <= 0.  So m' is at
    least the least real x >= m with P_y0+1(x) <= 0, which exists and which
    _first_root bounds from below to within one, and the walk moves to the
    first multiple of the step at or after that bound, at least one step
    on.  A jump costs several stepped pairings, and on the rank-3 walks of
    the benchmark's deep runs the runs of empty slabs are one to six steps
    long, so the walk steps through the first three.
    With no kernel (a rank-1 lattice) there is no slab, and the positive
    radius leaves every shell empty.

    On a rank-3 lattice two local tests follow the slab test.  The residue
    test: a shell point is x = B u with u = (-m/g, y), and S(x,x) = d reads
    Q(-m/g, y) = d with Q = B^T G B, so Q(-m/g, y) = d (mod M) has a
    solution y for every M.  m is dropped when there is none for M = 8 or
    for an odd prime p < 100 dividing det G.  _residue_masks builds the
    table of solvable (d mod M, m/g mod M) once per controller, and each
    walk folds its row for d into one bit pattern over m/g modulo the
    product of the moduli, so a pairing costs one shift and mask.  The
    inert-prime test: the kernel has rank 2, so a shell is the binary
    equation k1 X^2 + k0 Y^2 = R in ints, (k0, k1) = K D and R the scaled
    radius below, and m is dropped when an inert prime divides R to an odd
    power: an odd p < 100 with p not dividing k0 k1 and -k0 k1 a non-residue
    mod p.  The form is then anisotropic mod p, so p | k1 X^2 + k0 Y^2 forces
    p | X, Y, and by descent every nonzero value has even p-adic valuation
    (Cassels, Rational Quadratic Forms, ch. 8).  One gcd with the product of
    those primes gates the test.  Forms of rank >= 3 are isotropic mod every
    odd p not dividing them, so they have no inert prime; at rank >= 4 the
    walk makes neither test.

    Shell (d, m) lies on the slice S(h,x) = -m, centred at m h / |S(h,h)|,
    where the form on h^perp is fixed and the squared radius is
    (d |S(h,h)| + m^2) / |S(h,h)|.  The kernel part of the unimodular basis
    is LLL-reduced under the form, which keeps the Fincke-Pohst descent from
    walking long thin boxes (Fincke & Pohst 1985), whatever basis the
    lattice is given in, and LLL's integral Gram-Schmidt data is the LDL of
    the form on h^perp.  It also gives the int coordinates (z_0, z) of h in
    the unimodular basis, at every rank.  B^T G h = (g, 0, ..., 0), so
    z_0 = S(h,h)/g, and v = h - z_0 col_0 = sum z_i kern_i pairs with kern_j
    as -z_0 S(kern_j, col_0), read off column 0 of G B.  Forward pass: on
    that pairing lll's recurrence for a new row,
    u <- (d_{i+1} u - lam_vi lam_ji) / d_i, gives lam_vj = d_{j+1} mu_vj; each
    u is a bordered Gram determinant of the int vectors kern_0..kern_j, v,
    so each division is exact (Cohen, Alg. 2.6.7).  Back pass: v's
    coefficient on kern_j* is mu_vj = z_j + sum_{i>j} z_i mu_ij, so
    z_j = (lam_vj - sum_{i>j} z_i lam_ij) / d_{j+1}, exact as z_j is an int.
    So the only denominators are those of the LDL and |S(h,h)|: they are
    cleared once per controller, and each shell passes quadric_integer_points
    the ints m z N / |S(h,h)| and (d |S(h,h)| + m^2) K N^4 / |S(h,h)|.
    """
    g, cols = linalg.row_kernel_transform(linalg.mat_vec(lattice.gram, h))
    try:
        kern, dets, lam = linalg.lll(cols[1:], lattice.gram)
    except DegenerateFormError:
        label = lattice.name or f"with Gram {lattice.gram}"
        raise DegenerateFormError(f"lattice {label} is not hyperbolic: "
                                  "the form is not positive definite on h^perp") from None
    basis = linalg.transpose([cols[0]] + kern)
    gb = linalg.mat_mul(lattice.gram, basis)
    hh = -norm(lattice, h)
    r = len(kern)
    # z: the docstring's forward pass for v = h + (hh/g) col_0, then its back pass
    col0, lam_v, z = [row[0] for row in gb], [], [0] * r
    for j in range(r):
        u = hh // g * linalg.dot(kern[j], col0)
        for i in range(j):
            u = (dets[i + 1] * u - lam_v[i] * lam[j][i]) // dets[i]
        lam_v.append(u)
    for j in range(r - 1, -1, -1):
        z[j] = (lam_v[j] - sum(z[i] * lam[i][j] for i in range(j + 1, r))) // dets[j + 1]
    # D_i = dets[i+1]/dets[i] and U_ik = lam[k][i]/dets[i+1]: N clears U and
    # z/hh, K clears D, and hh | N makes the scaled radius an int
    nn = lcm(hh, *dets[1:r])
    kk = lcm(*dets[:r])
    form = (nn, [[lam[j][i] * nn // dets[i + 1] for j in range(i + 1, r)] for i in range(r)],
            [kk * dets[i + 1] // dets[i] for i in range(r)])
    centre = [x * nn // hh for x in z]
    scale = kk * nn ** 4 // hh
    inert = _inert_primes(*form[2]) if r == 2 else []
    inert_product = prod(inert)
    local = _residue_masks(linalg.mat_mul([cols[0]] + kern, gb)) if r == 2 else []
    period = lcm(*(mod for mod, _ in local))
    full = (1 << period) - 1
    rows_of = {}    # d -> (q, the rows of G B not 0 mod q)

    def roots(d, m):
        ys = linalg.quadric_integer_points(form, [m * x for x in centre],
                                           (d * hh + m * m) * scale)
        if not ys:
            return []
        if d not in rows_of:
            q = d // gcd(d, 2)
            rows_of[d] = q, [row for row in gb if any(x % q for x in row)]
        q, rows = rows_of[d]
        return sorted(linalg.mat_vec(basis, u) for u in ((-m // g,) + y for y in ys)
                      if all(linalg.dot(row, u) % q == 0 for row in rows))

    def walk(d, big, bound):
        if not r:
            return
        # the last slab holds an int iff K D t^2 <= rad, t the signed
        # remainder of m c1 mod N^2; once K D (N^2 // 2)^2 <= rad it spans
        # N^2 consecutive ints, and so does every later one
        step, per = lcm(g, d // gcd(d, 2)), big // d
        n2, c1, kd = nn * nn, nn * centre[-1], form[2][-1]
        half, wide_rad, base = n2 // 2, kd * (n2 // 2) ** 2, d * hh * scale
        a = kd * c1 * c1 - scale
        # bit i of ok: no modulus rules out m/g = i (mod period).  The masks
        # are read at t = -m/g, as Q(-t, -y) = Q(t, y), and times
        # full // (2^M - 1) an M-bit row repeats over the period
        ok, i, di = full, 0, step // g % period
        for mod, masks in local:
            ok &= masks[d % mod] * (full // ((1 << mod) - 1))
        m = key = misses = 0
        wide = False
        while key <= bound:
            if not wide:
                rad = base + m * m * scale
                t = (m * c1 + half) % n2 - half
                if kd * t * t > rad:
                    k, misses = 1, misses + 1
                    if misses > 3:      # the fourth empty slab in a row: jump
                        z = m * c1 // n2 + (c1 > 0)     # the multiple the slab moves to
                        lo = _first_root(a, -2 * kd * n2 * c1 * z, kd * n2 * n2 * z * z - base, m)
                        k = max(1, -((m - lo) // step))
                    m += k * step
                    key = m * m * per
                    i = (i + k * di) % period
                    continue
                misses, wide = 0, rad >= wide_rad
            if ok >> i & 1 and not (
                    inert and gcd(rad := base + m * m * scale, inert_product) > 1
                    and _odd_valuation(rad, inert)):
                yield key, d, m
            m += step
            key = m * m * per
            i = (i + di) % period
    return roots, walk


def candidate_stream(lattice: Lattice, h, filt: RootFilter, max_key: HeightKey):
    """The roots x with m^2/d <= max_key in (m^2/d, d, x) order, where
    m = -S(h, x) and d = S(x, x), as a generator.

    The inputs are checked and shells() is set up at the call; the shells
    are read as the generator is consumed.  The key bound cuts the stream
    at the shell level, so the generator terminates even when some norm
    admits no roots at all.  Each norm runs one walk of shells(), which
    keeps only the pairings whose shell can hold a root, and heapq.merge
    orders the walks by the int key m^2 (L/d), L = lcm(norms), ties broken
    by d: the keys compare exactly as m^2/d.  roots(d, m) is called only on
    a merged shell, once the consumer asks for it.  Roots are the primitive,
    congruence-admissible vectors of shells(), so crystallographic, with
    S(h, root) < 0.  The m = 0 shells come first, in increasing norm, and
    an admissible root there raises ControllerOnMirrorError.
    """
    if not isinstance(max_key, HeightKey):
        raise DomainError(f"max_key must be a HeightKey, got {max_key!r}")
    (h,) = int_vectors(lattice, [h], "controller entry")
    if norm(lattice, h) >= 0:
        raise DomainError("controller must be timelike")
    int_vectors(lattice, sum(filt.congruence or (), ()), "congruence entry")  # basis, residues
    roots, walk = shells(lattice, h)
    admissible = _congruence_test(filt)
    # m^2 (L/d) <= floor(L max_key) is exactly m^2/d <= max_key
    big = lcm(*filt.norms)
    bound = max_key.numerator * big // max_key.denominator

    def stream():
        for _, d, m in heapq.merge(*(walk(d, big, bound) for d in filt.norms)):
            for x in roots(d, m):
                if linalg.content(x) == 1 and admissible(x):
                    if m == 0:
                        raise ControllerOnMirrorError(x)
                    yield x
    return stream()


def run(lattice: Lattice, h, filt: RootFilter, *, max_key: HeightKey,
        max_roots: int | None = None) -> ChamberReport:
    """Accrete a fundamental chamber around the controller.

    Candidates are processed in height order and accepted when nonobtuse
    against everything accepted so far.  Each acceptance clips the kept
    dual cone once, and the run stops with terminated=True when that cone
    is pointed and inside the light cone (the finite-volume certificate).
    Hitting either budget sets exhausted=True instead.
    """
    if max_roots is not None and integer(max_roots, "max_roots") < 0:
        raise DomainError(f"max_roots must be None or an integer >= 0, got {max_roots!r}")
    stream = candidate_stream(lattice, h, filt, max_key)
    accepted, rows = [], []
    lin, rays = linalg.identity(lattice.rank), {}
    terminated = False
    if max_roots != 0:
        for x in stream:
            if any(linalg.dot(row, x) > 0 for row in rows):
                continue
            row = linalg.mat_vec(lattice.gram, x)
            lin, rays = cones.clip(lin, rays, rows, row)
            accepted.append(x)
            rows.append(row)
            terminated = not lin and cones.in_light_cone(lattice, rays)
            if terminated or len(accepted) == max_roots:
                break
    # S(a_i, a_j) = (G a_i) . a_j from the rows already held, once per pair
    gram = [[0] * len(accepted) for _ in accepted]
    for i, row in enumerate(rows):
        for j in range(i, len(accepted)):
            gram[i][j] = gram[j][i] = linalg.dot(row, accepted[j])
    return ChamberReport(accepted=tuple(accepted), terminated=terminated,
                         gram=tuple(map(tuple, gram)))


class GramBoundReport(Record):
    violations: tuple[tuple[int, int], ...]
    spanning_subset: tuple[int, ...] | None


def _pair_within_bounds(s, ni, nj):
    # -2 <= -2 s / sqrt(ni nj) < 62, compared via squares
    if s > 0:
        return s * s <= ni * nj
    return 4 * s * s < 62 * 62 * ni * nj


def gram_bound_check(lattice: Lattice, roots) -> GramBoundReport:
    """Check the half-open normalized-pairing window [-2, 62) on all wall
    pairs, and look for a connected spanning subset of size rank that stays
    inside it."""
    roots = int_vectors(lattice, roots, "wall entry")
    gram = gram_matrix(lattice, roots)
    norms = [row[i] for i, row in enumerate(gram)]
    if any(n <= 0 for n in norms):
        raise DomainError("all wall vectors must be spacelike")
    violations = [
        (i, j)
        for i in range(len(roots)) for j in range(i, len(roots))
        if not _pair_within_bounds(gram[i][j], norms[i], norms[j])
    ]
    n = lattice.rank
    subset = None
    for combo in combinations(range(len(roots)), n):
        if any((i, j) in violations for i, j in combinations(combo, 2)):
            continue
        if linalg.rank([roots[i] for i in combo]) < n:
            continue
        if linalg.support_connected(gram, combo):
            subset = combo
            break
    return GramBoundReport(violations=tuple(violations), spanning_subset=subset)
