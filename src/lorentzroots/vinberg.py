"""Height-ordered root enumeration and chamber accretion.

Candidates come in shells indexed by (norm d, pairing m = -S(h, delta))
with squared height m^2/d.  Each shell is the integer point set of an
affine positive definite quadric (the restriction of the form to the
hyperplane S(h, x) = -m), enumerated exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import combinations

from . import cones, linalg
from .errors import ControllerOnMirrorError, DomainError
from .lattice import Lattice, is_crystallographic, norm, pair


@total_ordering
@dataclass(frozen=True, eq=False)
class HeightKey:
    """Squared Vinberg height S(h,d)^2 / S(d,d), compared as an exact fraction."""
    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator < 0 or self.denominator <= 0:
            raise DomainError("height key needs numerator >= 0, denominator > 0")

    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __eq__(self, other):
        if not isinstance(other, HeightKey):
            return NotImplemented
        return self.value() == other.value()

    def __lt__(self, other):
        if not isinstance(other, HeightKey):
            return NotImplemented
        return self.value() < other.value()

    def __hash__(self):
        return hash(self.value())


@dataclass(frozen=True)
class RootFilter:
    norms: frozenset[int]
    congruence: tuple | None = None  # (basis rows of M1, tuple of residues)

    def __post_init__(self):
        object.__setattr__(self, "norms", frozenset(int(d) for d in self.norms))
        if not self.norms or any(d <= 0 for d in self.norms):
            raise DomainError("norm set must be a nonempty set of positive integers")
        if self.congruence is not None:
            basis, residues = self.congruence
            if linalg.det(basis) == 0:
                raise DomainError("congruence sublattice must have finite index")
            object.__setattr__(
                self, "congruence",
                (tuple(tuple(int(x) for x in row) for row in basis),
                 tuple(tuple(int(x) for x in r) for r in residues)))


def _residue_ok(filt: RootFilter, delta) -> bool:
    if filt.congruence is None:
        return True
    basis, residues = filt.congruence
    cols = linalg.transpose(basis)
    for r in residues:
        sol, _ = linalg.solve(cols, linalg.vec_sub(delta, r))
        if sol is not None and all(c.denominator == 1 for c in sol):
            return True
    return False


@dataclass(frozen=True)
class ChamberReport:
    accepted: tuple[tuple[int, ...], ...]
    terminated: bool
    exhausted: bool
    gram: tuple[tuple[int, ...], ...]


def shells(lattice, h):
    """roots(d, m): the sorted integer x with S(x,x) = d and S(h,x) = -m.

    Shell (d, m) lies on the slice S(h,x) = -m, centred at m h / |S(h,h)|,
    where the form on h^perp is fixed and the squared radius is
    d + m^2/|S(h,h)|; so the unimodular basis, the coordinates of h in it
    and the LDL of the kernel Gram matrix are computed once per controller.
    """
    g, cols = linalg.row_kernel_transform(linalg.mat_vec(lattice.gram, h))
    basis = linalg.transpose(cols)
    kern = cols[1:]
    hh = -norm(lattice, h)
    z, _ = linalg.solve(basis, h)
    c = [x / hh for x in z[1:]]
    ldl = linalg.ldl([[pair(lattice, u, v) for v in kern] for u in kern])

    def roots(d, m):
        if m % g != 0:
            return []
        pts = linalg.quadric_integer_points(ldl, [m * x for x in c],
                                            d + Fraction(m * m, hh))
        return sorted(linalg.mat_vec(basis, (-m // g,) + y) for y in pts)
    return roots


def _mirror_check(roots, lattice, filt):
    """Raise if some admissible root is orthogonal to the controller."""
    for d in sorted(filt.norms):
        for x in roots(d, 0):
            if any(x) and linalg.content(x) == 1 and is_crystallographic(lattice, x) \
                    and _residue_ok(filt, x):
                raise ControllerOnMirrorError(x)


def candidate_stream(lattice: Lattice, h, filt: RootFilter, max_key: HeightKey):
    """Yield (HeightKey, root) in increasing height up to max_key, ties
    broken by (norm, root).

    The key bound cuts the stream at the shell level, so the generator
    terminates even when some norm admits no roots at all.  Roots are
    primitive, crystallographic, congruence-admissible and satisfy
    S(h, root) < 0.
    """
    if norm(lattice, h) >= 0:
        raise DomainError("controller must be timelike")
    if any(Fraction(x).denominator != 1 for x in h):
        raise DomainError("controller must be integral")
    roots = shells(lattice, h)
    _mirror_check(roots, lattice, filt)

    bound = max_key.value()
    heap = []
    for d in sorted(filt.norms):
        heapq.heappush(heap, (Fraction(1, d), d, 1))
    while heap:
        key, d, m = heapq.heappop(heap)
        if key > bound:
            continue
        heapq.heappush(heap, (Fraction((m + 1) ** 2, d), d, m + 1))
        for x in roots(d, m):
            if linalg.content(x) == 1 and is_crystallographic(lattice, x) \
                    and _residue_ok(filt, x):
                yield HeightKey(m * m, d), x


def enumerate_roots(lattice: Lattice, h, filt: RootFilter, max_key: HeightKey):
    """All admissible roots with height key <= max_key, in processing order."""
    return [x for _, x in candidate_stream(lattice, h, filt, max_key)]


def run(lattice: Lattice, h, filt: RootFilter, *, max_key: HeightKey,
        max_roots: int | None = None) -> ChamberReport:
    """Accrete a fundamental chamber around the controller.

    Candidates are processed in height order and accepted when nonobtuse
    against everything accepted so far; after each acceptance the dual
    cone is re-examined, and the run stops with terminated=True once the
    finite-volume certificate holds.  Hitting either budget sets
    exhausted=True instead.
    """
    accepted = []
    terminated = False
    if max_roots is None or max_roots > 0:
        for _, x in candidate_stream(lattice, h, filt, max_key):
            if any(pair(lattice, x, y) > 0 for y in accepted):
                continue
            accepted.append(x)
            if cones.is_arithmetic_type(lattice, accepted).finite_volume:
                terminated = True
                break
            if max_roots is not None and len(accepted) >= max_roots:
                break
    exhausted = not terminated
    gram = tuple(tuple(pair(lattice, x, y) for y in accepted) for x in accepted)
    return ChamberReport(accepted=tuple(accepted), terminated=terminated,
                         exhausted=exhausted, gram=gram)


@dataclass(frozen=True)
class GramBoundReport:
    violations: tuple[tuple[int, int], ...]
    spanning_subset: tuple[int, ...] | None


def _pair_within_bounds(s, ni, nj, strict):
    # -2 <= -2 s / sqrt(ni nj)  and  (< or <=) 62, compared via squares
    if s > 0 and s * s > ni * nj:
        return False
    if s < 0:
        bound = 62 * 62 * ni * nj
        if strict:
            return 4 * s * s < bound
        return 4 * s * s <= bound
    return True


def gram_bound_check(lattice: Lattice, roots, strict: bool = True) -> GramBoundReport:
    """Check the normalized-pairing window [-2, 62) on all wall pairs, and
    look for a connected spanning subset of size rank that stays inside it."""
    roots = [tuple(a) for a in roots]
    norms = [norm(lattice, a) for a in roots]
    if any(n <= 0 for n in norms):
        raise DomainError("all wall vectors must be spacelike")
    gram = [[pair(lattice, a, b) for b in roots] for a in roots]
    violations = [
        (i, j)
        for i in range(len(roots)) for j in range(i, len(roots))
        if not _pair_within_bounds(gram[i][j], norms[i], norms[j], strict)
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
