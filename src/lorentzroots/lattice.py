"""Integral symmetric bilinear forms, their invariants and reflections.

A lattice is a free Z-module with a fixed basis and an integer Gram
matrix.  Vectors are coordinate tuples in that basis; rational vectors
use fractions.Fraction entries.  Isometries are integer matrices acting
on column vectors (column j = image of the j-th basis vector).
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction

from . import linalg
from .errors import DegenerateFormError, DimensionError, DomainError


def integer(x, what) -> int:
    """x as an int; anything else raises a DomainError that names x, so nothing is truncated."""
    if not isinstance(x, bool):      # operator.index takes True for 1
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"{what} {x!r} is not an integer")


def rational(x, what) -> int | Fraction:
    """x as an int (read through integer) or a Fraction; anything else, a float
    or a str included, raises a DomainError that names x, so nothing is parsed."""
    if isinstance(x, Fraction):
        return x
    try:
        return integer(x, what)
    except DomainError:
        raise DomainError(f"{what} {x!r} is not an integer or a Fraction") from None


def _vectors(lattice, vs, what, read) -> tuple:
    vs = tuple(tuple(read(x, what) for x in v) for v in vs)
    for v in vs:
        check_dim(lattice, v)
    return vs


def int_vectors(lattice, vs, what) -> tuple:
    """vs as int tuples: each entry read through integer, each length through check_dim."""
    return _vectors(lattice, vs, what, integer)


def rational_vectors(lattice, vs, what) -> tuple:
    """vs as tuples of ints and Fractions: each entry read through rational,
    each length through check_dim."""
    return _vectors(lattice, vs, what, rational)


class Record:
    """Base of the package's value types.  The fields are the class
    annotations, in order, and a class attribute of a field's name is its
    default.  A record is built from its fields by position or keyword, runs
    __post_init__ once they are set, is read-only (a normalization in
    __post_init__ writes through object.__setattr__), and compares, hashes
    and prints field by field; it equals only a record of its own class."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        state = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or state.keys() != set(names)
                or kwargs.keys() & names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        self.__dict__.update(state)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Lattice(Record):
    gram: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        g = tuple(tuple(integer(x, "gram entry") for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if n == 0:
            raise DimensionError("gram matrix is empty")
        if any(len(row) != n for row in g):
            raise DimensionError("gram matrix must be square")
        if g != linalg.transpose(g):
            raise DegenerateFormError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def to_dict(self):
        return {"name": self.name, "gram": [list(row) for row in self.gram]}


class LatticeInvariants(Record):
    signature: tuple[int, int]
    even: bool
    determinant: int
    smith_divisors: tuple[int, ...]
    exponent_aS: int


def lattice_from_dict(data) -> Lattice:
    if not isinstance(data, dict):
        kind = {list: "array", str: "string", bool: "boolean", type(None): "null"}
        raise TypeError(f"lattice must be a JSON object, not {kind.get(type(data), 'number')}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise TypeError(f"lattice name must be a string, not {type(name).__name__}")
    return Lattice(gram=data["gram"], name=name)


def load_lattice(path) -> Lattice:
    with open(path) as fh:
        return lattice_from_dict(json.load(fh))


def check_dim(lattice, v):
    if len(v) != lattice.rank:
        raise DimensionError(
            f"vector of length {len(v)} against lattice of rank {lattice.rank}")


def pair(lattice: Lattice, x, y):
    """The bilinear form S(x, y), exact (int or Fraction)."""
    check_dim(lattice, x)
    check_dim(lattice, y)
    return linalg.dot(x, linalg.mat_vec(lattice.gram, y))


def norm(lattice: Lattice, x):
    return pair(lattice, x, x)


def gram_matrix(lattice: Lattice, vectors):
    """The pairings S(v_i, v_j) of a vector list, exact, as a tuple of tuples;
    G v is formed once per vector."""
    for v in vectors:
        check_dim(lattice, v)
    gv = [linalg.mat_vec(lattice.gram, v) for v in vectors]
    return tuple(tuple(linalg.dot(u, w) for w in gv) for u in vectors)


def invariants(lattice: Lattice) -> LatticeInvariants:
    """Signature, parity, determinant and discriminant-group data.

    The signature comes from an exact symmetric diagonalization over the
    rationals, the divisor chain from the integer Smith normal form; the
    discriminant-group exponent is the largest Smith divisor.
    """
    d = linalg.det(lattice.gram)
    if d == 0:
        raise DegenerateFormError("gram matrix is degenerate")
    pos, neg, _ = linalg.signature(lattice.gram)
    divisors = linalg.smith_divisors(lattice.gram)
    even = all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank))
    return LatticeInvariants(
        signature=(pos, neg),
        even=even,
        determinant=d,
        smith_divisors=divisors,
        exponent_aS=max(divisors),
    )


def a_delta(lattice: Lattice, d) -> int:
    """Largest a such that d/a still pairs integrally with the whole lattice.

    Equals the gcd of the pairings of d with the basis vectors; the input
    must be primitive (reduce with linalg.primitive first).
    """
    check_dim(lattice, d)
    if all(x == 0 for x in d):
        raise DomainError("zero vector")
    if linalg.content(d) != 1:
        raise DomainError("a_delta expects a primitive vector")
    return linalg.content(linalg.mat_vec(lattice.gram, d))


def is_crystallographic(lattice: Lattice, d) -> bool:
    """True iff the reflection in d maps the lattice to itself."""
    nd = norm(lattice, d)
    if nd <= 0:
        raise DomainError(f"reflection vector must have positive norm, got {nd}")
    return all((2 * linalg.dot(row, d)) % nd == 0 for row in lattice.gram)


def reflection(lattice: Lattice, d):
    """Integer matrix of x -> x - (2 S(x,d) / S(d,d)) d."""
    if not is_crystallographic(lattice, d):
        raise DomainError(f"{tuple(d)} is not crystallographic; reflection is not integral")
    nd = norm(lattice, d)
    gd = linalg.mat_vec(lattice.gram, d)  # row j: S(e_j, d)
    n = lattice.rank
    return tuple(
        tuple((1 if i == j else 0) - (2 * d[i] * gd[j]) // nd for j in range(n))
        for i in range(n)
    )


def int_matrix(lattice: Lattice, g) -> tuple:
    """The isometry g as int rows: rank rows, each read through int_vectors."""
    if len(g) != lattice.rank:
        raise DimensionError("isometry matrix size must match the lattice rank")
    return int_vectors(lattice, g, "isometry entry")


def is_isometry(lattice: Lattice, g) -> bool:
    """True iff g^T gram g = gram and det g = +-1."""
    g = int_matrix(lattice, g)
    gtg = linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(lattice.gram, g))
    return gtg == lattice.gram and linalg.det(g) in (1, -1)


def int_inverse(g):
    """Inverse of an integer matrix with determinant +-1; raises otherwise."""
    inv = linalg.inverse(g)
    if any(x.denominator != 1 for row in inv for x in row):
        raise DomainError("matrix is not unimodular: its inverse is not integral")
    return tuple(tuple(int(x) for x in row) for row in inv)


def scaled(lattice: Lattice, m: int) -> Lattice:
    return Lattice(gram=tuple(tuple(m * x for x in row) for row in lattice.gram),
                   name=f"{lattice.name}({m})" if lattice.name else "")


def vector_of_sign(lattice: Lattice, sign: int, basis):
    """A primitive integer vector of the span of basis whose norm has the
    given sign (+1 or -1), or None: the first diagonal entry of that sign
    of the restricted form's rational diagonalization, pulled back."""
    rows, diag = linalg.diagonalizing_basis(gram_matrix(lattice, basis))
    for row, d in zip(rows, diag):
        if d * sign > 0:
            return linalg.clear_denominators(linalg.mat_vec(linalg.transpose(basis), row))
    return None


def timelike_vector(lattice: Lattice):
    """Some integer vector of negative norm (exact construction); raises if
    the form is positive semidefinite."""
    v = vector_of_sign(lattice, -1, linalg.identity(lattice.rank))
    if v is None:
        raise DomainError("lattice has no timelike vectors")
    return v
