"""Exact computation with reflection groups of hyperbolic integral
lattices: Vinberg chamber accretion, Weyl vectors and twisting data,
arithmetic-type cone tests, the graded Weyl denominator identity, and
the one-variable q-series of cusp corrections.
"""

from .errors import DomainError
from .lattice import Lattice, LatticeInvariants, invariants, load_lattice, pair, reflection
from .vinberg import ChamberReport, HeightKey, RootFilter
from .weylstruct import WeylData

__all__ = [
    "ChamberReport",
    "DomainError",
    "HeightKey",
    "Lattice",
    "LatticeInvariants",
    "RootFilter",
    "WeylData",
    "invariants",
    "load_lattice",
    "pair",
    "reflection",
]
