"""One integer rule for every library input: lattice.integer.

Each site below reads an integer input: a bool, a float, a Fraction or a
str there raises DomainError naming the value, and a numpy integer gives
the same answer as the Python int.
"""

import re
from fractions import Fraction

import pytest

from lorentzroots import cones, kacmoody, lattice, qseries, vinberg, weylstruct
from lorentzroots.errors import DomainError
from lorentzroots.lattice import Lattice
from lorentzroots.vinberg import HeightKey, RootFilter

EX134 = Lattice(gram=((2, -2, -2), (-2, 2, -2), (-2, -2, 2)))
TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
RHO = (Fraction(0), Fraction(1, 4), Fraction(1, 4))       # isotropic Weyl vector of TRIANGLE
NORMS2 = RootFilter(norms=frozenset({2}))
BAD = [1.5, Fraction(3, 2), True, "2"]


def walls(x):
    """TRIANGLE with its first wall scaled by x: (2, 0, 0) is a wall too."""
    return [(x, 0, 0)] + TRIANGLE[1:]


SITES = {
    "gram entry": lambda x: Lattice(gram=((x, 0), (0, -1))),
    "height key numerator": lambda x: HeightKey(x, 1),
    "height key denominator": lambda x: HeightKey(4, x),
    "norm": lambda x: RootFilter(norms=frozenset({x})),
    "congruence basis": lambda x: RootFilter(norms=frozenset({2}),
                                             congruence=(walls(x), [(0, 0, 0)])),
    "congruence residue": lambda x: RootFilter(norms=frozenset({2}),
                                               congruence=(walls(2), [(x, 0, 0)])),
    "controller": lambda x: vinberg.enumerate_roots(EX134, (3, x, 2), NORMS2,
                                                    HeightKey(100, 1)),
    "max_roots": lambda x: vinberg.run(EX134, (1, 1, 1), NORMS2,
                                       max_key=HeightKey(1000, 1), max_roots=x),
    "height_bound": lambda x: kacmoody.solve_multiplicities(
        kacmoody.root_datum(EX134, TRIANGLE), x).mults,
    "check_walls": lambda x: weylstruct.check_walls(EX134, walls(x)),
    "cartan": lambda x: kacmoody.cartan(EX134, walls(x)),
    "root_datum": lambda x: kacmoody.root_datum(EX134, walls(x)).simple_roots,
    "norm_bound": lambda x: weylstruct.candidate_roots_for_weyl_vector(
        EX134, RHO, x, max_pairing=2),
    "max_pairing": lambda x: weylstruct.candidate_roots_for_weyl_vector(
        EX134, RHO, 8, max_pairing=x),
    "lattice_weyl_vector": lambda x: weylstruct.lattice_weyl_vector(EX134, walls(x)),
    "symmetry_group": lambda x: weylstruct.symmetry_group(EX134, walls(x)),
    "gram_bound_check": lambda x: vinberg.gram_bound_check(EX134, walls(x)),
    "dual_extreme_rays": lambda x: cones.dual_extreme_rays(EX134, walls(x)),
    "q_plus_membership walls": lambda x: cones.q_plus_membership(EX134, walls(x), (4, 1, 1)),
    "q_plus_membership vector": lambda x: cones.q_plus_membership(EX134, TRIANGLE, (x, 1, 1)),
    "k_elements": lambda x: cones.k_elements(EX134, walls(x), 2),
    "PowerSeries": lambda x: qseries.PowerSeries((1, x)).coeffs,
    "eta_power": lambda x: qseries.eta_power(x, 3),
    "cusp_identity tau_to_m": lambda x: qseries.cusp_identity("tau_to_m", [x], 1),
    "cusp_identity m_to_tau": lambda x: qseries.cusp_identity("m_to_tau", [x], 1),
    "build_H_ray multiplicity": lambda x: qseries.build_H_ray([x], (0, 1, 1), 1),
    "build_H_ray a0": lambda x: qseries.build_H_ray([24], (0, x, 1), 1),
    "corrected_denominator_ray_check": lambda x: qseries.corrected_denominator_ray_check(
        [24], [x], 1),
}


@pytest.mark.parametrize("site", SITES)
def test_every_integer_input_follows_one_rule(site):
    np = pytest.importorskip("numpy")
    call = SITES[site]
    for bad in BAD:
        with pytest.raises(DomainError, match=f"{re.escape(repr(bad))} is not an integer"):
            call(bad)
    assert call(np.int64(2)) == call(2)


def test_integer_is_operator_index_without_bools():
    np = pytest.importorskip("numpy")
    assert type(lattice.integer(np.int64(-3), "x")) is int and lattice.integer(7, "x") == 7
    for bad in BAD + [False, Fraction(2, 1), 2.0, None]:
        with pytest.raises(DomainError, match=f"^y {re.escape(repr(bad))} is not an integer$"):
            lattice.integer(bad, "y")


def test_numpy_entries_are_stored_as_python_ints():
    np = pytest.importorskip("numpy")
    two = np.int64(2)
    stored = [Lattice(gram=((two, 0), (0, -two))).gram,
              RootFilter(norms=frozenset({two})).norms,
              RootFilter(norms=frozenset({2}), congruence=(walls(two), [(two, 0, 0)])).congruence,
              weylstruct.check_walls(EX134, walls(two)),
              kacmoody.root_datum(EX134, walls(two)).simple_roots,
              qseries.PowerSeries((1, two)).coeffs,
              (HeightKey(two * two, two).numerator, HeightKey(4, two).denominator)]

    def leaves(x):
        return [y for z in x for y in leaves(z)] if isinstance(x, (tuple, frozenset)) else [x]
    for value in stored:
        assert all(type(y) is int for y in leaves(value)), value


@pytest.mark.parametrize("call", [
    lambda: weylstruct.check_walls(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: weylstruct.check_walls(EX134, [(Fraction(3, 2), 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: kacmoody.cartan(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: kacmoody.cartan(EX134, [(Fraction(3, 2), 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: weylstruct.candidate_roots_for_weyl_vector(EX134, RHO, 2.9, max_pairing=2),
    lambda: weylstruct.candidate_roots_for_weyl_vector(EX134, RHO, 8, max_pairing=2.9),
    lambda: qseries.PowerSeries((1, 0.5)),
    lambda: qseries.cusp_identity("tau_to_m", [24.7], 1),
    lambda: qseries.build_H_ray([2.5], (0, 1, 1), 1),
    lambda: qseries.corrected_denominator_ray_check([24], [24.4], 1),
    lambda: weylstruct.lattice_weyl_vector(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: weylstruct.symmetry_group(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: vinberg.gram_bound_check(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)]),
    lambda: cones.q_plus_membership(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 1)),
    lambda: cones.k_elements(EX134, [(1.5, 0, 0), (0, 1, 0), (0, 0, 1)], 2),
    lambda: qseries.eta_power(2.5, 3),
], ids=["check_walls 1.5", "check_walls 3/2", "cartan 1.5", "cartan 3/2",
        "norm_bound 2.9", "max_pairing 2.9", "PowerSeries 0.5", "cusp_identity 24.7",
        "build_H_ray 2.5", "ray_check 24.4", "lattice_weyl_vector", "symmetry_group",
        "gram_bound_check", "q_plus_membership", "k_elements", "eta_power 2.5"])
def test_non_integers_that_were_truncated_or_crashed_now_raise(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


def test_negative_truncations_raise_everywhere():
    for call in (lambda: qseries.cusp_identity("tau_to_m", [24], -3),
                 lambda: qseries.cusp_identity("m_to_tau", [24], -3),
                 lambda: qseries.ramanujan_tau(-3)):
        with pytest.raises(DomainError, match="truncation must be nonnegative"):
            call()
