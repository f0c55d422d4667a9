"""One integer rule for every library input: lattice.integer.

Each site below reads an integer input: a bool, a float, a Fraction or a
str there raises DomainError naming the value, and a numpy integer gives
the same answer as the Python int.
"""

import re
from fractions import Fraction

import pytest

from ex134_data import F01, F02, PHI
from lorentzroots import cones, kacmoody, lattice, linalg, qseries, vinberg, weylstruct
from lorentzroots.errors import DimensionError, DomainError
from lorentzroots.lattice import Lattice
from lorentzroots.vinberg import HeightKey, RootFilter

EX134 = Lattice(gram=((2, -2, -2), (-2, 2, -2), (-2, -2, 2)))
TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
RHO = (Fraction(0), Fraction(1, 4), Fraction(1, 4))       # isotropic Weyl vector of TRIANGLE
NORMS2 = RootFilter(norms=frozenset({2}))
BAD = [1.5, Fraction(3, 2), True, "2"]
DATUM = kacmoody.root_datum(EX134, TRIANGLE)


def walls(x):
    """TRIANGLE with its first wall scaled by x: (2, 0, 0) is a wall too."""
    return [(x, 0, 0)] + TRIANGLE[1:]


def phi(x):
    """PHI with its entry 2 at (1, 0) replaced by x."""
    return (PHI[0], (x,) + PHI[1][1:], PHI[2])


SITES = {
    "gram entry": lambda x: Lattice(gram=((x, 0), (0, -1))),
    "height key numerator": lambda x: HeightKey(x, 1),
    "height key denominator": lambda x: HeightKey(4, x),
    "norm": lambda x: RootFilter(norms=frozenset({x})),
    "congruence basis": lambda x: RootFilter(norms=frozenset({2}),
                                             congruence=(walls(x), [(0, 0, 0)])),
    "congruence residue": lambda x: RootFilter(norms=frozenset({2}),
                                               congruence=(walls(2), [(x, 0, 0)])),
    "controller": lambda x: list(vinberg.candidate_stream(EX134, (3, x, 2), NORMS2,
                                                          HeightKey(100, 1))),
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
    "generalized_weyl_check": lambda x: weylstruct.generalized_weyl_check(
        EX134, walls(x), RHO, 10),
    "m_star_p_membership": lambda x: weylstruct.m_star_p_membership(EX134, walls(x), RHO),
    "admissible_twists": lambda x: weylstruct.admissible_twists(EX134, (1, x, 0)),
    "is_isometry": lambda x: lattice.is_isometry(EX134, phi(x)),
    "fixed_isotropic": lambda x: weylstruct.fixed_isotropic(EX134, [phi(x)]),
    "build_Pk_sample phi": lambda x: weylstruct.build_Pk_sample(
        EX134, phi(x), (1, 0, 0), F01, F02, 2, 2),
    "classify_chamber symmetries": lambda x: weylstruct.classify_chamber(
        EX134, TRIANGLE, [phi(x)]),
    "imaginary_membership vector": lambda x: kacmoody.imaginary_membership(DATUM, (0, x, x), 2),
    # sizes, height bounds and truncations
    "real_root_tuples": lambda x: kacmoody.real_root_tuples(DATUM, x),
    "weyl_elements": lambda x: kacmoody.weyl_elements(DATUM, x),
    "sum_side": lambda x: kacmoody.sum_side(DATUM, x),
    "anti_invariance_check": lambda x: kacmoody.anti_invariance_check(DATUM, x),
    "imaginary_candidate_tuples": lambda x: kacmoody.imaginary_candidate_tuples(DATUM, x),
    "imaginary_membership n_max": lambda x: kacmoody.imaginary_membership(DATUM, (0, 1, 1), x),
    "k_element_tuples": lambda x: cones.k_element_tuples(DATUM.cartan.b, x),
    "k_elements height_bound": lambda x: cones.k_elements(EX134, TRIANGLE, x),
    "build_Pk_sample k": lambda x: weylstruct.build_Pk_sample(
        EX134, PHI, (1, 0, 0), F01, F02, x, 2),
    "build_Pk_sample window": lambda x: weylstruct.build_Pk_sample(
        EX134, PHI, (1, 0, 0), F01, F02, 2, x),
    "eta_power truncation": lambda x: qseries.eta_power(24, x),
    "ramanujan_tau": lambda x: qseries.ramanujan_tau(x),
    "cusp_identity truncation": lambda x: qseries.cusp_identity("tau_to_m", [24, 24], x),
    "build_H_ray truncation": lambda x: qseries.build_H_ray([24, 1], (0, 1, 1), x),
    "corrected_denominator_ray_check truncation":
        lambda x: qseries.corrected_denominator_ray_check([24], [24], x),
    "PowerSeries.one": lambda x: qseries.PowerSeries.one(x),
    "GradedSeries truncation": lambda x: kacmoody.GradedSeries.one(3, x).truncation,
    "extended_gram k": lambda x: kacmoody.extended_gram(EX134, x),
    "cusp_embedding k": lambda x: kacmoody.cusp_embedding(EX134, x, (1, 0, 0)),
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
              (HeightKey(two * two, two).numerator, HeightKey(4, two).denominator),
              (kacmoody.sum_side(DATUM, two).truncation,
               kacmoody.solve_multiplicities(DATUM, two).sum_side.truncation)]

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
    lambda: weylstruct.generalized_weyl_check(EX134, [(1.5, 0, 0)] + TRIANGLE[1:], RHO, 10),
    lambda: weylstruct.m_star_p_membership(EX134, [(1.5, 0, 0)] + TRIANGLE[1:], (0, 0, 0)),
    lambda: weylstruct.admissible_twists(EX134, (1.5, 0, 0)),
    lambda: kacmoody.real_root_tuples(DATUM, 2.5),
    lambda: kacmoody.weyl_elements(DATUM, 2.5),
    lambda: kacmoody.sum_side(DATUM, 2.5),
    lambda: kacmoody.anti_invariance_check(DATUM, 2.5),
    lambda: weylstruct.build_Pk_sample(EX134, PHI, (1, 0, 0), F01, F02, 2.5, 6),
    lambda: weylstruct.build_Pk_sample(EX134, PHI, (1, 0, 0), F01, F02, 2.0, 6),
    lambda: kacmoody.GradedSeries.one(3, 2.5),
], ids=["check_walls 1.5", "check_walls 3/2", "cartan 1.5", "cartan 3/2",
        "norm_bound 2.9", "max_pairing 2.9", "PowerSeries 0.5", "cusp_identity 24.7",
        "build_H_ray 2.5", "ray_check 24.4", "lattice_weyl_vector", "symmetry_group",
        "gram_bound_check", "q_plus_membership", "k_elements", "eta_power 2.5",
        "generalized_weyl_check 1.5", "m_star_p_membership 1.5", "admissible_twists 1.5",
        "real_root_tuples 2.5", "weyl_elements 2.5", "sum_side 2.5", "anti_invariance 2.5",
        "build_Pk_sample k 2.5", "build_Pk_sample k 2.0", "GradedSeries.one 2.5"])
def test_non_integers_that_were_truncated_or_crashed_now_raise(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


def test_an_isometry_entry_is_named_not_the_wall_it_makes():
    # Fraction(1) passed is_isometry, and build_Pk_sample then blamed a wall
    one = ((Fraction(1), 0, 0),) + PHI[1:]
    for call in (lambda: lattice.is_isometry(EX134, one),
                 lambda: weylstruct.build_Pk_sample(EX134, one, (1, 0, 0), F01, F02, 2, 2)):
        with pytest.raises(DomainError, match=r"^isometry entry Fraction\(1, 1\) is not an integer$"):
            call()


def test_the_scaling_k_is_named_not_the_gram_entry_it_makes():
    # k is read before -k enters the Gram matrix, so the error names k
    for call in (lambda: kacmoody.extended_gram(EX134, 2.5),
                 lambda: kacmoody.cusp_embedding(EX134, 2.5, (1, 0, 0))):
        with pytest.raises(DomainError, match="^k 2.5 is not an integer$"):
            call()


def test_negative_truncations_raise_everywhere():
    for call in (lambda: qseries.cusp_identity("tau_to_m", [24], -3),
                 lambda: qseries.cusp_identity("m_to_tau", [24], -3),
                 lambda: qseries.ramanujan_tau(-3)):
        with pytest.raises(DomainError, match="truncation must be nonnegative"):
            call()


def in_third_wall(v):
    """TRIANGLE with its last wall replaced by v."""
    return TRIANGLE[:2] + [v]


READERS = {
    "check_walls": lambda v: weylstruct.check_walls(EX134, in_third_wall(v)),
    "cartan": lambda v: kacmoody.cartan(EX134, in_third_wall(v)),
    "root_datum": lambda v: kacmoody.root_datum(EX134, in_third_wall(v)),
    "lattice_weyl_vector": lambda v: weylstruct.lattice_weyl_vector(EX134, in_third_wall(v)),
    "symmetry_group": lambda v: weylstruct.symmetry_group(EX134, in_third_wall(v)),
    "generalized_weyl_check": lambda v: weylstruct.generalized_weyl_check(
        EX134, in_third_wall(v), RHO, 10),
    "m_star_p_membership": lambda v: weylstruct.m_star_p_membership(
        EX134, in_third_wall(v), (0, 0, 0)),
    "m_star_p_membership vector": lambda v: weylstruct.m_star_p_membership(EX134, [], v),
    "generalized_weyl_check rho": lambda v: weylstruct.generalized_weyl_check(EX134, [], v, 5),
    "admissible_twists": lambda v: weylstruct.admissible_twists(EX134, v),
    "gram_bound_check": lambda v: vinberg.gram_bound_check(EX134, in_third_wall(v)),
    "controller": lambda v: list(vinberg.candidate_stream(EX134, v, NORMS2, HeightKey(100, 1))),
    "congruence": lambda v: list(vinberg.candidate_stream(
        EX134, (1, 1, 1), RootFilter(norms=frozenset({2}),
                                     congruence=(linalg.identity(len(v)), [v])),
        HeightKey(100, 1))),
    "dual_extreme_rays": lambda v: cones.dual_extreme_rays(EX134, in_third_wall(v)),
    "is_arithmetic_type": lambda v: cones.is_arithmetic_type(EX134, in_third_wall(v)),
    "q_plus_membership walls": lambda v: cones.q_plus_membership(
        EX134, in_third_wall(v), (1, 1, 0)),
    "q_plus_membership vector": lambda v: cones.q_plus_membership(EX134, TRIANGLE, v),
    "k_elements": lambda v: cones.k_elements(EX134, in_third_wall(v), 2),
    "imaginary_membership": lambda v: kacmoody.imaginary_membership(DATUM, v, 2),
    "is_crystallographic": lambda v: lattice.is_crystallographic(EX134, v),
    "is_isometry": lambda v: lattice.is_isometry(EX134, (PHI[0], v, PHI[2])),
    "fixed_isotropic": lambda v: weylstruct.fixed_isotropic(EX134, [(PHI[0], v, PHI[2])]),
    "build_Pk_sample phi": lambda v: weylstruct.build_Pk_sample(
        EX134, (PHI[0], v, PHI[2]), (1, 0, 0), F01, F02, 2, 2),
    "classify_chamber symmetries": lambda v: weylstruct.classify_chamber(
        EX134, TRIANGLE, [(PHI[0], v, PHI[2])]),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_vector_reader_checks_the_lattice_rank(reader):
    # (0, 0, 1, 5) was read as (0, 0, 1) by q_plus_membership, and a length-2
    # wall raised IndexError there or "length mismatch" from linalg.dot elsewhere
    for v in ((0, 1), (0, 0, 1, 5)):
        with pytest.raises(DimensionError,
                           match=f"^vector of length {len(v)} against lattice of rank 3$"):
            READERS[reader](v)
