"""One-variable integer series, checked against a naive convolution oracle."""

import random

import pytest

from lorentzroots import qseries as qs
from lorentzroots.errors import DomainError


def naive_poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


def naive_binomial(e, m, n):
    """(1 - q^m)^e truncated at degree n, for any integer e."""
    from math import comb

    factor = [0] * (n + 1)
    if e >= 0:
        for j in range(0, min(e, n // m) + 1):
            factor[j * m] = (-1) ** j * comb(e, j)
    else:
        for j in range(0, n // m + 1):
            factor[j * m] = comb(-e + j - 1, j)
    return factor


def naive_eta_power(e, n):
    """Oracle: multiply the factors with schoolbook convolution."""
    out = [1] + [0] * n
    for m in range(1, n + 1):
        out = naive_poly_mul(out, naive_binomial(e, m, n), n)
    return out


def naive_cusp_identity(direction, coeffs, n):
    """Oracle: expand prod_k (1 - q^k)^{tau(k)} factor by factor; for m -> tau
    peel off tau(k) as the first coefficient the partial product misses."""
    coeffs = list(coeffs)[:n] + [0] * max(0, n - len(coeffs))
    prod = [1] + [0] * n
    if direction == "tau_to_m":
        for k in range(1, n + 1):
            prod = naive_poly_mul(prod, naive_binomial(coeffs[k - 1], k, n), n)
        return [-prod[t] for t in range(1, n + 1)]
    lhs = [1] + [-c for c in coeffs]
    tau = []
    for k in range(1, n + 1):
        tau.append(prod[k] - lhs[k])
        prod = naive_poly_mul(prod, naive_binomial(tau[-1], k, n), n)
    return tau


# classical reference values
P24 = [1, 24, 324, 3200, 25650, 176256, 1073720]
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def test_eta_power_p24():
    series = qs.eta_power(-24, 6)
    assert list(series.coeffs) == P24
    assert list(series.coeffs) == naive_eta_power(-24, 6)


def test_eta_power_tau():
    assert qs.ramanujan_tau(10) == TAU
    assert qs.ramanujan_tau(3) == [1, -24, 252]


def test_eta_power_zero_exponent():
    assert qs.eta_power(0, 5).coeffs == (1, 0, 0, 0, 0, 0)


def test_eta_power_against_oracle_various():
    rng = random.Random(50)
    cases = [(rng.randint(-8, 8), rng.randint(0, 12)) for _ in range(12)]
    for e, n in cases + [(24, 40), (-24, 40), (7, 40)]:
        assert list(qs.eta_power(e, n).coeffs) == naive_eta_power(e, n)


def test_eta_reciprocal():
    n = 15
    prod = qs.eta_power(24, n) * qs.eta_power(-24, n)
    assert prod.coeffs == qs.PowerSeries.one(n).coeffs


def test_eta_homomorphism():
    rng = random.Random(51)
    n = 10
    for _ in range(8):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        lhs = qs.eta_power(a, n) * qs.eta_power(b, n)
        assert lhs.coeffs == qs.eta_power(a + b, n).coeffs


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60, 300])
def test_eta_power_matches_the_general_product_recurrence(n):
    # the pentagonal (Miller) path against the O(n^2) Euler recurrence that
    # cusp_identity runs on the constant exponent list [e] * n
    for e in (-24, -3, -1, 0, 1, 2, 24, 25):
        coeffs = qs.eta_power(e, n).coeffs
        assert coeffs[0] == 1 and len(coeffs) == n + 1
        assert list(coeffs[1:]) == [-m for m in qs.cusp_identity("tau_to_m", [e] * n, n)], e


def test_eta_inverse_counts_partitions():
    p = qs.eta_power(-1, 200).coeffs
    assert list(p[:11]) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert p[100] == 190_569_292
    assert p[200] == 3_972_999_029_388


def test_eta_power_one_is_eulers_pentagonal_series():
    n = 300
    expected = [0] * (n + 1)
    for k in range(15):          # k (3k + 1) / 2 <= 300 stops at k = 13
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if j <= n:
                expected[j] = (-1) ** k
    assert list(qs.eta_power(1, n).coeffs) == expected
    assert sum(map(abs, expected)) == 28


def test_cusp_identity_zero():
    assert qs.cusp_identity("tau_to_m", [0, 0, 0], 3) == [0, 0, 0]
    assert qs.cusp_identity("m_to_tau", [0, 0, 0], 3) == [0, 0, 0]


def test_cusp_identity_borcherds_shadow():
    m = qs.cusp_identity("tau_to_m", [24] * 6, 6)
    assert m[:3] == [24, -252, 1472]
    assert qs.cusp_identity("m_to_tau", m, 6) == [24] * 6
    # tau-values beyond the truncation of the input are treated as zero
    assert qs.cusp_identity("tau_to_m", [24, 24, 24], 3) == [24, -252, 1472]


def test_cusp_identity_roundtrip_random():
    rng = random.Random(52)
    for _ in range(20):
        n = rng.randint(1, 10)
        tau = [rng.randint(-6, 6) for _ in range(n)]
        m = qs.cusp_identity("tau_to_m", tau, n)
        assert qs.cusp_identity("m_to_tau", m, n) == tau
        back = qs.cusp_identity("tau_to_m", qs.cusp_identity("m_to_tau", m, n), n)
        assert back == m


def test_cusp_identity_against_product_oracle():
    rng = random.Random(53)
    sizes = [0, -1, -3] + [rng.randint(1, 40) for _ in range(12)]
    for n in sizes:
        for direction in ("tau_to_m", "m_to_tau"):
            coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(0, 45))]
            if n < 0:
                with pytest.raises(DomainError, match="truncation must be nonnegative"):
                    qs.cusp_identity(direction, coeffs, n)
            else:
                assert qs.cusp_identity(direction, coeffs, n) == \
                    naive_cusp_identity(direction, coeffs, n)


def test_cusp_identity_bad_direction():
    with pytest.raises(DomainError):
        qs.cusp_identity("sideways", [1], 1)


def test_build_H_ray():
    ray = qs.build_H_ray([24, 24, 24], (0, 1, 1), 3)
    assert ray.a0 == (0, 1, 1)
    assert ray.entries == ((1, 24), (2, 24), (3, 24))
    assert qs.build_H_ray([0, 0], (0, 1, 1), 2).entries == ()
    mixed = qs.build_H_ray([3, -5, 0, 2], (0, 1, 1), 4)
    assert mixed.entries == ((1, 3), (2, -5), (4, 2))


def test_corrected_denominator_ray_check():
    m = [24, -252, 1472]
    assert qs.corrected_denominator_ray_check([24, 24, 24], m, 3)
    assert not qs.corrected_denominator_ray_check([24, 24, 24], [24, -251, 1472], 3)
    assert qs.corrected_denominator_ray_check([0, 0], [0, 0], 2)


def test_powerseries_inverse_requires_unit():
    with pytest.raises(DomainError):
        qs.PowerSeries((2, 1)).inverse()
    s = qs.PowerSeries((1, 5, -3, 2))
    prod = s * s.inverse()
    assert prod.coeffs == (1, 0, 0, 0)
    with pytest.raises(DomainError, match="truncations differ"):
        s * qs.PowerSeries((1, 5))


def test_powerseries_reads_only_non_int_coefficients(monkeypatch):
    # exact ints are stored as they are; anything else goes through
    # lattice.integer, so bools, floats and strings still raise and numpy
    # integers are stored as Python ints
    seen = []
    integer = qs.integer
    monkeypatch.setattr(qs, "integer", lambda x, what: seen.append(what) or integer(x, what))
    assert qs.eta_power(24, 250).coeffs == tuple(qs._product_coeffs([24] * 250, 250))
    assert "coefficient" not in seen
    for bad in (True, 2.5, "3"):
        with pytest.raises(DomainError, match=f"coefficient {bad!r} is not an integer"):
            qs.PowerSeries((1, bad))
    np = pytest.importorskip("numpy")
    coeffs = qs.PowerSeries((1, np.int64(-3), 2)).coeffs
    assert coeffs == (1, -3, 2) and all(type(c) is int for c in coeffs)
