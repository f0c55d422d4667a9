"""Truncated one-variable integer power series: eta powers and the cusp
identity between ray multiplicities and product exponents.
"""

from __future__ import annotations

from operator import mul

from .errors import DomainError
from .lattice import Record, integer


class PowerSeries(Record):
    """Integer coefficients c_0 .. c_N of a series truncated at degree N."""
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(c if type(c) is int else integer(c, "coefficient")
                                                 for c in self.coeffs))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, n):
        return cls((1,) + (0,) * integer(n, "truncation"))

    def __mul__(self, other):
        self._match(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))

    def _match(self, other):
        if self.truncation != other.truncation:
            raise DomainError("series truncations differ")


def _product_coeffs(tau, n):
    """a_0 .. a_n of prod_{k=1..n} (1 - q^k)^{tau[k-1]}, exact.

    Euler's recurrence k a_k = -sum_{j <= k} c(j) a_{k-j}, where
    c(j) = sum_{d | j} d tau(d) are the coefficients of -q f'/f.
    """
    c = [0] * (n + 1)
    for d in range(1, n + 1):
        for j in range(d, n + 1, d):
            c[j] += d * tau[d - 1]
    a = [1] + [0] * n
    for k in range(1, n + 1):
        a[k] = -sum(map(mul, c[1:k + 1], a[k - 1::-1])) // k
    return a


def eta_power(e: int, n: int) -> PowerSeries:
    """prod_{m >= 1} (1 - q^m)^e up to degree n, exact, in O(n^1.5).

    J.C.P. Miller's recurrence for a power of a series (Knuth, TAOCP 2,
    4.7), k a_k = sum_{j=1..k} ((e + 1) j - k) f_j a_{k-j}, runs over the
    nonzero coefficients f_j of prod (1 - q^m) only: by Euler's pentagonal
    theorem f_j = (-1)^i at j = i (3i -+ 1) / 2, so O(sqrt n) terms each.
    """
    if integer(n, "truncation") < 0:
        raise DomainError("truncation must be nonnegative")
    e = integer(e, "exponent")
    pentagonal = [(j, (-1) ** i) for i in range(1, n + 1)
                  for j in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2) if j <= n]
    a = [1] + [0] * n
    for k in range(1, n + 1):
        total = 0
        for j, f in pentagonal:     # increasing, so the j <= k are a prefix
            if j > k:
                break
            total += ((e + 1) * j - k) * f * a[k - j]
        a[k] = total // k
    return PowerSeries(tuple(a))


def ramanujan_tau(n: int):
    """tau(1..n) from the 24th eta power shifted by one degree."""
    return list(eta_power(24, n).coeffs[:n])


def cusp_identity(direction: str, coeffs, n: int):
    """Solve 1 - sum_t m(t) q^t = prod_k (1 - q^k)^{tau(k)} in either direction.

    coeffs lists tau(1..n) (direction "tau_to_m") or m(1..n) ("m_to_tau");
    the triangular system is exactly solvable over the integers both ways.
    m -> tau runs Euler's recurrence backwards: it recovers c(k) from the
    series, then tau(k) = (c(k) - sum_{d | k, d < k} d tau(d)) / k.
    """
    if integer(n, "truncation") < 0:
        raise DomainError("truncation must be nonnegative")
    coeffs = [integer(c, "coefficient") for c in list(coeffs)[:n]] + [0] * max(0, n - len(coeffs))
    if direction == "tau_to_m":
        return [-a for a in _product_coeffs(coeffs, n)[1:]]
    if direction == "m_to_tau":
        a = [1] + [-m for m in coeffs]
        c = [0] * (n + 1)
        below = [0] * (n + 1)       # sum_{d | j, d < j} d tau(d)
        tau = []
        for k in range(1, n + 1):
            c[k] = -k * a[k] - sum(map(mul, c[1:k], a[k - 1:0:-1]))
            tau.append((c[k] - below[k]) // k)
            for j in range(2 * k, n + 1, k):
                below[j] += k * tau[-1]
        return tau
    raise DomainError(f"unknown direction {direction!r}")
