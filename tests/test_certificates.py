"""Certificates at scale for the product kernel: classical identities whose
every coefficient is known in closed form, checked on series long enough
that their dense products take ``exact._kronecker``.  Hypothesis operands
never reach these sizes.  Each certificate counts its kernel calls and the
bytes its Kronecker products pack through :mod:`counters`, so a product
that stops taking the Kronecker branch, or packs into wider slots, shows
here, and each starts from empty memos, so that it builds what it
checks."""

from fractions import Fraction as F
from math import gcd, isqrt

from counters import (clear_memos, counting_kernel_calls,
                      counting_packed_bytes)
from qdonald import QSeries, forms, invariants as inv


def _divisor_sums(top: int, power: int = 1, skip: int = 0) -> list:
    """sum of d^power over the divisors d of n, for n < top, leaving out
    the d that ``skip`` divides (none for skip = 0)."""
    sums = [0] * top
    for d in range(1, top):
        if not skip or d % skip:
            dp = d ** power
            for m in range(d, top, d):
                sums[m] += dp
    return sums


def test_ramanujan_tau_is_multiplicative():
    """tau(mn) = tau(m) tau(n) for coprime m, n, and tau(p^(k+1)) = tau(p)
    tau(p^k) - p^11 tau(p^(k-1)) for primes p, below q^20000 of Delta =
    eta^24, whose powers of P but the first square are Kronecker products."""
    clear_memos()
    top = 20000
    with counting_kernel_calls() as calls, counting_packed_bytes() as packed:
        delta = forms.eta_quotient([(1, 24)], top)
    assert dict(calls) == {"_pairs": 1, "_kronecker": 4}
    assert sum(packed) == 819959
    assert (delta.ram, delta.lead, delta.prec, delta.den) == (1, 1, top, 1)
    tau = (0, *delta.nums)
    assert tau[1:4] == (1, -24, 252)
    for m in range(2, isqrt(top) + 1):
        for n in range(m + 1, (top - 1) // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)
    for p in range(2, isqrt(top) + 1):  # the primes p with p^2 < top
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            continue
        k = p
        while k * p < top:
            assert tau[k * p] == tau[p] * tau[k] - p ** 11 * tau[k // p], k
            k *= p


def test_jacobi_four_squares():
    """Theta_3^4 = sum r_4(n) q^(4n), Theta_3 = sum q^(4 k^2) over k in Z,
    with r_4(n) = 8 times the sum of the divisors of n that 4 does not
    divide, below q^80000: the second squaring, of the dense Theta_3^2 on
    its sublattice, is a Kronecker product that packs it once."""
    top = 80000
    with counting_kernel_calls() as calls, counting_packed_bytes() as packed:
        r4 = forms.theta_big(3, top) ** 4
    assert dict(calls) == {"_pairs": 1, "_kronecker": 1}
    assert sum(packed) == 80000
    sums = _divisor_sums(top // 4, skip=4)
    assert r4 == QSeries.from_terms(
        {0: 1} | {4 * n: 8 * sums[n] for n in range(1, top // 4)}, top)


def test_e4_squared_is_e8():
    """E_4^2 = E_8 = 1 + 480 sum sigma_7(n) q^n below q^20000, one
    Kronecker squaring, which packs its one operand once."""
    top = 20000
    with counting_kernel_calls() as calls, counting_packed_bytes() as packed:
        square = forms.eisenstein_e4(top) ** 2
    assert dict(calls) == {"_kronecker": 1}
    assert sum(packed) == 300000
    sigma7 = _divisor_sums(top, 7)
    e8 = QSeries.from_terms({0: 1} | {n: 480 * sigma7[n]
                                      for n in range(1, top)}, top)
    assert square == e8


def test_kronecker_hurwitz_relation():
    """sum over s in Z of H(4n - s^2) = 2 sigma(n) - sum over d | n of
    min(d, n/d) for every n <= 3000, with H(0) = -1/12: the coefficient at
    q^(4n) of the class number series times sum q^(s^2) over s in Z, which
    is Theta_3 at tau/4, a Kronecker product."""
    top = 3000
    h = inv.hurwitz(4 * top)
    window = 4 * top + 1
    with counting_kernel_calls() as calls, counting_packed_bytes() as packed:
        series = QSeries.from_terms(dict(enumerate(h)), window)
        product = series * forms.theta_big(3, 4 * window).rescale(1, 4)
    assert dict(calls) == {"_kronecker": 1}
    assert sum(packed) == 72006
    sigma, mins = [0] * (top + 1), [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            sigma[m] += d
            mins[m] += min(d, m // d)
    for n in range(1, top + 1):
        assert product.coeff(4 * n) == 2 * sigma[n] - mins[n], n
    assert product.coeff(0) == F(-1, 12)
