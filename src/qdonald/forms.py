"""Named q-expansions of the classical modular forms used downstream.

All constructors take a target precision in q-units and return a QSeries
whose known window reaches at least that far.  The eta quotients, E_2, E*,
A38, A78 and h, which commands ask for again, are memoized with
:func:`~qdonald.series.memo`, which serves lower precisions by truncation;
1/Theta_2, 1/Theta_3 and 1/Theta_4 are reads of memoized eta quotients.
The rest are built where they are read: the one-pass Euler products and
theta constants, and E_4, E_odd and f_m, which no command asks twice.

Every eta quotient q^s prod_d P(q^d)^r, with P = prod (1 - q^n) and s =
sum d r / 24, an eta power too, is one ``eta_quotient``, which checks its
factors and calls its memoized body ``_eta_quotient``: the powers of P are
multiplied on integer exponents, on the lattice gZ of the gcd g of the
arguments read as Z, each known exactly to the window the result needs.
A negative power of P is one call of the power recurrence of
:func:`qdonald.exact.int_power`, so every division of this module and of
:mod:`qdonald.mock` is by an Euler product.  The product is placed once:
spread onto gZ and shifted by q^s, which puts it on its coarsest grid while
it is known to its lattice end, and only then truncated.
"""

from fractions import Fraction
from functools import reduce
from math import ceil, gcd
from operator import mul

from .series import (BadParameter, QSeries, check_index, check_precision,
                     factor_window, memo)


# ---------------------------------------------------------------------------
# Dedekind eta and eta quotients

def euler_product(prec, arg: int = 1) -> QSeries:
    """prod_{n>=1} (1 - q^(arg*n)) = sum_k (-1)^k q^(arg k (3k - 1)/2) over
    k in Z (Euler's pentagonal number theorem), known below q^ceil(prec)."""
    check_index("euler_product arg", arg, low=1)
    top = ceil(check_precision(prec))
    nums = [0] * max(top, 0)
    k = e1 = 0
    while e1 < top:  # e1 = arg k (3k - 1)/2, and its partner at -k
        sign, e2 = -1 if k % 2 else 1, e1 + arg * k
        nums[e1] = sign
        if e2 < top:
            nums[e2] = sign
        k += 1
        e1 += arg * (3 * k - 2)
    return QSeries.from_numerators(1, min(top, 0), nums, 1, top)


def eta(prec) -> QSeries:
    """eta(tau) = q^(1/24) prod (1 - q^n)."""
    return eta_quotient([(1, 1)], prec)


def eta_quotient(factors, prec) -> QSeries:
    """prod eta(d*tau)^r for factors = [(d, r), ...]."""
    return _eta_quotient(_eta_key(factors), prec)


def _eta_key(factors) -> tuple:
    """The factors (d, r) sorted, the memo key of ``_eta_quotient``, once
    there is one, each d a positive int and each r an int."""
    factors = tuple(sorted(tuple(f) for f in factors))
    if not factors:
        raise BadParameter("eta quotient needs at least one factor")
    for d, r in factors:
        check_index("eta argument d", d, low=1)
        check_index("eta exponent r", r, low=None)
    return factors


@memo
def _eta_quotient(factors: tuple, prec) -> QSeries:
    # P = 1 - q - ... is built past its lead.  Shifted by q^s, the product is
    # on the grid of its lead s, known below g ceil(top) + s, a grid point, so
    # truncate rounds up to a known point (an empty window: its bound's grid)
    s = sum(Fraction(d * r, 24) for d, r in factors)
    g = gcd(*(d for d, _ in factors))
    top = factor_window((prec - s) / g, 0, 0)
    out = reduce(mul, (euler_product(top, d // g) ** r for d, r in factors))
    return out.rescale(g).shift_exponent(s).truncate(prec)


def delta(prec) -> QSeries:
    """Discriminant form eta(tau)^24."""
    return eta_quotient([(1, 24)], prec)


# ---------------------------------------------------------------------------
# Theta constants

def theta_big(which: int, prec) -> QSeries:
    """Theta_2/3/4 by direct lattice sum (integer exponents): sum q^(m^2)
    over odd m > 0, and 1 + 2 sum (+-1)^(m/2) q^(m^2) over even m > 0."""
    check_index("which", which, choices=(2, 3, 4))
    top = ceil(check_precision(prec))
    nums = [0] * max(top, 0)
    m = int(which == 2)
    while m * m < top:
        nums[m * m] = 1 if which == 2 or not m else \
            -2 if which == 4 and m % 4 else 2
        m += 2
    return QSeries.from_numerators(1, min(top, 0), nums, 1, top)


# 1/Theta_which as an eta quotient (Koehler, Eta Products and Theta Series
# Identities, 2011): Theta2 = eta(16t)^2/eta(8t), Theta3 = eta(8t)^5 /
# (eta(4t)^2 eta(16t)^2), Theta4 = eta(4t)^2/eta(8t)
_THETA_INVERSE = {2: ((8, 1), (16, -2)), 3: ((4, 2), (8, -5), (16, 2)),
                  4: ((4, -2), (8, 1))}


def theta_inverse(which: int, prec) -> QSeries:
    """1/Theta_which as the divisor of a quotient known below q^prec: the
    memoized eta quotient, known one q-step past its lead at least."""
    check_index("which", which, choices=_THETA_INVERSE)
    lead = 1 if which == 2 else 0  # Theta2 = q + ..., Theta3/4 = 1 + ...
    return _eta_quotient(_THETA_INVERSE[which],
                         max(check_precision(prec), 1 - lead))


def vartheta(which: int, prec) -> QSeries:
    """Jacobi theta constants: 2*Theta2(tau/8) on the q^(1/8) grid,
    Theta3(tau/8) and Theta4(tau/8) on the q^(1/2) grid; a window with no
    known term is stored on the grid of its bound, as ``truncate`` stores
    it."""
    step = 1 if which == 2 else 4  # the lattice sum's exponents lie in step*Z
    base = theta_big(which, check_precision(prec) * 8)
    series = QSeries.from_numerators(8 // step, -(-base.lead // step),
                                     base.nums[::step], base.den,
                                     -(-base.prec // step))
    return (2 * series if which == 2 else series).truncate(prec)


# ---------------------------------------------------------------------------
# Eisenstein series

def _divisor_series(const: int, scale: int, power: int, step: int,
                    stride: int, prec) -> QSeries:
    """const + scale sum sigma(n) q^n over n = 1, 1 + stride, ..., with
    sigma(n) the sum of d^power over the divisors d = 1 mod step of n."""
    top = ceil(check_precision(prec))
    sig = [0] * max(top, 1)
    for d in range(1, top, step):
        for m in range(d, top, d):
            sig[m] += d ** power
    terms = {0: const} | {n: scale * sig[n] for n in range(1, top, stride)}
    return QSeries.from_terms(terms, top)


@memo
def eisenstein_e2(prec) -> QSeries:
    """E_2 = 1 - 24 sum sigma_1(n) q^n."""
    return _divisor_series(1, -24, 1, 1, 1, prec)


def eisenstein_e4(prec) -> QSeries:
    """E_4 = 1 + 240 sum sigma_3(n) q^n."""
    return _divisor_series(1, 240, 3, 1, 1, prec)


@memo
def eisenstein_estar(prec) -> QSeries:
    """E* = 1 + 24 sum sigma_odd(n) q^n (sum over positive odd divisors)."""
    return _divisor_series(1, 24, 1, 2, 1, prec)


def eisenstein_eodd(prec) -> QSeries:
    """E_odd = sum sigma_1(2n+1) q^(2n+1)."""
    return _divisor_series(0, 1, 1, 1, 2, prec)


# ---------------------------------------------------------------------------
# The weight 1/2 weakly holomorphic forms feeding the mock-theta identities

def form_a(prec) -> QSeries:
    """A = eta(4 tau)^8 / eta(8 tau)^7 = q^-1 - 8 q^3 + 27 q^7 - ..."""
    return eta_quotient([(4, 8), (8, -7)], prec)


def form_b(prec) -> QSeries:
    """B = eta(8 tau)^5 / eta(16 tau)^4 = q^-1 - 5 q^7 + 9 q^15 - ..."""
    return eta_quotient([(8, 5), (16, -4)], prec)


def _sieve(s: QSeries, residue: int, modulus: int) -> QSeries:
    kept = [v if m % modulus == residue else 0
            for m, v in enumerate(s.nums, s.lead)]
    return QSeries.from_numerators(1, s.lead, kept, s.den, s.prec)


@memo
def form_a38(prec) -> QSeries:
    """Exponents of A congruent to 3 mod 8; equals -8 eta(16t)^8/eta(8t)^7."""
    return _sieve(form_a(prec), 3, 8)


@memo
def form_a78(prec) -> QSeries:
    """Exponents of A congruent to 7 mod 8 (the q^-1 term included)."""
    return _sieve(form_a(prec), 7, 8)


@memo
def form_h(prec) -> QSeries:
    """h = eta(2t)^4/eta(4t)^8 * E*(2t) = E*(2t)/g, g = eta(4t)^8/eta(2t)^4,
    equal to 8 + eta^8/eta(4t)^8 = q^-1 + 20q - 62q^3 + ...: the function
    every Seiberg-Witten chart of ``sw`` reads u off."""
    quot = eta_quotient([(2, 4), (4, -8)], max(prec, 0))  # q^-1 + ..., to q^0
    est = eisenstein_estar(factor_window(prec, quot.valuation()) / 2)
    return (quot * est.rescale(2, 1)).truncate(prec)


def form_fm(m: int, prec) -> QSeries:
    """f_m = eta(4t)^(4m+24) / eta(8t)^(8m+21) E*(4t)^m = q^-(2m+3) + ...,
    the nf=0 u-plane kernel of weight m read at 8 tau; as theta constants,
    Theta4^9 (16 Theta2^4 + Theta3^4)^m / (Theta2 Theta3)^(2m+3)."""
    check_index("m", m)
    quot = eta_quotient([(4, 4 * m + 24), (8, -8 * m - 21)],
                        max(check_precision(prec), 0))  # to q^0, past its lead
    est = eisenstein_estar(factor_window(prec, quot.valuation()) / 4)
    return (quot * est.rescale(4, 1) ** m).truncate(prec)
