"""Holomorphic parts of the mock modular objects.

Everything here is a formal q-expansion: the F_t double sums, the mock theta
function M, the weighted Appell-Lerch kernels, the assembled series calQ / Q+,
and the inversion transform of Q+ needed for the third monopole family, in Q
throughout.  Non-holomorphic completions are never materialized; each
identity is checked on holomorphic parts only.  The Appell-Lerch sums divide
by a theta constant through ``forms.theta_inverse``, a memoized eta quotient,
so no series here is inverted.  The weighted kernels, which no command asks
twice, hold no memo entry (see :func:`~qdonald.series.memo`).
"""

import itertools
from fractions import Fraction
from math import ceil, comb, factorial

from . import forms
from .series import (QSeries, check_index, check_precision, factor_window,
                     memo)


# ---------------------------------------------------------------------------
# F_t and its renormalization

def cal_f(t: int, prec) -> QSeries:
    """calF_t = sum_{b>=0} sum_{a>b} (-1)^(a+b) (2b+1)^t q^(4a^2-(2b+1)^2)."""
    return _cal_f(check_index("t", t, step=2), prec)


@memo
def _cal_f(t: int, prec) -> QSeries:
    top = ceil(prec)
    terms: dict = {}
    beta = 0
    while 4 * (beta + 1) ** 2 - (2 * beta + 1) ** 2 < top:
        w = (2 * beta + 1) ** t
        alpha = beta + 1
        while True:
            e = 4 * alpha * alpha - (2 * beta + 1) ** 2
            if e >= top:
                break
            s = w if (alpha + beta) % 2 == 0 else -w
            terms[e] = terms.get(e, 0) + s
            alpha += 1
        beta += 1
    return QSeries.from_terms(terms, top)


def f_t(t: int, prec) -> QSeries:
    """F_t: same series read in q^(1/8) (exponents (4a^2-(2b+1)^2)/8)."""
    return cal_f(t, check_precision(prec) * 8).rescale(1, 8)


# ---------------------------------------------------------------------------
# Appell-Lerch sums: the mock theta function M and the weighted kernel

def _lerch_quotient(row, first: int, stride: int, weight, which: int, prec
                    ) -> QSeries:
    """sum_n sign_n sum_(x >= 0) weight(x) q^(base_n + step_n x) / Theta_which,
    known below q^prec, over n = first, first + stride, ... with the rows
    row(n) = (base_n, step_n, sign_n) of a Lerch sum, base_n increasing."""
    inv = forms.theta_inverse(which, prec)
    top = ceil(factor_window(prec, inv.valuation()))
    terms: dict = {}
    for n in itertools.count(first, stride):
        base, step, sign = row(n)
        if base >= top:
            break
        for x, e in enumerate(range(base, top, step)):
            terms[e] = terms.get(e, 0) + sign * weight(x)
    return QSeries.from_terms(terms, top) * inv


@memo
def mock_m(prec) -> QSeries:
    """M via the bilateral Lerch-type sum

        M = -(1/(2 Theta2)) sum_(n in Z) q^(16n^2-8n) / (1 + q^(16n-8)).

    The n-th and (1-n)-th terms are equal, so the sum is twice its n >= 1
    half, and every term there expands geometrically in q^(16n-8) > 0.
    """
    return (-_lerch_quotient(lambda n: (16 * n * n - 8 * n, 16 * n - 8, 1),
                             1, 1, lambda x: (-1) ** x, 2, prec)
            ).truncate(prec)


def lerch_mu_weighted(t: int, prec) -> QSeries:
    """(1/2) D_omega^t mu(4 tau + 2 omega, 4 tau; 8 tau) at omega = 0.

    The omega-derivative acts on the geometric expansion by weighting the
    rho^(2x+1) term with (2x+1)^t; for even t this is the renormalized
    series calF_t / Theta4 = -S / Theta4, with S the half-sum over n, x >= 0
    of (-1)^n (2x+1)^t q^((2n+1)(2n+3+4x)).  The n <= -1 half-sum is S again
    under n -> -1 - n, x -> x + 1 (same exponent, weight and sign), so the
    two halves times -1/2 give -S.
    """
    check_index("t", t, step=2)
    prec = check_precision(prec)
    return (-_lerch_quotient(
        lambda n: ((2 * n + 1) * (2 * n + 3), 8 * n + 4, (-1) ** n),
        0, 1, lambda x: (2 * x + 1) ** t, 4, prec)).truncate(prec)


# ---------------------------------------------------------------------------
# calQ and Q+

def _q_combination(parts: dict) -> QSeries:
    """-(7/2) A38 + (3/2) A78 - (1/2) B + 4 M: calQ from its parts, or its
    inversion transform from theirs."""
    return (Fraction(-7, 2) * parts["A38"] + Fraction(3, 2) * parts["A78"]
            + Fraction(-1, 2) * parts["B"] + 4 * parts["M"])


@memo
def cal_q(prec) -> QSeries:
    """calQ from A38, A78, B and M (integer exponents)."""
    return _q_combination({"A38": forms.form_a38(prec),
                           "A78": forms.form_a78(prec),
                           "B": forms.form_b(prec), "M": mock_m(prec)}
                          ).truncate(prec)


def q_plus(prec) -> QSeries:
    """Q+ = calQ read in q^(1/8): support in -1/8 + (1/2) Z>=0."""
    return cal_q(check_precision(prec) * 8).rescale(1, 8)


def h_coefficients(count: int) -> list:
    """H_0, H_1, ... coefficients of Q+ = q^(-1/8) sum H_a q^(a/2)."""
    q = cal_q(4 * check_index("count", count) + 4)
    return [q.coeff(Fraction(4 * a - 1)) for a in range(count)]


# ---------------------------------------------------------------------------
# The inversion transform of Q

def s_transform_parts(prec) -> dict:
    """(1/sqrt(-i tau)) X(-1/tau) for each constituent X of Q, renormalized.

    Keys A38/A78/B are eta-quotient transforms; key M is the holomorphic part
    of the mu-hat specialization.  All series carry integer exponents in the
    renormalized variable (q -> q^8 relative to the tau picture).  Only
    :func:`q_transform_s_ren` calls it, and that is memoized.

    M is (1/4)(zeta8 mu1 + zeta8^-1 mu2) q^(-1/4) for two complex-conjugate
    specializations mu2 = conj(mu1) of Zwegers' mu.  With mu1 = i N / theta,
    N = sum_(n in Z) (-i)^n q^(n^2) / (1 + q^(2n)) and theta = zeta8 q^(-1/4)
    Theta4, this is -(1/2) Im(N) / Theta4; pairing n with -n gives

        sM = (1/(2 Theta4)) sum_(n odd > 0) (-1)^((n-1)/2) q^(n^2)
                                            (1 - q^(2n)) / (1 + q^(2n)).

    It is read on the q^(1/4) grid of theta's q^(-1/4), which fixes where its
    window ends at a fractional precision when it holds a known term.
    """
    p = check_precision(prec)
    eta8 = forms.eta_quotient([(2, 8), (8, -3), (4, -4)], p)
    sA38 = Fraction(-1, 2) * forms.form_a(p)
    sB = 4 * forms.eta_quotient([(8, 5), (4, -4)], p)
    # (1 - x) / (1 + x) = 1 + 2 sum_(j >= 1) (-x)^j with x = q^(2n)
    sM = Fraction(1, 2) * _lerch_quotient(
        lambda n: (n * n, 2 * n, 1 if n % 4 == 1 else -1), 1, 2,
        lambda j: 2 * (-1) ** j if j else 1, 4, p)
    return {"A38": sA38, "A78": sB + Fraction(1, 2) * eta8, "B": sB,
            "M": sM.to_ram(4).truncate(p)}


@memo
def q_transform_s_ren(prec) -> QSeries:
    """(1/sqrt(-i tau)) Q(-1/tau) in the renormalized (integer-exponent)
    frame: :func:`_q_combination` of the transformed parts, read on the
    q^(1/4) grid of M's theta, which an empty M part is not, and truncated."""
    return _q_combination(s_transform_parts(prec)).to_ram(4).truncate(prec)


def q_transform_s(prec) -> QSeries:
    """(1/sqrt(-i tau)) Q(-1/tau) as a q^(1/8)-ramified series."""
    return q_transform_s_ren(check_precision(prec) * 8).rescale(1, 8)


# ---------------------------------------------------------------------------
# The bracket combining E2 powers with derivatives of Q+

def e_bracket(i: int, j: int, prec) -> QSeries:
    """(i, j) summand of the half-integral-weight bracket of Q+:
    (-1)^j C(i,j) [Gamma(1/2)/Gamma(1/2+j)] 4^j 3^j E2^(i-j) (q d/dq)^j Q+.
    """
    check_index("i", i, low=check_index("j", j))
    # Gamma(1/2) / Gamma(1/2 + j) = 4^j j! / (2j)!, and 4^j 4^j 3^j = 48^j
    c = Fraction((-1) ** j * comb(i, j) * 48 ** j * factorial(j),
                 factorial(2 * j))
    qp = q_plus(max(check_precision(prec), 0))  # to q^0, past its lead
    e2 = forms.eisenstein_e2(factor_window(prec, qp.valuation())) ** (i - j)
    return (c * e2 * qp.qdq(j)).truncate(prec)
