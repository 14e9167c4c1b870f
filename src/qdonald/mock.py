"""Holomorphic parts of the mock modular objects.

Everything here is a formal q-expansion: the F_t double sums, the mock theta
function M, the Appell-Lerch mu-sum and its weighted variants, the assembled
series calQ / Q+, and the inversion transform of Q+ needed for the third
monopole family.  Non-holomorphic completions are never materialized; each
identity is checked on holomorphic parts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from . import forms
from .exact import Cyclo, unity
from .series import QSeries, memo

class OddT(ValueError):
    pass


class ThetaNotInvertible(ArithmeticError):
    pass


class NonExpandableDenominator(ArithmeticError):
    pass


class NonRationalResult(ArithmeticError):
    pass


def gamma_half_ratio(j: int) -> Fraction:
    """Gamma(1/2) / Gamma(1/2 + j) = 4^j j! / (2j)!, exactly."""
    return Fraction(4 ** j * factorial(j), factorial(2 * j))


# ---------------------------------------------------------------------------
# F_t and its renormalization

@memo
def cal_f(t: int, prec) -> QSeries:
    """calF_t = sum_{b>=0} sum_{a>b} (-1)^(a+b) (2b+1)^t q^(4a^2-(2b+1)^2)."""
    if t < 0 or t % 2:
        raise OddT("t must be a non-negative even integer")
    top = int(Fraction(prec))
    terms: dict = {}
    beta = 0
    while 4 * (beta + 1) ** 2 - (2 * beta + 1) ** 2 < top:
        w = Fraction((2 * beta + 1) ** t)
        alpha = beta + 1
        while True:
            e = 4 * alpha * alpha - (2 * beta + 1) ** 2
            if e >= top:
                break
            s = w if (alpha + beta) % 2 == 0 else -w
            terms[e] = terms.get(e, Fraction(0)) + s
            alpha += 1
        beta += 1
    return QSeries.from_terms(terms, top)


def f_t(t: int, prec) -> QSeries:
    """F_t: same series read in q^(1/8) (exponents (4a^2-(2b+1)^2)/8)."""
    return cal_f(t, Fraction(prec) * 8).rescale(1, 8)


# ---------------------------------------------------------------------------
# The mock theta function M

@memo
def mock_m(prec) -> QSeries:
    """M via the q-hypergeometric sum in the defining display."""
    top = int(Fraction(prec)) + 1
    num_top = top + 1
    total = QSeries.zero(num_top, 1)
    # running products over n of (1 - q^(16k-8)) and (1 + q^(16k-8))^-2
    num = QSeries.one()
    den = QSeries.from_terms({0: Fraction(1)}, num_top)
    n = 0
    while 8 * (n + 1) ** 2 - 1 < top:
        factor = QSeries.from_terms(
            {0: Fraction(1), 16 * (n + 1) - 8: Fraction(1)}, num_top)
        den = den * factor * factor
        if n:
            num = num * QSeries.from_terms(
                {0: Fraction(1), 16 * n - 8: Fraction(-1)}, num_top)
        sign = Fraction(-1) if n % 2 == 0 else Fraction(1)
        term = (num * den.inverse()).shift_exponent(8 * (n + 1) ** 2 - 1)
        total = total + sign * term.truncate(top)
        n += 1
    return total.truncate(prec)


def mock_m_bilateral(prec) -> QSeries:
    """M via the bilateral Lerch-type sum -(1/(2 Theta2)) sum q^(16n^2-8n)/(1+q^(16n-8))."""
    top = int(Fraction(prec)) + 2
    terms: dict = {}
    n = 0
    while True:
        base = 16 * n * n - 8 * n
        if n > 1 and base > top:
            break
        e = 16 * n - 8
        if e > 0:
            x = 0
            while base + e * x <= top:
                s = Fraction(-1) if x % 2 else Fraction(1)
                terms[base + e * x] = terms.get(base + e * x, Fraction(0)) + s
                x += 1
        else:  # n = 0: e = -8 < 0: 1/(1+q^e) = q^|e| / (1 + q^|e|)
            x = 1
            while base - e * x <= top:
                s = Fraction(1) if x % 2 else Fraction(-1)
                terms[base - e * x] = terms.get(base - e * x, Fraction(0)) + s
                x += 1
        n += 1
    n = -1
    while True:
        base = 16 * n * n - 8 * n
        if base > top:
            break
        e = -(16 * n - 8)
        x = 1
        while base + e * x <= top:
            s = Fraction(1) if x % 2 else Fraction(-1)
            terms[base + e * x] = terms.get(base + e * x, Fraction(0)) + s
            x += 1
        n -= 1
    bilateral = QSeries.from_terms(terms, top)
    theta2 = forms.theta_big(2, top)
    return (Fraction(-1, 2) * bilateral * theta2.inverse()).truncate(prec)


def mock_m_mu(prec) -> QSeries:
    """M via the difference of two mu-specializations at 32 tau.

    Sign convention as in :func:`s_transform_parts`: relative to the printed
    prefactors the literal theta convention flips the overall sign.
    """
    p = Fraction(prec)
    m1 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -24, 32), p + 2)
    m2 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -8, 32), p + 2)
    i = unity(Fraction(1, 4))
    out = (Fraction(1, 2) * i * (m1 - m2)).shift_exponent(-1)
    return out.truncate(p).demote()


# ---------------------------------------------------------------------------
# Appell-Lerch mu

@dataclass(frozen=True)
class LerchSpec:
    """mu(u, v; tau') with u = u_rat + u_tau*tau, v = v_rat + v_tau*tau,
    tau' = tau_mult*tau, all parameters rational."""
    u_rat: Fraction
    u_tau: Fraction
    v_rat: Fraction
    v_tau: Fraction
    tau_mult: Fraction

    def __init__(self, u_rat, u_tau, v_rat, v_tau, tau_mult):
        object.__setattr__(self, "u_rat", Fraction(u_rat))
        object.__setattr__(self, "u_tau", Fraction(u_tau))
        object.__setattr__(self, "v_rat", Fraction(v_rat))
        object.__setattr__(self, "v_tau", Fraction(v_tau))
        object.__setattr__(self, "tau_mult", Fraction(tau_mult))
        if self.tau_mult <= 0:
            raise ValueError("tau multiplier must be positive")


def jacobi_theta(spec: LerchSpec, prec) -> QSeries:
    """theta(v; tau') = sum_{nu in Z+1/2} (-1)^(nu-1/2) b^nu q'^(nu^2/2)."""
    vt, tm = spec.v_tau, spec.tau_mult
    top = Fraction(prec)
    ram = lcm(2 * vt.denominator, 8 * tm.denominator)
    terms: dict = {}
    # exponent(m) = vt*(m+1/2) + tm*(m+1/2)^2/2, minimized near the vertex
    vertex = -vt / tm - Fraction(1, 2)
    m0 = int(vertex)
    for direction in (1, -1):
        m = m0 if direction == 1 else m0 - 1
        while True:
            nu = Fraction(2 * m + 1, 2)
            e = vt * nu + tm * nu * nu / 2
            if e >= top and (m - vertex) * direction > 1:
                break
            if e < top:
                c = unity(spec.v_rat * nu)
                if m % 2:
                    c = -c
                w = int(e * ram)
                terms[w] = terms.get(w, Fraction(0)) + c
            m += direction
    series = QSeries.from_terms(terms, top, ram=ram).demote().reduce_ram()
    if series.is_zero():
        raise ThetaNotInvertible("theta specialization vanishes in the window")
    return series


@memo
def lerch_mu(spec: LerchSpec, prec) -> QSeries:
    """Formal expansion of Zwegers' mu(u, v; tau') at the given specialization.

    The bilateral sum is split into two one-sided geometric expansions at the
    index where 1 - a q'^n changes expansion direction.
    """
    ut, vt, tm = spec.u_tau, spec.v_tau, spec.tau_mult
    ram = 1
    for f in (ut / 2, vt, tm, ut + vt):
        ram = lcm(ram, Fraction(f).denominator)
    ram = lcm(ram, 8 * tm.denominator)
    theta = jacobi_theta(spec, Fraction(prec))
    vtheta = theta.valuation()
    top = Fraction(prec) + max(-vtheta, 0) + 1
    terms: dict = {}
    wram = lcm(ram, theta.ram)

    def add(e: Fraction, c):
        w = int(e * wram)
        prev = terms.get(w, Fraction(0))
        terms[w] = prev + c

    def min_exponent(n: int) -> Fraction:
        """Lowest exponent contributed by the n-th bilateral term."""
        base_e = ut / 2 + vt * n + tm * Fraction(n * (n + 1), 2)
        expo = ut + tm * n
        return base_e if expo >= 0 else base_e - expo

    def emit(n: int) -> None:
        # term_n = (-b)^n q'^(n(n+1)/2) / (1 - a q'^n), a = e(u_rat) q^ut;
        # base_e / base_c carry the a^(1/2) monomial and phase up front
        base_e = ut / 2 + vt * n + tm * Fraction(n * (n + 1), 2)
        expo = ut + tm * n
        base_c = unity(spec.u_rat / 2 + spec.v_rat * n)
        if n % 2:
            base_c = -base_c
        if expo == 0:
            z = unity(spec.u_rat)
            if z == 1:
                raise NonExpandableDenominator(
                    f"1 - a q'^{n} degenerates to zero")
            inv = (1 / (1 - z)) if not isinstance(z, Cyclo) \
                else (Cyclo.from_rational(1, z.order) - z).inverse()
            if base_e < top:
                add(base_e, base_c * inv)
        elif expo > 0:
            x = 0
            while base_e + expo * x < top:
                add(base_e + expo * x, base_c * unity(spec.u_rat * x))
                x += 1
        else:
            x = 1
            while base_e - expo * x < top:
                add(base_e - expo * x, -(base_c * unity(-spec.u_rat * x)))
                x += 1

    # min_exponent is a positive-leading quadratic in n, hence strictly
    # monotone once |n| clears this bound: two consecutive exceeds past it
    # end the sweep on that side of the bilateral sum.
    n_safe = int((abs(vt) + abs(ut) + 2) / tm) + 3
    for direction in (1, -1):
        n = 0 if direction == 1 else -1
        misses = 0
        while True:
            if min_exponent(n) < top:
                emit(n)
                misses = 0
            else:
                misses += 1
                if misses >= 2 and abs(n) > n_safe:
                    break
            n += direction
    bilateral = QSeries.from_terms(terms, top, ram=wram)
    result = bilateral * theta.inverse()
    return result.truncate(prec).demote().reduce_ram()


@memo
def lerch_mu_weighted(t: int, prec) -> QSeries:
    """(1/2) D_omega^t mu(4 tau + 2 omega, 4 tau; 8 tau) at omega = 0.

    The omega-derivative acts on the geometric expansion by weighting the
    rho^(2x+1) term with (2x+1)^t; for even t the two half-sums combine into
    the renormalized series calF_t / Theta4 with integer exponents.
    """
    if t < 0 or t % 2:
        raise OddT("t must be a non-negative even integer")
    top = int(Fraction(prec)) + 2
    terms: dict = {}
    n = 0
    while 4 * n * n + 8 * n + 3 <= top:
        base = 4 * n * n + 8 * n + 3
        sgn = 1 if n % 2 == 0 else -1
        e = 8 * n + 4
        x = 0
        while base + e * x <= top:
            w = Fraction((2 * x + 1) ** t * sgn)
            terms[base + e * x] = terms.get(base + e * x, Fraction(0)) + w
            x += 1
        n += 1
    n = -1
    while 4 * n * n + 8 * n + 3 <= top:
        base = 4 * n * n + 8 * n + 3
        sgn = 1 if n % 2 == 0 else -1
        e = -(8 * n + 4)
        x = 1
        while base + e * x <= top:
            w = Fraction((2 * x - 1) ** t * sgn)
            terms[base + e * x] = terms.get(base + e * x, Fraction(0)) - w
            x += 1
        n -= 1
    s = QSeries.from_terms(terms, top)
    theta4 = forms.theta_big(4, top)
    return (Fraction(-1, 2) * s * theta4.inverse()).truncate(prec)


# ---------------------------------------------------------------------------
# calQ and Q+

@memo
def cal_q(prec) -> QSeries:
    """calQ = -(7/2) A38 + (3/2) A78 - (1/2) B + 4 M (integer exponents)."""
    p = Fraction(prec)
    return (Fraction(-7, 2) * forms.form_a38(p)
            + Fraction(3, 2) * forms.form_a78(p)
            + Fraction(-1, 2) * forms.form_b(p)
            + 4 * mock_m(p)).truncate(p).reduce_ram()


def q_plus(prec) -> QSeries:
    """Q+ = calQ read in q^(1/8): support in -1/8 + (1/2) Z>=0."""
    return cal_q(Fraction(prec) * 8).rescale(1, 8)


def h_coefficients(count: int) -> list:
    """H_0, H_1, ... coefficients of Q+ = q^(-1/8) sum H_a q^(a/2)."""
    q = cal_q(4 * count + 4)
    return [q.coeff(Fraction(4 * a - 1)) for a in range(count)]


# ---------------------------------------------------------------------------
# The inversion transform of Q

@memo
def s_transform_parts(prec) -> dict:
    """(1/sqrt(-i tau)) X(-1/tau) for each constituent X of Q, renormalized.

    Keys A38/A78/B are eta-quotient transforms; key M is the holomorphic part
    of the mu-hat specialization.  All series carry integer exponents in the
    renormalized variable (q -> q^8 relative to the tau picture).
    """
    p = Fraction(prec)
    sA38 = Fraction(-1, 2) * forms.form_a(p)
    sB = 4 * forms.eta_quotient([(8, 5), (4, -4)], p)
    sA78 = sB + Fraction(1, 2) * forms.eta_quotient(
        [(2, 8), (8, -3), (4, -4)], p)
    # The sign convention for b^nu at half-integer characteristics is
    # fixed end-to-end by the printed rational expansion of the
    # transformed series; with the literal theta convention used here the
    # mu-prefactors enter with a plus sign.
    mu1 = lerch_mu(LerchSpec(Fraction(1, 2), 0, Fraction(1, 4), -1, 2), p + 1)
    mu2 = lerch_mu(LerchSpec(Fraction(1, 2), 0, Fraction(3, 4), -1, 2), p + 1)
    z8 = unity(Fraction(1, 8))
    sM = (Fraction(1, 4) * z8 * mu1
          + Fraction(1, 4) * (1 / z8) * mu2).shift_exponent(Fraction(-1, 4))
    sM = sM.truncate(p).demote()
    return {"A38": sA38, "A78": sA78, "B": sB, "M": sM}


@memo
def q_transform_s_ren(prec) -> QSeries:
    """(1/sqrt(-i tau)) Q(-1/tau) in the renormalized (integer-exponent) frame."""
    parts = s_transform_parts(prec)
    total = (Fraction(-7, 2) * parts["A38"]
             + Fraction(3, 2) * parts["A78"]
             + Fraction(-1, 2) * parts["B"]
             + 4 * parts["M"])
    total = total.demote()
    if not total.is_rational():
        raise NonRationalResult(
            "transform assembly left irrational coefficients")
    return total.truncate(prec)


def q_transform_s(prec) -> QSeries:
    """(1/sqrt(-i tau)) Q(-1/tau) as a q^(1/8)-ramified series."""
    return q_transform_s_ren(Fraction(prec) * 8).rescale(1, 8)


# ---------------------------------------------------------------------------
# The bracket combining E2 powers with derivatives of Q+

def e_bracket(i: int, j: int, prec) -> QSeries:
    """(i, j) summand of the half-integral-weight bracket of Q+:
    (-1)^j C(i,j) [Gamma(1/2)/Gamma(1/2+j)] 4^j 3^j E2^(i-j) (q d/dq)^j Q+.
    """
    if not 0 <= j <= i:
        raise ValueError("need 0 <= j <= i")
    p = Fraction(prec)
    c = Fraction((-1) ** j * comb(i, j)) * gamma_half_ratio(j) * (12 ** j)
    e2 = forms.eisenstein_e2(p + 1) ** (i - j) if i > j else QSeries.one()
    return (c * e2 * q_plus(p + 1).qdq(j)).truncate(p)
