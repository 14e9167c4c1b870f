"""Donaldson-invariant computations via constant-term pairings.

The instanton-side values come from the closed Goettsche formula; the
low-energy side comes from the cusp contribution of the regularized wall
integral, written as constant terms of theta-quotient kernels against the
mock series Q+ (or its transforms).  Both reduce to exact rational pairing
sums, so every number here is an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import forms, mock
from .series import InsufficientPrecision, QSeries


class ConstraintViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# constant-term pairing

def pair_constant_term(kernel: QSeries, slot: QSeries, j: int = 0) -> Fraction:
    """Coeff_{q^0}[ kernel * (q d/dq)^j slot ] by coefficient pairing.

    A product kernel * slot is known through q^target when the kernel is
    known through target - val(slot) and the slot through target -
    val(kernel); a window is exclusive, so "known through e" means
    prec > e.  A pairing is target = 0: it raises InsufficientPrecision
    unless the kernel is known through -val(slot) and the slot through
    -val(kernel).
    """
    k, s = kernel._align(slot)
    if not k.coeffs or not s.coeffs:
        kp, sp = k.prec, s.prec
        if (kp is not None and not k.coeffs and kp <= -s.lead) or \
           (sp is not None and not s.coeffs and sp <= -k.lead):
            raise InsufficientPrecision("pairing windows do not overlap q^0")
        return Fraction(0)
    if s.prec is not None and s.prec <= -k.lead:
        raise InsufficientPrecision("slot window too short for the pairing")
    if k.prec is not None and k.prec <= -s.lead:
        raise InsufficientPrecision("kernel window too short for the pairing")
    total = Fraction(0)
    ram = s.ram
    hi = min(s.lead + len(s.coeffs) - 1, -k.lead)
    for m in range(s.lead, hi + 1):
        cs = s.coeffs[m - s.lead]
        if not cs:
            continue
        ck = k.coeffs[-m - k.lead] if k.lead <= -m < k.lead + len(k.coeffs) else 0
        if not ck:
            continue
        w = ck * cs
        if j:
            w = w * Fraction(m, ram) ** j
        total += w
    return total


def _pair_sum(kernels) -> Fraction:
    """Sum of c * pair_constant_term(kernel, slot, d) over a kernel list
    [(key, c, kernel, slot, d)]."""
    return sum((c * pair_constant_term(kernel, slot, d)
                for _, c, kernel, slot, d in kernels), Fraction(0))


# ---------------------------------------------------------------------------
# pairing windows
#
# Every kernel is a theta quotient whose theta constants and E2 are known
# below q^pt.  E2 is cut at floor(pt), so pt is an integer.  A kernel is
# then known below val(kernel) + pt - loss, where loss is the valuation of
# the theta factor it divides by: 1/8 for t2 t3, 1/2 for t3^2 - t4^2.  By
# the rule of pair_constant_term, a product known through q^target needs
#     pt   = the least integer above  target - val(slot) - val(kernel) + loss,
#     slot = the least point of the slot's exponent grid above
#            target - val(kernel).
# The closed-form valuations, with w = m + n, are
#     kernels: -(2w+3)/8 on the theta frame, -(4w+7)/16 for nf=2,
#              -(8w+15)/8 for nf=3;
#     slots:   3/8 for F_t, -1/8 for Q+ and for its S-transform, -1/16 for
#              Q+ at tau/2 (nf=2).

def _windows(target, val_kernel, val_slot, step=Fraction(1, 8),
             loss=Fraction(1, 8)) -> tuple:
    """(pt, slot precision) of a kernel family paired with one slot."""
    return ((target - val_slot - val_kernel + loss) // 1 + 1,
            ((target - val_kernel) // step + 1) * step)


def _theta_val(m: int, n: int) -> Fraction:
    """Valuation of the kernels on the theta frame of p^m S^(2n)."""
    return Fraction(-(2 * m + 2 * n + 3), 8)


# ---------------------------------------------------------------------------
# Goettsche's closed formula

@lru_cache(maxsize=None)
def goettsche_phi(k: int, m: int, n: int) -> Fraction:
    """Instanton invariant for p^m S^(2n) at instanton number k.

    Zero unless m + n = 2(k - 1); the nonzero values are double sums of
    constant terms of theta-quotient kernels against the F_t series.
    """
    if m < 0 or n < 0 or k < 1 or m + n != 2 * (k - 1):
        return Fraction(0)
    pt, ps = _windows(0, _theta_val(m, n), Fraction(3, 8))
    return _pair_sum(_goettsche_kernels(
        m, n, ps, _theta_frame(m, n, pt, forms.eisenstein_e2)))


def _goettsche_kernels(m: int, n: int, ps, theta) -> list:
    """Kernel list [((l, j), coeff, kernel, slot, 0)] of the Goettsche double
    sum for p^m S^(2n), with slot F_(2(n-l)) known below q^ps, on the E2
    theta frame."""
    _, base, p4_pows, e2_pows = theta
    kernels = []
    for l in range(n + 1):
        slot = mock.f_t(2 * (n - l), ps)
        for j in range(l + 1):
            # sign (-1)^(n+j): fixed against the printed invariant table,
            # the worked (3,1) summands, and the Z0 reduction, which all
            # carry one sign more than the displayed closed formula
            c = (Fraction(8 * (-1) ** (n + j), 2 ** l * 3 ** l)
                 * Fraction(factorial(2 * n),
                            factorial(2 * n - 2 * l) * factorial(j)
                            * factorial(l - j)))
            kernels.append(((l, j), c, base * p4_pows[m + j] * e2_pows[l - j],
                            slot, 0))
    return kernels


def _power_list(series: QSeries, top: int) -> list:
    pows = [QSeries.one()]
    for _ in range(top):
        pows.append(pows[-1] * series)
    return pows


def _theta_frame(m: int, n: int, pt, e2):
    """The vartheta frame shared by the Goettsche formula, nf=0 and nf=2,
    with theta constants known below q^pt: t4, the Goettsche base
    t4^8 / (t2 t3)^(2m+2n+3) (nf=0 and nf=2 take one and two more factors
    t4), the ladder (t2^4 + t3^4)^k for k <= m + n, and the ladder e2(pt)^k
    for k <= n."""
    t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
    base = t4 ** 8 * ((t2 * t3) ** (2 * m + 2 * n + 3)).inverse()
    return (t4, base, _power_list(t2 ** 4 + t3 ** 4, m + n),
            _power_list(e2(pt), n))


# ---------------------------------------------------------------------------
# u-plane coefficients

@dataclass(frozen=True)
class DCell:
    nf: int
    m: int
    n: int
    value: Fraction
    h_combo: tuple  # ((alpha, weight), ...) with value = sum w_a H_a


def _frame(nf: int, m: int, n: int):
    """Per-family data of D^nf_(m,2n), with windows for the pairing: the
    base kernel, the theta and E2 power ladders, the slot series with its
    exponent grid (start, step), the H-combo sign, and the coefficient row
    (sign, 2-power offset, 2-power slope in j) read by :func:`_d_kernels`."""
    if nf == 0:
        pt, ps = _windows(0, _theta_val(m, n), Fraction(-1, 8))
        return _nf0_frame(n, ps, _theta_frame(m, n, pt, forms.eisenstein_e2))
    w = m + n
    if nf == 2:
        pt, ps = _windows(0, Fraction(-(4 * w + 7), 16), Fraction(-1, 16),
                          Fraction(1, 16))
        t4, base, pows, e2_pows = _theta_frame(
            m, n, pt, lambda p: forms.eisenstein_e2(2 * p).rescale(1, 2))
        base = (base * (t4 * t4)
                * forms.vartheta(2, 2 * pt).rescale(1, 2).inverse())
        slot = mock.q_plus(2 * ps).rescale(1, 2)
        return (base, pows, e2_pows, slot, (Fraction(-1, 16), Fraction(1, 4)),
                1, (-1, 2 - n, 3))
    if nf == 3:
        pt, ps = _windows(0, Fraction(-(8 * w + 15), 8), Fraction(-1, 8),
                          loss=Fraction(1, 2))
        t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
        tt = t3 * t4
        base = (t2 ** 9 * ((t3 ** 2 - t4 ** 2) ** (2 * w + 6)).inverse()
                * tt ** 3)
        pows = _power_list(tt ** 2, w)
        e2_pows = _power_list(forms.eisenstein_e2(pt), n)
        slot = mock.q_transform_s(ps)
        # sign (-1)^(i+j) without the displayed extra (-1)^(m+n-j): the
        # printed invariant table is the arbiter, and only this choice also
        # satisfies the duality between the two slots
        return (base, pows, e2_pows, slot, (Fraction(-1, 8), Fraction(1, 2)),
                -1, (1, 3 * m + 2 * n + 5, 2))
    raise ConstraintViolation(f"no u-plane family for nf={nf}")


def _nf0_frame(n: int, ps, theta):
    """The nf=0 frame, with Q+ known below q^ps, on a built E2 theta frame,
    which a criterion cell shares with its Goettsche kernels."""
    t4, base, pows, e2_pows = theta
    return (base * t4, pows, e2_pows, mock.q_plus(ps),
            (Fraction(-1, 8), Fraction(1, 2)), 1, (-1, 1 - n, 2))


def _d_kernels(m: int, n: int, frame):
    """Kernel list [((i, j), coeff, kernel, slot, j)], the slot's exponent
    grid and the H-combo sign for D^nf_(m,2n) on the family's frame.

    The (i, j) coefficient is sign (-1)^(i+j) 2^(offset + slope j) / 3^(n-j)
    (2n)! / ((n-i)! j! (i-j)!) Gamma(1/2) / Gamma(1/2+j).
    """
    base, pows, e2_pows, slot, grid, combo_sign, (sign, off, slope) = frame
    kernels = []
    for i in range(n + 1):
        for j in range(i + 1):
            c = (sign * (-1) ** (i + j) * Fraction(2) ** (off + slope * j)
                 / 3 ** (n - j)
                 * Fraction(factorial(2 * n),
                            factorial(n - i) * factorial(j) * factorial(i - j))
                 * mock.gamma_half_ratio(j))
            kernels.append(((i, j), c, base * pows[m + n - i] * e2_pows[i - j],
                            slot, j))
    return kernels, grid, combo_sign


def uplane_D(nf: int, m: int, n: int) -> DCell:
    """Exact u-plane coefficient for p^m S^(2n), with its H-combination.

    The combination weights are taken against the coefficients H_a of the
    mock series; for nf=3, where the slot is the inversion transform, they
    are computed against -Q via the duality of the two presentations.
    """
    if m < 0 or n < 0:
        raise ConstraintViolation("m, n must be non-negative")
    kernels, (start, step), combo_sign = _d_kernels(m, n, _frame(nf, m, n))
    weights: dict = {}
    for _, c, kernel, _, j in kernels:
        lead_q = Fraction(kernel.lead, kernel.ram)
        alpha = 0
        while True:
            e = start + alpha * step
            if e > -lead_q:
                break
            ck = kernel.coeff(-e)
            if ck:
                w = combo_sign * c * ck * e ** j
                weights[alpha] = weights.get(alpha, Fraction(0)) + w
            alpha += 1
    combo = tuple((a, weights[a]) for a in sorted(weights) if weights[a])
    return DCell(nf=nf, m=m, n=n, value=_pair_sum(kernels), h_combo=combo)


def evaluate_h_combo(combo, h_values) -> Fraction:
    return sum((w * h_values[a] for a, w in combo), Fraction(0))


# ---------------------------------------------------------------------------
# the vanishing criterion and its summands

def _criterion_kernels(m: int, n: int, target) -> tuple:
    """The Goettsche kernels with their F-slots and the nf=0 kernels with
    Q+, on one E2 theta frame, with products known through q^target.

    The slot window depends only on the kernels' valuation, which the two
    lists share; Q+ has the lower valuation, so its pt serves the F-slots.
    """
    pt, ps = _windows(target, _theta_val(m, n), Fraction(-1, 8))
    theta = _theta_frame(m, n, pt, forms.eisenstein_e2)
    return (_goettsche_kernels(m, n, ps, theta),
            _d_kernels(m, n, _nf0_frame(n, ps, theta))[0])


def criterion_summands(m: int, n: int, prec) -> tuple:
    """The (k, j) summands of both sides of the renormalized criterion sum,
    as two dicts keyed by (k, j) with 0 <= j <= k <= n.

    Side 1 is the Goettsche kernels times their F-slots (the F-bracket),
    side 2 the nf=0 kernels times (q d/dq)^j Q+ (the bracket with
    derivatives of the mock series).  The products are known through
    q^p0, p0 = prec/8, then cut below q^p0 and renormalized (q -> q^8) to
    integer exponents.
    """
    p0 = Fraction(prec) / 8
    return tuple({key: (c * kernel * slot.qdq(d)).truncate(p0).rescale(8, 1)
                  for key, c, kernel, slot, d in kernels}
                 for kernels in _criterion_kernels(m, n, p0))


def criterion_series(m: int, n: int, prec) -> QSeries:
    """Renormalized difference of the two criterion brackets, all (k, j)."""
    side1, side2 = criterion_summands(m, n, prec)
    total = QSeries.zero(Fraction(prec), 1)
    for key in side1:
        total = total + side1[key] - side2[key]
    return total


def criterion_check(m: int, n: int) -> bool:
    """True iff the criterion series has (exactly) vanishing constant term:
    the Goettsche pairing sum equals the nf=0 pairing sum."""
    goettsche, nf0 = _criterion_kernels(m, n, 0)
    return _pair_sum(goettsche) == _pair_sum(nf0)


# ---------------------------------------------------------------------------
# the Z0 series

def z0_series(prec) -> QSeries:
    """Z0 = calQ + 4 calF0 / Theta4 = E*(4 tau)/eta(8 tau)^3."""
    p = Fraction(prec)
    f0 = mock.cal_f(0, p + 2)
    theta4 = forms.theta_big(4, p + 2)
    return (mock.cal_q(p) + 4 * f0 * theta4.inverse()).truncate(p)


def z0_closed_form(prec) -> QSeries:
    p = Fraction(prec)
    est = forms.eisenstein_estar(p / 4 + 1).rescale(4, 1)
    return (est * forms.eta_power(8, -3, p + 2)).truncate(p)


# ---------------------------------------------------------------------------
# Hurwitz class numbers and the rank-two Euler characteristic series

def hurwitz(nmax: int) -> list:
    """H(0..nmax): weighted counts of reduced positive-definite forms."""
    values = [Fraction(0)] * (nmax + 1)
    if nmax >= 0:
        values[0] = Fraction(-1, 12)
    for n in range(1, nmax + 1):
        if n % 4 in (1, 2):
            continue
        total = Fraction(0)
        b = n % 2
        while b * b <= n // 3 + 1 and b * b <= n:
            m4 = n + b * b
            if m4 % 4 == 0:
                m = m4 // 4
                a = max(b, 1)
                while a * a <= m:
                    if m % a == 0:
                        c = m // a
                        if c >= a:
                            if b == 0:
                                w = Fraction(1, 2) if a == c else Fraction(1)
                            elif a == b:
                                w = Fraction(1, 3) if a == c else Fraction(1)
                            else:
                                w = Fraction(1) if a == c else Fraction(2)
                            total += w
                    a += 1
            b += 2
        values[n] = total
    return values


def vafa_witten_series(kmax: int) -> QSeries:
    """Euler-characteristic generating series over eta^6, to q^(kmax - 1/2)."""
    h = hurwitz(4 * kmax + 3)
    num = QSeries.from_terms(
        {k: 3 * h[4 * k - 1] for k in range(1, kmax + 1)}, kmax + 1)
    inv6 = forms.euler_product(kmax + 1).inverse() ** 6
    return (num * inv6).shift_exponent(Fraction(-1, 2)).truncate(kmax + Fraction(1, 2))


# ---------------------------------------------------------------------------
# index bundle Chern coefficients

@dataclass(frozen=True)
class IndexChernCoeffs:
    k: int
    r: int
    table: dict = field(hash=False)

    def __getitem__(self, key):
        return self.table.get(key, Fraction(0))


def series_exp(a: QSeries) -> QSeries:
    """exp of a series with positive valuation, to its precision."""
    if a.is_zero():
        return QSeries.one() if a.prec is None else \
            QSeries.from_terms({0: Fraction(1)}, a.prec_q())
    if a.lead < 1:
        raise ValueError("series_exp needs positive valuation")
    p = a.prec_q()
    total = QSeries.from_terms({0: Fraction(1)}, p)
    term = QSeries.from_terms({0: Fraction(1)}, p)
    s = 1
    while True:
        term = (term * a / s).truncate(p)
        if term.is_zero():
            break
        total = total + term
        s += 1
    return total


def index_chern_coeffs(k: int, r: int, imax: int, jmax: int, lmax: int
                       ) -> IndexChernCoeffs:
    """Taylor coefficients f_(i,2j,2l) of the index-bundle Chern generating
    function exp(x J1(z)/2 + y^2 J2(z)/4 + J3(z))."""
    top = 2 * lmax + 1
    j1 = QSeries.from_terms(
        {2 * l: Fraction((-1) ** l, 2 * l + 1) for l in range(lmax + 1)}, top)
    j2 = QSeries.from_terms(
        {2 * l: Fraction((-1) ** l, 2 * l + 3) for l in range(lmax + 1)}, top)
    log_part = QSeries.from_terms(
        {2 * s: Fraction((-1) ** (s + 1), s) for s in range(1, lmax + 1)}, top)
    j3 = (Fraction(-(r * r - k), 2) * log_part
          + Fraction(4 * k - 1, 4) * (j1 - 1))
    exp_j3 = series_exp(j3)
    table = {}
    xi = QSeries.from_terms({0: Fraction(1)}, top)
    for i in range(imax + 1):
        yj = xi
        for j in range(jmax + 1):
            for l in range(lmax + 1):
                c = (yj * exp_j3).coeff(2 * l)
                if c:
                    table[(i, 2 * j, 2 * l)] = c
            yj = yj * j2 / (4 * (j + 1))
        xi = xi * j1 / (2 * (i + 1))
    return IndexChernCoeffs(k=k, r=r, table=table)


def phi_euler_combo(nf: int, k: int, m: int, n: int) -> Fraction:
    """Monopole-obstruction invariant as a convolution against the f-table."""
    if nf == 2:
        if k % 2 or m + n + 2 != k:
            raise ConstraintViolation("nf=2 needs k even and m+n+2=k")
        big = k
        copies = 2
    elif nf == 3:
        if k % 2 or 2 * m + 2 * n + 4 != k:
            raise ConstraintViolation("nf=3 needs k even and 2m+2n+4=k")
        big = 3 * k // 2
        copies = 3
    else:
        raise ConstraintViolation("nf must be 2 or 3")
    f = index_chern_coeffs(k, 0, 0, big, big)
    conv = {(0, 0): Fraction(1)}
    for _ in range(copies):
        nxt = {}
        for (j1, l1), w1 in conv.items():
            for j2 in range(big + 1 - j1):
                for l2 in range(big + 1 - l1 - j2):
                    w2 = f[(0, 2 * j2, 2 * l2)]
                    if w2:
                        key = (j1 + j2, l1 + l2)
                        nxt[key] = nxt.get(key, Fraction(0)) + w1 * w2
        conv = nxt
    total = Fraction(0)
    for (j, l), w in conv.items():
        if j + l == big and w:
            total += w * goettsche_phi(k, m + l, n + j)
    return total


# ---------------------------------------------------------------------------
# the conformal-point partition function

def z_bold(prec) -> QSeries:
    """Z = eta^3 * Q+ (exponents in (1/2) Z)."""
    p = Fraction(prec)
    return (forms.eta_power(1, 3, p + 1) * mock.q_plus(p + 1)).truncate(p)


def rho4(prec) -> QSeries:
    """rho^4 = 4 eta(2 tau)^8 / eta(tau)^8."""
    return 4 * forms.eta_quotient([(2, 8), (1, -8)], prec)


def nf4_partition(prec) -> QSeries:
    """Holomorphic part of the conformal-point partition function."""
    p = Fraction(prec)
    pad = p + 4
    q_over_eta = (mock.q_plus(pad) * forms.eta_power(1, -1, pad))
    eta4inv = forms.eta_power(1, -4, pad)
    eta_inv = forms.eta_power(1, -1, pad)
    r2 = forms.vartheta(2, pad) * eta_inv
    r3 = forms.vartheta(3, pad) * eta_inv
    g = Fraction(-1, 36) * (r2 ** 8 - r2 ** 4 * r3 ** 4 + r3 ** 8)
    dd = (q_over_eta.qdq(1) * eta4inv).qdq(1) * eta4inv
    return (Fraction(1, 2) * dd + g * q_over_eta).truncate(p)


# ---------------------------------------------------------------------------
# tables

def monomial_label(m: int, n: int) -> str:
    if m == 0 and n == 0:
        return "1"
    parts = []
    if m:
        parts.append("p" if m == 1 else f"p^{m}")
    if n:
        parts.append(f"S^{2 * n}")
    return " ".join(parts)


def weight_grid(max_weight: int) -> list:
    """The (m, n) with m + n <= max_weight, by weight, then by m."""
    return [(m, weight - m) for weight in range(max_weight + 1)
            for m in range(weight + 1)]


def invariant_table(nf: int, max_weight: int) -> list:
    """Rows [(m, n, label, DCell)] for all m + n <= max_weight."""
    return [(m, n, monomial_label(m, n), uplane_D(nf, m, n))
            for m, n in weight_grid(max_weight)]


def goettsche_table(max_weight: int) -> list:
    """Rows [(k, m, n, label, value)] for even m + n = 2(k - 1) <= max_weight."""
    rows = []
    for m, n in weight_grid(max_weight):
        if (m + n) % 2 == 0:
            k = (m + n) // 2 + 1
            rows.append((k, m, n, monomial_label(m, n), goettsche_phi(k, m, n)))
    return rows
