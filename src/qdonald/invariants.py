"""Donaldson-invariant computations via constant-term pairings.

The instanton-side values come from the closed Goettsche formula; the
low-energy side comes from the cusp contribution of the regularized wall
integral, written as constant terms of theta-quotient kernels against the
mock series Q+ (or its transforms).  Both reduce to exact rational pairing
sums, so every number here is an exact Fraction.  Each family computes all
cells of one weight in one pass over integer kernel reads.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, isqrt, lcm
from operator import mul

from . import forms, mock
from .series import InsufficientPrecision, QSeries, factor_window


class ConstraintViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# kernel reads, one weight at a time
#
# A cell of weight w = m + n pairs kernels P_k E_l (k + l <= w; P_k = base *
# pows^k a theta quotient, E_l = E2^l) with a slot.  The kernel coefficient
# at q^-x meets the slot coefficient at x for x on the slot grid start +
# step Z, so each kernel is read there only, and no product is formed.
#
# Windows.  With theta constants and E2 known below q^pt (pt an integer: E2
# is cut at floor(pt)), P_k is known below val + pt - loss, where val is
# the kernels' valuation and loss that of the theta factor the base divides
# by (t2 t3 or t3^2 - t4^2).  A product a * b is known through q^e when a
# is known through e - val(b) and b through e - val(a).  So a pairing
# (e = 0) needs the kernels known below top = -start + 1/ram, 1/ram their
# grid step, which gives pt = the least integer at or above top - val +
# loss; and the slot known through -val, at the least grid point above it.

# family: (slot grid start, step, kernel grid 1/ram, loss, (a, b)) with
# val = -(a w + b)/ram; the slots are F_t, Q+, Q+ at tau/2, S-transformed Q+
_FAMILIES = {
    "goettsche": (Fraction(3, 8), Fraction(1, 2), 8, Fraction(1, 8), (2, 3)),
    0: (Fraction(-1, 8), Fraction(1, 2), 8, Fraction(1, 8), (2, 3)),
    2: (Fraction(-1, 16), Fraction(1, 4), 16, Fraction(1, 8), (4, 7)),
    3: (Fraction(-1, 8), Fraction(1, 2), 8, Fraction(1, 2), (8, 15)),
}


def _windows(family, w: int) -> tuple:
    """(pt, ps): the least integer pt at which the family's weight-w
    kernels are known below q^top, top = -start + 1/ram, and the least
    point ps of their grid above -val; products of kernels and a slot known
    below q^ps are known through q^0."""
    start, _, ram, loss, (a, b) = _FAMILIES[family]
    val = Fraction(-(a * w + b), ram)
    top = Fraction(1, ram) - start
    return -((val - loss - top) // 1), Fraction(-val * ram // 1 + 1, ram)


def _factors(family, w: int, pt) -> tuple:
    """(base, pows, e2) of the family's weight-w kernels base * pows^k *
    e2^l, from theta constants and E2 known below q^pt; for nf=2, t2 and E2
    at tau/2 are asked first, so that t2 at tau is their truncation."""
    if family == 2:
        t2_half = forms.vartheta(2, 2 * pt).rescale(1, 2)
        e2 = forms.eisenstein_e2(2 * pt).rescale(1, 2)
    else:
        e2 = forms.eisenstein_e2(pt)
    t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
    if family == 3:
        tt = t3 * t4
        base = (t2 ** 9 * ((t3 ** 2 - t4 ** 2) ** (2 * w + 6)).inverse()
                * tt ** 3)
        return base, tt ** 2, e2
    base = t4 ** 8 * ((t2 * t3) ** (2 * w + 3)).inverse()
    if family == 0:
        base = base * t4
    elif family == 2:
        base = base * (t4 * t4) * t2_half.inverse()
    return base, t2 ** 4 + t3 ** 4, e2


def _reads(family, w: int) -> tuple:
    """(reads, xs): the family's weight-w kernels P_k E_l, k + l <= w, read
    at the slot-grid points xs = [start + a step]: P_k E_l at q^-xs[a] is
    ints[a] / den, (ints, den) = reads[k, l], one integer dot product, as
    E2^l = 1 + O(q) has integer coefficients and P_k one denominator.
    Reading a product where it is not known raises InsufficientPrecision."""
    if w < 0:
        raise ConstraintViolation(f"weight {w} is negative")
    start, step, ram = _FAMILIES[family][:3]
    base, pows, e2 = _factors(family, w, _windows(family, w)[0])
    t0, dt, r = int(-start * ram), int(step * ram), ram // e2.ram
    ladder = [e.to_ram(e2.ram)
              for e in accumulate([e2] * w, mul, initial=QSeries.one())]
    kernels = list(accumulate([pows] * w, mul, initial=base))
    if any(t0 >= p.lead and (p.prec <= t0 - r * e.lead or (
            e.prec is not None and r * e.prec <= t0 - p.lead))
           for k, p in enumerate(kernels) for e in ladder[:w + 1 - k]):
        raise InsufficientPrecision("kernel window too short to read")
    count = max((t0 - min(p.lead for p in kernels)) // dt + 1, 0)
    reads = {}
    for k, p in enumerate(kernels):
        ints, den = p.nums, p.den
        # P_k at q^-x, q^-x - 1/e2.ram, ...: what E_l from q^0 up meets
        cols = [ints[t0 - a * dt - p.lead::-r] if t0 - a * dt >= p.lead
                else [] for a in range(count)]
        for l, e in enumerate(ladder[:w + 1 - k]):
            reads[k, l] = ([sum(map(mul, e.nums, col)) for col in cols],
                           den * e.den)
    return reads, [start + a * step for a in range(count)]


def _slot(family, ps, xs, t=None) -> tuple:
    """The family's slot (F_t for the Goettsche family) at the points xs < ps
    as (ints, den), known below q^ps or InsufficientPrecision, read at ram x
    on the integer grid it is memoized on (ram the family's): F_t, Q+ and
    Q+'s S-transform at x are calF_t, calQ, q_transform_s_ren at 8x."""
    scale = _FAMILIES[family][2]
    slot = (mock.cal_f(t, scale * ps) if family == "goettsche" else
            mock.q_transform_s_ren(scale * ps) if family == 3 else
            mock.cal_q(scale * ps))
    if slot.prec_q() < scale * ps:
        raise InsufficientPrecision("slot window too short for the pairing")
    nums, lead = slot.nums, slot.lead
    at = [int(x * scale * slot.ram) - lead for x in xs]
    return [nums[i] if 0 <= i < len(nums) else 0 for i in at], slot.den


# ---------------------------------------------------------------------------
# Goettsche's closed formula

def goettsche_weight(w: int) -> list:
    """The Goettsche pairing sums for p^m S^(2n), m + n = w, by m.

    Row (l, j) of cell (m, n) pairs P_k E_(l-j), k = m + j, with F_2s, s =
    n - l; as k + l - j = w - s, the kernel depends on (s, l - j) only.  So
    each kernel is paired with its slot once, on integers over one
    denominator big, and T[s, l] = sum_j (-1)^j C(l, j) pair(s, l - j) once
    per (s, l); cell n is then 8 (-1)^n (2n)! / big sum_l T[n - l, l] /
    (6^l (2n - 2l)! l!), O(n) terms."""
    reads, xs = _reads("goettsche", w)
    ps = _windows("goettsche", w)[1]
    pairs = {}
    for s in range(w + 1):
        sv, sden = _slot("goettsche", ps, xs, 2 * s)
        for l in range(w - s + 1):
            ints, den = reads[w - s - l, l]
            pairs[s, l] = sum(map(mul, ints, sv)), den * sden
    big = lcm(*(d for _, d in pairs.values()))
    pairs = {key: v * (big // d) for key, (v, d) in pairs.items()}
    t = {(s, l): sum((-1) ** j * comb(l, j) * pairs[s, l - j]
                     for j in range(l + 1)) for s, l in pairs}
    cells = []
    for m in range(w + 1):
        n = w - m
        # sign (-1)^(n+j): fixed against the printed invariant table, the
        # worked (3,1) summands, and the Z0 reduction, which all carry one
        # sign more than the displayed closed formula
        total = sum(factorial(2 * n) // (factorial(2 * n - 2 * l) * factorial(l))
                    * 6 ** (n - l) * t[n - l, l] for l in range(n + 1))
        cells.append(Fraction(8 * (-1) ** n * total, big * 6 ** n))
    return cells


def goettsche_phi(k: int, m: int, n: int) -> Fraction:
    """Instanton invariant for p^m S^(2n) at instanton number k: zero
    unless m + n = 2(k - 1), else the Goettsche pairing sum."""
    if m < 0 or n < 0 or k < 1 or m + n != 2 * (k - 1):
        return Fraction(0)
    return goettsche_weight(m + n)[m]


# ---------------------------------------------------------------------------
# u-plane coefficients
#
# Row (i, j) of D^nf_(m,2n), 0 <= j <= i <= n, is the kernel c P_k E_l, k =
# m + n - i, l = i - j, against (q d/dq)^j of the slot, x^j at its point x,
# with c = A(m, n) C(i, j) / (n-i)!, C(i, j) = (-1)^(i+j) 12^j (24^j for
# nf=2) Gamma(1/2) / Gamma(1/2+j) / (j! (i-j)!) = (-1)^(i+j) (4 12)^j (or
# (4 24)^j) / ((2j)! (i-j)!).  On the slot grid X = ram x, ram 8 (16 for
# nf=2), C(i, j) x^j = (-1)^(i+j) 6^j X^j / ((2j)! (i-j)!) for every family,
# as 4 12 / 8 = 4 24 / 16 = 6.  For nf=3 the sign is (-1)^(i+j) without the
# displayed extra (-1)^(m+n-j): the printed invariant table is the arbiter,
# and only this choice also satisfies the duality between the two slots.

# h_combo: ((alpha, weight), ...) with value = sum w_a H_a
DCell = namedtuple("DCell", "nf m n value h_combo")


def _d_scale(nf: int, m: int, n: int) -> Fraction:
    """A(m, n) = sign 2^offset (2n)! / 3^n."""
    sign, off = {0: (-1, 1 - n), 2: (-1, 2 - n), 3: (1, 3 * m + 2 * n + 5)}[nf]
    return sign * Fraction(2) ** off * Fraction(factorial(2 * n), 3 ** n)


def uplane_weight(nf: int, w: int) -> list:
    """The DCells of D^nf_(m,2n), m + n = w, by m.  Row (i, j) reads kernel
    (w - i, i - j) in every cell, so the pass forms U_i[a] = sum_(j<=i)
    C(i, j) x_a^j read_(w-i, i-j)[a] once, on integers over big, the lcm of
    d_ij = (2j)! (i-j)! den_(w-i, i-j): row (i, j) adds (-1)^(i+j) 6^j (big
    / d_ij) X_a^j ints_(w-i, i-j)[a], X_a = ram x_a.  The weight of H_a in
    cell (m, n) is A(m, n) sum_(i<=n) U_i[a] / (n-i)!, and the value pairs
    the weights with the slot."""
    if nf not in (0, 2, 3):
        raise ConstraintViolation(f"no u-plane family for nf={nf}")
    reads, xs = _reads(nf, w)
    ram = _FAMILIES[nf][2]
    sv, sden = _slot(nf, _windows(nf, w)[1], xs)
    powers = [[int(x * ram) ** j for x in xs] for j in range(w + 1)]
    dens = {(i, j): factorial(2 * j) * factorial(i - j)
            * reads[w - i, i - j][1]
            for i in range(w + 1) for j in range(i + 1)}
    big = lcm(*dens.values())
    us = [[0] * len(xs) for _ in range(w + 1)]  # big U_i
    for (i, j), d in dens.items():
        c = (-1) ** (i + j) * 6 ** j * (big // d)
        us[i] = [u + c * x * r for u, x, r
                 in zip(us[i], powers[j], reads[w - i, i - j][0])]
    cells = []
    for n in range(w, -1, -1):  # m = w - n ascending
        s, f = [0] * len(xs), 1
        for i in range(n + 1):  # f = n! / (n - i)!
            s = [x + f * u for x, u in zip(s, us[i])]
            f *= n - i
        scale = _d_scale(nf, w - n, n) / (big * factorial(n))
        h = -scale if nf == 3 else scale  # nf=3: against -Q
        cells.append(DCell(nf, w - n, n, scale * sum(map(mul, s, sv)) / sden,
                           tuple((a, h * v) for a, v in enumerate(s) if v)))
    return cells


def uplane_D(nf: int, m: int, n: int) -> DCell:
    """Exact u-plane coefficient for p^m S^(2n), with its H-combination.

    The combination weights are taken against the coefficients H_a of the
    mock series; for nf=3, where the slot is the inversion transform, they
    are computed against -Q via the duality of the two presentations.
    """
    if m < 0 or n < 0:
        raise ConstraintViolation("m, n must be non-negative")
    return uplane_weight(nf, m + n)[m]


def evaluate_h_combo(combo, h_values) -> Fraction:
    return sum((w * h_values[a] for a, w in combo), Fraction(0))


# ---------------------------------------------------------------------------
# the vanishing criterion

def criterion_weight(w: int) -> list:
    """:func:`criterion_check` at (m, w - m), by m."""
    return [phi == cell.value
            for phi, cell in zip(goettsche_weight(w), uplane_weight(0, w))]


def criterion_check(m: int, n: int) -> bool:
    """True iff the criterion series has (exactly) vanishing constant term:
    the Goettsche pairing sum equals the nf=0 pairing sum."""
    if m < 0 or n < 0:
        raise ConstraintViolation("m, n must be non-negative")
    return criterion_weight(m + n)[m]


# ---------------------------------------------------------------------------
# the Z0 series

def z0_series(prec) -> QSeries:
    """Z0 = calQ + 4 calF0 / Theta4 = E*(4 tau)/eta(8 tau)^3."""
    p = Fraction(prec)
    theta4 = forms.theta_big(4, factor_window(p, 0, 0))
    return (mock.cal_q(p) + 4 * mock.cal_f(0, p) * theta4.inverse()).truncate(p)


def z0_closed_form(prec) -> QSeries:
    p = Fraction(prec)
    est = forms.eisenstein_estar(factor_window(p, -1) / 4).rescale(4, 1)
    return (est * forms.eta_power(8, -3, p)).truncate(p)  # q^-1 + ...


# ---------------------------------------------------------------------------
# Hurwitz class numbers and the rank-two Euler characteristic series

def hurwitz(nmax: int) -> list:
    """H(0..nmax), from one pass over the reduced forms (a, b, c), which have
    |b| <= a <= c, and b >= 0 if |b| = a or a = c.  Each adds 1 to
    H(4ac - b^2), but a(x^2 + y^2) adds 1/2 and a(x^2 + xy + y^2) 1/3
    (Zagier, C. R. Acad. Sci. Paris 281 (1975)); the pass counts 6 H(n)."""
    if nmax < 0:
        return []
    six = [0] * (nmax + 1)
    for a in range(1, isqrt(nmax // 3) + 1):
        for b in range(1 - a, a + 1):
            c = a if b >= 0 else a + 1  # c = a needs b >= 0
            for n in range(4 * a * c - b * b, nmax + 1, 4 * a):
                six[n] += 6
        six[3 * a * a] -= 4             # (a, a, a) counts 2, not 6
        if 4 * a * a <= nmax:
            six[4 * a * a] -= 3         # (a, 0, a) counts 3, not 6
    return [Fraction(-1, 12)] + [Fraction(v, 6) for v in six[1:]]


def vafa_witten_series(kmax: int) -> QSeries:
    """Euler-characteristic generating series over eta^6, to q^(kmax - 1/2)."""
    h = hurwitz(4 * kmax + 3)
    num = QSeries.from_terms(
        {k: 3 * h[4 * k - 1] for k in range(1, kmax + 1)}, kmax + 1)
    inv6 = forms.euler_product(kmax + 1).inverse() ** 6
    return (num * inv6).shift_exponent(Fraction(-1, 2)).truncate(kmax + Fraction(1, 2))


# ---------------------------------------------------------------------------
# index bundle Chern coefficients

def series_exp(a: QSeries) -> QSeries:
    """exp of a series with positive valuation, to its precision, by the
    recurrence m b_m = sum_(k=1..m) k a_k b_(m-k) in w = q^(1/ram)."""
    if a.prec is None:
        if a.is_zero():
            return QSeries.one()
        raise ValueError("series_exp needs a truncated series")
    if a.nums and a.lead < 1:
        raise ValueError("series_exp needs positive valuation")
    ka = [(k, Fraction(k * v, a.den))
          for k, v in enumerate(a.nums, a.lead) if v]
    b = [Fraction(1)]
    for m in range(1, a.prec):
        b.append(sum((c * b[m - k] for k, c in ka if k <= m), Fraction(0)) / m)
    return QSeries(a.ram, 0, b[:a.prec], a.prec)  # empty when prec <= 0


def _chern_series(k, r: int, top: int) -> tuple:
    """(J1, J2, J3) of the index-bundle Chern generating function to w^top,
    w = z^2: J1 = arctan(z)/z, J2 = (z - arctan z)/z^3 and J3 = -(r^2 -
    k)/2 log(1 + w) + (4k - 1)/4 (J1 - 1)."""
    j1 = QSeries.from_terms(
        {l: Fraction((-1) ** l, 2 * l + 1) for l in range(top)}, top)
    j2 = QSeries.from_terms(
        {l: Fraction((-1) ** l, 2 * l + 3) for l in range(top)}, top)
    log_part = QSeries.from_terms(
        {s: Fraction((-1) ** (s + 1), s) for s in range(1, top)}, top)
    return j1, j2, (Fraction(-(r * r - k), 2) * log_part
                    + Fraction(4 * k - 1, 4) * (j1 - 1))


def index_chern_coeffs(k: int, r: int, imax: int, jmax: int, lmax: int
                       ) -> dict:
    """Taylor coefficients f_(i,2j,2l) of the index-bundle Chern generating
    function exp(x J1(z)/2 + y^2 J2(z)/4 + J3(z)), for every i <= imax, j <=
    jmax and l <= lmax, zeros included; the series are even in z and run
    in w = z^2."""
    top = lmax + 1
    j1, j2, j3 = _chern_series(k, r, top)
    xi = series_exp(j3)
    table = {}
    for i in range(imax + 1):
        yj = xi  # at x^i y^(2j): (J1/2)^i / i! (J2/4)^j / j! exp(J3)
        for j in range(jmax + 1):
            for l in range(top):
                table[i, 2 * j, 2 * l] = yj.coeff(l)
            yj = yj * j2 / (4 * (j + 1))
        xi = xi * j1 / (2 * (i + 1))
    return table


def phi_euler_combo(nf: int, k: int, m: int, n: int) -> Fraction:
    """Monopole-obstruction invariant: the sum over j + l = big of the
    y^(2j) w^l coefficient of exp(nf (y^2 J2/4 + J3)) times the Goettsche
    value at p^(m+l) S^(2(n+j)); the y^(2j) term of that exponential is
    (nf J2/4)^j / j! exp(nf J3)."""
    if m < 0 or n < 0:
        raise ConstraintViolation("m, n must be non-negative")
    if nf == 2:
        if k % 2 or m + n + 2 != k:
            raise ConstraintViolation("nf=2 needs k even and m+n+2=k")
        big = k
    elif nf == 3:
        if k % 2 or 2 * m + 2 * n + 4 != k:
            raise ConstraintViolation("nf=3 needs k even and 2m+2n+4=k")
        big = 3 * k // 2
    else:
        raise ConstraintViolation("nf must be 2 or 3")
    _, j2, j3 = _chern_series(k, 0, big + 1)
    yj = series_exp(nf * j3)
    phi = goettsche_weight(2 * k - 2)  # m + n + big = 2(k - 1)
    total = Fraction(0)
    for j in range(big + 1):
        total += yj.coeff(big - j) * phi[m + big - j]
        yj = yj * j2 * Fraction(nf, 4 * (j + 1))
    return total


# ---------------------------------------------------------------------------
# the conformal-point partition function

def z_bold(prec) -> QSeries:
    """Z = eta^3 * Q+ (exponents in (1/2) Z)."""
    p = Fraction(prec)
    eta3 = forms.eta_power(1, 3, factor_window(p, Fraction(-1, 8)))  # Q+ = q^(-1/8)...
    return (eta3 * mock.q_plus(p)).truncate(p)


def rho4(prec) -> QSeries:
    """rho^4 = 4 eta(2 tau)^8 / eta(tau)^8."""
    return 4 * forms.eta_quotient([(2, 8), (1, -8)], prec)


def nf4_partition(prec) -> QSeries:
    """Holomorphic part of the conformal-point partition function."""
    # each factor f of a product q^V + ... below has val(f) - V <= 1/2
    top = factor_window(prec, Fraction(-1, 2))
    eta_inv = forms.eta_power(1, -1, top)
    q_over_eta = mock.q_plus(top) * eta_inv
    eta4inv = forms.eta_power(1, -4, top)
    r2 = forms.vartheta(2, top) * eta_inv
    r3 = forms.vartheta(3, top) * eta_inv
    g = Fraction(-1, 36) * (r2 ** 8 - r2 ** 4 * r3 ** 4 + r3 ** 8)
    dd = (q_over_eta.qdq(1) * eta4inv).qdq(1) * eta4inv
    return (Fraction(1, 2) * dd + g * q_over_eta).truncate(prec)


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
    """Rows [(m, n, label, DCell)] for all m + n <= max_weight, one pass per
    weight, from the highest down so that memoized series serve the rest."""
    cells = {w: uplane_weight(nf, w) for w in range(max_weight, -1, -1)}
    return [(m, n, monomial_label(m, n), cells[m + n][m])
            for m, n in weight_grid(max_weight)]


def goettsche_table(max_weight: int) -> list:
    """Rows [(k, m, n, label, value)] for even m + n = 2(k - 1) <= max_weight,
    computed from the highest weight down as in :func:`invariant_table`."""
    values = {w: goettsche_weight(w)
              for w in range(max_weight - max_weight % 2, -1, -2)}
    return [((m + n) // 2 + 1, m, n, monomial_label(m, n), values[m + n][m])
            for m, n in weight_grid(max_weight) if (m + n) % 2 == 0]
