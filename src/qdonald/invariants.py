"""Donaldson-invariant computations via constant-term pairings.

The instanton-side values come from the closed Goettsche formula; the
low-energy side comes from the cusp contribution of the regularized wall
integral, written as constant terms of kernels (eta quotients times powers
of E2 and of E* or an eta quotient) against the mock series Q+ (or its
transforms).  Both reduce to exact rational pairing sums, so every number
here is an exact Fraction.  Each family computes all cells of one weight in
one pass over integer kernel reads.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, isqrt, lcm
from operator import mul

from . import forms, mock
from .series import (InsufficientPrecision, QSeries, check_index,
                     check_precision, factor_window)


# ---------------------------------------------------------------------------
# kernel reads, one weight at a time
#
# A cell of weight w = m + n pairs kernels P_k E_l (k + l <= w; P_k = base *
# pows^k, E_l = E2^l) with a slot.  The kernel coefficient at q^-x meets the
# slot coefficient at x for x on the slot grid, so each kernel is read there
# only, and no product is formed.  Both live on the one integer lattice of
# the kernel grid q^(1/ram): the slot grid is X = ram x = a dt - t0, a >= 0,
# and a kernel at q^-x is its w-exponent t0 - a dt.
#
# Kernels.  The paper's theta quotients are eta quotients times powers of E*
# or of an eta quotient (G. Koehler, Eta Products and Theta Series
# Identities, 2011), read at tau/c: the weight-w base is 2^(e0 + e1 w) prod
# eta(d tau/c)^(r0 + r1 w), and pows is E*(tau/c) (None) or the eta
# quotient of its factors; E2 is read at e tau/c.
#
# Windows.  A product a * b is known through q^e when a is known through
# e - val(b) and b through e - val(a).  So a pairing (e = 0) needs the
# kernels known below top = (t0 + 1)/ram, one grid step past their highest
# read q^(t0/ram): the base below top, and then, val read off it, pows and
# E2 below top - val, and the slot through -val, to the next grid point.

# family: (t0, dt, ram, c, (e0, e1), ((d, r0, r1), ...), pows, e), the slot
# grid X = a dt - t0 on the kernel grid q^(1/ram); the slots are F_t, Q+, Q+
# at tau/2 and S-transformed Q+
_FAMILIES = {
    "goettsche": (-3, 4, 8, 2, (-3, -2), ((1, 22, 4), (2, -20, -8)), None, 2),
    0: (1, 4, 8, 2, (-3, -2), ((1, 24, 4), (2, -21, -8)), None, 2),
    2: (1, 4, 16, 2, (-4, -2), ((1, 27, 4), (2, -24, -8)), None, 1),
    3: (1, 4, 8, 1, (-9, -6), ((1, 3, 0), (2, 24, 4), (4, -24, -8)),
        ((1, 8), (2, -4)), 1),
}


def _factors(family, w: int) -> tuple:
    """(base, pows, e2) of the weight-w kernels base pows^k e2^l."""
    check_index("w", w)
    t0, _, ram, c, (e0, e1), etas, ladder, e = _FAMILIES[family]
    top = Fraction(t0 + 1, ram)
    base = Fraction(2) ** (e0 + e1 * w) * forms.eta_quotient(
        [(d, r0 + r1 * w) for d, r0, r1 in etas], c * top).rescale(1, c)
    if not base.nums:  # no known term, so no valuation to size pows by
        raise InsufficientPrecision("kernel window too short to read")
    lt = c * factor_window(top, base.valuation())
    pows = (forms.eisenstein_estar(lt) if ladder is None
            else forms.eta_quotient(ladder, lt))
    return base, pows.rescale(1, c), forms.eisenstein_e2(lt / e).rescale(e, c)


def _reads(family, w: int) -> tuple:
    """(reads, ps, xs): the family's weight-w kernels P_k E_l, k + l <= w,
    read at the integer slot-grid points xs = [a dt - t0], X = ram x, and
    the slot window ps: P_k E_l at q^(-X/ram) is ints[a] / den, (ints, den)
    = reads[k, l], one integer dot product, as E2^l = 1 + O(q) has integer
    coefficients and P_k one denominator.  Reading a product where it is
    not known raises InsufficientPrecision."""
    t0, dt, ram = _FAMILIES[family][:3]
    base, pows, e2 = _factors(family, w)
    r = ram // e2.ram
    ladder = [e.to_ram(e2.ram)
              for e in accumulate([e2] * w, mul, initial=QSeries.one())]
    kernels = list(accumulate([pows] * w, mul, initial=base))
    if any(t0 >= p.lead and (p.prec <= t0 - r * e.lead or (
            e.prec is not None and r * e.prec <= t0 - p.lead))
           for k, p in enumerate(kernels) for e in ladder[:w + 1 - k]):
        raise InsufficientPrecision("kernel window too short to read")
    count = max((t0 - min(p.lead for p in kernels)) // dt + 1, 0)
    xs, reads = [a * dt - t0 for a in range(count)], {}
    for k, p in enumerate(kernels):
        ints, den = p.nums, p.den
        # P_k at q^-x, q^-x - 1/e2.ram, ...: what E_l from q^0 up meets
        cols = [ints[-x - p.lead::-r] if -x >= p.lead else [] for x in xs]
        for l, e in enumerate(ladder[:w + 1 - k]):
            reads[k, l] = ([sum(map(mul, e.nums, col)) for col in cols],
                           den * e.den)
    return reads, Fraction(1, ram) - base.valuation(), xs


def _slot(family, ps, xs, t=None) -> tuple:
    """The family's slot (F_t in the Goettsche family) at the integer
    slot-grid points xs, X = ram x, as (ints, den), known below q^ps (see
    _reads) or InsufficientPrecision.  Its memo holds it at q^X, ram the
    family's: F_t, Q+ and Q+'s S-transform at x are calF_t, calQ and
    q_transform_s_ren at 8x, and Q+ at tau/2 is calQ at 16x; so X is read at
    w-exponent X slot.ram - lead of the memo's series."""
    scale = _FAMILIES[family][2]
    slot = (mock.cal_f(t, scale * ps) if family == "goettsche" else
            mock.q_transform_s_ren(scale * ps) if family == 3 else
            mock.cal_q(scale * ps))
    if slot.prec_q() < scale * ps:
        raise InsufficientPrecision("slot window too short for the pairing")
    nums, lead = slot.nums, slot.lead
    at = [x * slot.ram - lead for x in xs]
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
    reads, ps, xs = _reads("goettsche", w)
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
DCell = namedtuple("DCell", "value h_combo")


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
    the weights with the slot; for nf=3, whose slot is the inversion
    transform, they are taken against -Q, by the duality of the slots."""
    check_index("nf", nf, choices=(0, 2, 3))
    reads, ps, xs = _reads(nf, w)
    sv, sden = _slot(nf, ps, xs)
    powers = [[x ** j for x in xs] for j in range(w + 1)]
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
        cells.append(DCell(scale * sum(map(mul, s, sv)) / sden,
                           tuple((a, h * v) for a, v in enumerate(s) if v)))
    return cells


def evaluate_h_combo(combo, h_values) -> Fraction:
    return sum((w * h_values[a] for a, w in combo), Fraction(0))


# ---------------------------------------------------------------------------
# the vanishing criterion

def criterion_weight(w: int) -> list:
    """For each m + n = w, by m: True iff the criterion series has
    (exactly) vanishing constant term, the Goettsche pairing sum equal to
    the nf=0 pairing sum."""
    cells = uplane_weight(0, w)  # the nf=0 kernels have the wider window
    return [phi == cell.value for phi, cell in zip(goettsche_weight(w), cells)]


# ---------------------------------------------------------------------------
# the Z0 series

def z0_series(prec) -> QSeries:
    """Z0 = E*(4 tau)/eta(8 tau)^3 = q^-1 + 24 q^3 + ....  The paper defines
    Z0 as calQ + 4 calF0 / Theta4; ``verify --suite identities`` checks that
    definition against this closed form."""
    quot = forms.eta_quotient([(8, -3)], max(check_precision(prec), 0))
    est = forms.eisenstein_estar(factor_window(prec, quot.valuation()) / 4)
    return (est.rescale(4, 1) * quot).truncate(prec)


# ---------------------------------------------------------------------------
# Hurwitz class numbers and the rank-two Euler characteristic series

def hurwitz(nmax: int) -> list:
    """H(0..nmax), from one pass over the reduced forms (a, b, c), which have
    |b| <= a <= c, and b >= 0 if |b| = a or a = c.  Each adds 1 to
    H(4ac - b^2), but a(x^2 + y^2) adds 1/2 and a(x^2 + xy + y^2) 1/3
    (Zagier, C. R. Acad. Sci. Paris 281 (1975)); the pass counts 6 H(n)."""
    check_index("nmax", nmax)
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
    h = hurwitz(4 * check_index("kmax", kmax) + 3)
    num = QSeries.from_terms(
        {k: 3 * h[4 * k - 1] for k in range(1, kmax + 1)}, kmax + 1)
    eta6 = forms.eta_quotient([(1, -6)], kmax + Fraction(3, 4))  # q^(-1/4)...
    return (num * eta6).shift_exponent(Fraction(-1, 4)).truncate(kmax + Fraction(1, 2))


# ---------------------------------------------------------------------------
# the conformal-point partition function

def z_bold(prec) -> QSeries:
    """Z = eta^3 * Q+ (exponents in (1/2) Z)."""
    qp = mock.q_plus(max(check_precision(prec), 0))  # to q^0, past its lead
    eta3 = forms.eta_quotient([(1, 3)], factor_window(prec, qp.valuation()))
    return (eta3 * qp).truncate(prec)


def rho4(prec) -> QSeries:
    """rho^4 = 4 eta(2 tau)^8 / eta(tau)^8."""
    return 4 * forms.eta_quotient([(2, 8), (1, -8)], prec)


def nf4_partition(prec) -> QSeries:
    """Holomorphic part of the conformal-point partition function, Z4 =
    eta^-4 [(1/2) D(eta^-4 D F) - (1/36) E4 eta^-4 F], F = Q+/eta, D = q d/dq.
    By D eta^-4 = -(1/6) E2 eta^-4 the bracket is eta^-4 ((1/2) S_2 S_0 F -
    (1/36) E4 F), S_k = D - (k/12) E2 the Serre derivative, weight 0 to 4.
    The factors are sized from max(prec, 0), and the product cut at prec."""
    # each factor f of a product q^V + ... below has val(f) - V <= 1/2
    top = factor_window(max(check_precision(prec), 0), Fraction(-1, 2))
    f = mock.q_plus(top) * forms.eta_quotient([(1, -1)], top)
    eta4inv = forms.eta_quotient([(1, -4)], top)
    dd = (f.qdq(1) * eta4inv).qdq(1)
    e4f = Fraction(1, 36) * forms.eisenstein_e4(top) * eta4inv * f
    return (eta4inv * (dd / 2 - e4f)).truncate(prec)


# ---------------------------------------------------------------------------
# tables

def weight_table(weight, max_weight: int, step: int = 1) -> dict:
    """{(m, n): weight(m + n)[m]} for every m + n <= max_weight that is a
    multiple of step, by weight, then by m.  The passes run from the highest
    weight down, where the windows are widest, so that the memoized series
    of the first pass serve the rest."""
    top = check_index("max_weight", max_weight) // step * step
    cells = {w: weight(w) for w in range(top, -1, -step)}
    return {(m, w - m): cells[w][m] for w in sorted(cells)
            for m in range(w + 1)}
