"""q-series realizations of the three modular Seiberg-Witten families.

The families are the rational elliptic surfaces underlying the monopole
counts nf = 0, 2, 3, each expanded at its cusp of Kodaira type I*_(4-nf).
Every chart is one level-4 curve read at tau/c, c = 4, 2 or 1: u is
s h(tau/c), h = ``forms.form_h``, so val(u) = -1/c, and (omega/pi)^2 is a
multiple of eta(4t)^8/eta(2t)^4 at tau/c; nf=2 is the nf=0 curve at 2 tau.
No chart reads a theta constant or a dense inverse, and no check divides:
a relation a = b/d is checked as a d - b shifted by -val(d), whose record
is that of a - b/d, and g2^3 - 27 g3^2 = Delta on the u-polynomials.
Theta realizations are test oracles and, in the duplication and S-dual
checks, references.  Fixed normalizations absorb every pi and sqrt(2), so
the module stays rational: ``omega2`` stores W = (omega/pi)^2.  E2/W is
formed once per family, in the contact term T = -E2/(3W) + u/3 (+1/2 for
nf=3), and the normalized A-period is read off it as a = 2u - (4 - nf) T.
"""

from collections import namedtuple
from fractions import Fraction

from . import forms
from .series import (InsufficientPrecision, QSeries, check_index,
                     check_precision, factor_window)


# the chart of one family: u, W = (omega/pi)^2 and 1/W, known below q^prec
SWFamily = namedtuple("SWFamily", "nf u omega2 omega2_inv")

# (c, s, w): the family is one level-4 curve read at tau/c, u = s h(tau/c) =
# s q^(-1/c) + ..., h = forms.form_h, and W = w g(tau/c), g = eta(4t)^8 /
# eta(2t)^4 = q + ...; nf=2 is the nf=0 curve at 2 tau
_CURVE = {0: (4, Fraction(1, 8), 8), 2: (2, Fraction(1, 8), 8),
          3: (1, Fraction(-1, 16), -16)}
_U_VALUATION = {nf: Fraction(-1, c) for nf, (c, _, _) in _CURVE.items()}
# g2, g3 and Delta of each family, polynomials in u: read on an exact x = u
# for the Weierstrass relation, and Delta on the u-series
_WEIERSTRASS = {
    0: (lambda u: u ** 2 / 12 - Fraction(1, 16),
        lambda u: u ** 3 / 216 - u / 192, lambda u: (u ** 2 - 1) / 4096),
    2: (lambda u: u ** 2 / 12 + Fraction(1, 4),
        lambda u: u ** 3 / 216 - u / 24, lambda u: (u ** 2 - 1) ** 2 / 64),
    3: (lambda u: u ** 2 / 12 - 5 * u / 4 + Fraction(11, 16),
        lambda u: (u ** 3 / 216 + 7 * u ** 2 / 48 - 29 * u / 96
                   + Fraction(7, 64)),
        lambda u: Fraction(-1, 512) * (2 * u - 1) * (2 * u + 1) ** 4)}


def sw_family(nf: int, prec) -> SWFamily:
    """u, W = (omega/pi)^2 and 1/W of one family, each known below q^prec."""
    c, s, w = _CURVE[check_index("nf", nf, choices=_CURVE)]
    p = check_precision(prec)
    inv, g = (forms.eta_quotient(f, c * p)
              for f in ([(2, 4), (4, -8)], [(2, -4), (4, 8)]))
    return SWFamily(nf, *(x.rescale(1, c).truncate(p)
                          for x in (s * forms.form_h(c * p), w * g, inv / w)))


def weierstrass_residual(nf: int) -> QSeries:
    """g2^3 - 27 g3^2 - Delta, an exact u-polynomial that is zero for a
    consistent family; a failing record's exponent is a power of u."""
    check_index("nf", nf, choices=_CURVE)
    g2, g3, delta = (f(QSeries.monomial(1)) for f in _WEIERSTRASS[nf])
    return g2 ** 3 - 27 * g3 ** 2 - delta


def delta_eta_residual(fam: SWFamily) -> QSeries:
    """Delta * (omega/pi)^12 - eta^24, expanded in the family's variable."""
    lhs = _WEIERSTRASS[fam.nf][2](fam.u) * fam.omega2 ** 6
    return lhs - forms.delta(lhs.prec_q())


def contact_term(fam: SWFamily) -> QSeries:
    """T = -E2/(3 (omega/pi)^2) + u/3 + delta_(3,nf)/2 as a rational series,
    O(1/u): its exponents below -val(u) are zero.

    The hatted two-observable differs from T only by the non-holomorphic
    completion of E2, so this series is exactly its holomorphic part.
    """
    prec = fam.omega2.prec_q()
    if prec is None or prec <= 1:
        raise InsufficientPrecision("family built to insufficient precision")
    inv = fam.omega2_inv
    e2 = forms.eisenstein_e2(factor_window(inv.prec_q(), inv.valuation()))
    t = -e2 * inv / 3 + fam.u / 3
    return t + Fraction(1, 2) if fam.nf == 3 else t


def period_residual(fam: SWFamily, t: QSeries) -> QSeries:
    """qdq(a) W + a qdq(W)/2 - W qdq(u) for the A-period a = 2u - (4 - nf) T
    read off the contact term t; zero iff d(bold a)/du = omega.

    W = (omega/pi)^2 and a = (bold a)/(pi * omega/pi), so that the
    Picard-Fuchs relation d(bold a)/du = omega becomes the rational identity
    qdq(a) * W + a * qdq(W)/2 = W * qdq(u).
    """
    a, w = 2 * fam.u - (4 - fam.nf) * t, fam.omega2
    return a.qdq(1) * w + a * w.qdq(1) / 2 - w * fam.u.qdq(1)


def vanishing(label: str, series: QSeries, below=None) -> tuple:
    """Check record (label, ok, first failing exponent, window): the series,
    cut at ``below`` when given, must vanish on its window (None: exact)."""
    if below is not None:
        series = series.truncate(below)
    bad = next((e for e, _ in series.terms()), None)
    return label, bad is None, bad, series.prec_q()


def check_family(nf: int, prec) -> list:
    """Run the per-family identity suite; returns vanishing records."""
    p, nf = check_precision(prec), check_index("nf", nf, choices=_CURVE)
    # u is built below p - 5 val(u), past where every residual reaches q^p
    pf = factor_window(p, 5 * _U_VALUATION[nf])
    if nf == 3:  # u3's nf=0 chart reads the same curve: the wider first
        sw_family(3, max(pf, 4 * factor_window(p, 0, _U_VALUATION[0])))
        u0 = sw_family(0, factor_window(p, 0, _U_VALUATION[0])).u
    fam = sw_family(nf, pf)
    t = contact_term(fam)
    results = [
        vanishing("weierstrass g2^3-27g3^2=Delta", weierstrass_residual(nf)),
        vanishing("discriminant Delta*(omega/pi)^12=eta^24",
                  delta_eta_residual(fam)),
        vanishing("contact term T=O(1/u)", t, below=-fam.u.valuation()),
        vanishing("picard-fuchs d(a)/du=omega", period_residual(fam, t)),
    ]
    if nf == 3:
        results.append(vanishing(
            "leading constant c0=-1/16",
            fam.u + QSeries.monomial(-1, Fraction(1, 16)), below=0))
        # the S-dual chart -4 (t3 t2)^2 / (t3^2 - t2^2)^2 - 1/2 less u3 is
        # 2 r / ((t3^2 - t2^2)^2 (u0 - 1)), a divisor of valuation -1/4;
        # past q^1, no product of r has an empty window
        t3, t2 = (forms.vartheta(i, max(p, 1)) for i in (3, 2))
        r = (t3 ** 2 - t2 ** 2) ** 2 - 2 * (t3 * t2) ** 2 * (u0 - 1)
        results.append(vanishing("u3 = -2/(u0-1) - 1/2",
                                 r.shift_exponent(Fraction(1, 4)), below=p))
    if nf == 2:
        # the theta duplication formula u0(tau/2) = (t3^4 + t4^4) / t2^4
        # times t2^4 = 16 q^(1/2) + ..., where t2 meets valuations >= -1/8
        window = factor_window(p + Fraction(1, 2), Fraction(-1, 8))
        t2, t3, t4 = (forms.vartheta(i, window) for i in (2, 3, 4))
        dup = fam.u * t2 ** 4 - (t3 ** 4 + t4 ** 4)
        results.append(vanishing("u2 = u0 at tau/2",
                                 dup.shift_exponent(Fraction(-1, 2)), below=p))
    return results
