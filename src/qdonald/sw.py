"""q-series realizations of the three modular Seiberg-Witten families.

The families are the rational elliptic surfaces underlying the monopole
counts nf = 0, 2, 3, each expanded at its cusp of Kodaira type I*_(4-nf).
Every chart is one level-4 curve read at tau/c, c = 4, 2 or 1: u is
s h(tau/c), h = ``forms.form_h``, so val(u) = -1/c, and (omega/pi)^2 is a
multiple of eta(4t)^8/eta(2t)^4 at tau/c; nf=2 is the nf=0 curve at 2 tau.
No chart reads a theta constant or a dense inverse.  Theta realizations
are test oracles and, in the duplication and S-dual checks, references.
All pi and sqrt(2) factors are absorbed into fixed normalizations so the
whole module stays in rational arithmetic: ``omega2`` stores (omega/pi)^2
and the Weierstrass data g2, g3, Delta are the u-polynomials of the family
evaluated on the u-series.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import forms
from .series import InsufficientPrecision, QSeries, factor_window


class UnsupportedFamily(ValueError):
    pass


# omega2 = (omega/pi)^2, omega2_inv = omega2.inverse(); g2n, g3n, deltan series
SWFamily = namedtuple("SWFamily",
                      "nf u omega2 omega2_inv g2n g3n deltan kodaira_infty")

# vanishing_threshold: T = O(u^-1), so all exponents below it are zero
ContactTerm = namedtuple("ContactTerm", "nf t_series vanishing_threshold")

# (c, s, w): the family is one level-4 curve read at tau/c, u = s h(tau/c) =
# s q^(-1/c) + ..., h = forms.form_h, and W = w g(tau/c), g = eta(4t)^8 /
# eta(2t)^4 = q + ...; nf=2 is the nf=0 curve at 2 tau
_CURVE = {0: (4, Fraction(1, 8), 8), 2: (2, Fraction(1, 8), 8),
          3: (1, Fraction(-1, 16), -16)}
_U_VALUATION = {nf: Fraction(-1, c) for nf, (c, _, _) in _CURVE.items()}


def _chart(nf: int, p) -> tuple:
    """(u, W, 1/W) of one family, W = (omega/pi)^2, each known below q^p."""
    if nf not in _CURVE:
        raise UnsupportedFamily(f"no massless modular family for nf={nf}")
    c, s, w = _CURVE[nf]
    inv, g = (forms.eta_quotient(f, c * p)
              for f in ([(2, 4), (4, -8)], [(2, -4), (4, 8)]))
    return tuple(x.rescale(1, c)
                 for x in (s * forms.form_h(c * p), w * g, inv / w))


def sw_family(nf: int, prec) -> SWFamily:
    """Build u, (omega/pi)^2 and the Weierstrass series for one family."""
    p = Fraction(prec)
    u, omega2, inv = _chart(nf, p)
    u, omega2 = u.truncate(p), omega2.truncate(p)
    # 1/W on the window that omega2.inverse() would have
    inv = inv.truncate(omega2.prec_q() + 2 * inv.valuation())
    if nf == 0:
        g2 = u ** 2 / 12 - Fraction(1, 16)
        g3 = u ** 3 / 216 - u / 192
        delta = (u ** 2 - 1) / 4096
    elif nf == 2:
        g2 = u ** 2 / 12 + Fraction(1, 4)
        g3 = u ** 3 / 216 - u / 24
        delta = (u ** 2 - 1) ** 2 / 64
    else:
        g2 = u ** 2 / 12 - 5 * u / 4 + Fraction(11, 16)
        g3 = u ** 3 / 216 + 7 * u ** 2 / 48 - 29 * u / 96 + Fraction(7, 64)
        delta = Fraction(-1, 512) * (2 * u - 1) * (2 * u + 1) ** 4
    return SWFamily(nf=nf, u=u, omega2=omega2, omega2_inv=inv,
                    g2n=g2, g3n=g3, deltan=delta,
                    kodaira_infty=f"I*_{4 - nf}")


def u3_from_u0(prec) -> QSeries:
    """The table relation u3 = -2/(u0 - 1) - 1/2 applied to the u0 series.

    This is the expansion of the nf=3 coordinate at the nf=0 cusp; it equals
    the theta realization of sw_family(3) with theta_2 and theta_4 exchanged.
    """
    u0 = _chart(0, factor_window(prec, 0, _U_VALUATION[0]))[0]
    return (-2 * (u0 - 1).inverse() - Fraction(1, 2)).truncate(prec)


def weierstrass_residual(fam: SWFamily) -> QSeries:
    """g2^3 - 27 g3^2 - Delta; identically zero for a consistent family."""
    return fam.g2n ** 3 - 27 * fam.g3n ** 2 - fam.deltan


def delta_eta_residual(fam: SWFamily) -> QSeries:
    """Delta * (omega/pi)^12 - eta^24, expanded in the family's variable."""
    lhs = fam.deltan * fam.omega2 ** 6
    return lhs - forms.delta(lhs.prec_q())


def contact_term(fam: SWFamily) -> ContactTerm:
    """T = -E2/(3 (omega/pi)^2) + u/3 + delta_(3,nf)/2 as a rational series.

    The hatted two-observable differs from T only by the non-holomorphic
    completion of E2, so this series is exactly its holomorphic part.
    """
    prec = fam.omega2.prec_q()
    if prec is None or prec <= 1:
        raise InsufficientPrecision("family built to insufficient precision")
    inv = fam.omega2_inv
    e2 = forms.eisenstein_e2(factor_window(inv.prec_q(), inv.valuation()))
    t = -e2 * inv / 3 + fam.u / 3
    if fam.nf == 3:
        t = t + Fraction(1, 2)
    threshold = -fam.u.valuation()
    return ContactTerm(nf=fam.nf, t_series=t, vanishing_threshold=threshold)


def periods_a(fam: SWFamily):
    """Normalized A-period data: returns (a_hat, W).

    W = (omega/pi)^2 and a_hat = (bold a)/(pi * omega/pi), so that the
    Picard-Fuchs relation d(bold a)/du = omega becomes the rational identity
    qdq(a_hat) * W + a_hat * qdq(W)/2 = W * qdq(u).
    """
    nf = fam.nf
    inv = fam.omega2_inv
    e2 = forms.eisenstein_e2(factor_window(inv.prec_q(), inv.valuation()))
    a_hat = Fraction(nf + 2, 3) * fam.u + Fraction(4 - nf, 3) * e2 * inv
    if nf == 3:
        a_hat = a_hat - Fraction(1, 2)
    return a_hat, fam.omega2


def period_residual(fam: SWFamily) -> QSeries:
    """qdq(a_hat) W + a_hat qdq(W)/2 - W qdq(u); zero iff d(bold a)/du = omega."""
    a_hat, w = periods_a(fam)
    return a_hat.qdq(1) * w + a_hat * w.qdq(1) / 2 - w * fam.u.qdq(1)


def vanishing(label: str, series: QSeries, below=None) -> tuple:
    """Check record (label, ok, first failing exponent, window): the series,
    cut at ``below`` when given, must vanish on its window (None: exact)."""
    if below is not None:
        series = series.truncate(below)
    bad = next((e for e, _ in series.terms()), None)
    return label, bad is None, bad, series.prec_q()


def check_family(nf: int, prec) -> list:
    """Run the per-family identity suite; returns vanishing records."""
    p = Fraction(prec)
    # u meets five more u in g2^3 (an unsupported nf fails in sw_family)
    pf = factor_window(p, 5 * _U_VALUATION.get(nf, 0))
    if nf == 3:  # u3's nf=0 chart reads the same curve: the wider first
        _chart(3, max(pf, 4 * factor_window(p, 0, _U_VALUATION[0])))
        u3 = u3_from_u0(p)
    fam = sw_family(nf, pf)
    ct = contact_term(fam)
    results = [
        vanishing("weierstrass g2^3-27g3^2=Delta", weierstrass_residual(fam)),
        vanishing("discriminant Delta*(omega/pi)^12=eta^24",
                  delta_eta_residual(fam)),
        vanishing("contact term T=O(1/u)", ct.t_series,
                  below=ct.vanishing_threshold),
        vanishing("picard-fuchs d(a)/du=omega", period_residual(fam)),
    ]
    if nf == 3:
        results.append(vanishing(
            "leading constant c0=-1/16",
            fam.u + QSeries.monomial(-1, Fraction(1, 16)), below=0))
        results.append(vanishing("u3 = -2/(u0-1) - 1/2",
                                 sw_family_swapped_u3(p) - u3))
    if nf == 2:
        # the duplication formula u0(tau/2) = (t3^4 + t4^4) / t2^4, built
        # from the theta constants rather than from the level-4 curve
        window = factor_window(p, 0, Fraction(1, 8), 4)  # t2 = 2 q^(1/8)
        t2, t3, t4 = (forms.vartheta(i, window) for i in (2, 3, 4))
        dup = (t3 ** 4 + t4 ** 4) * t2 ** -4
        results.append(vanishing("u2 = u0 at tau/2", fam.u - dup.truncate(p)))
    return results


def sw_family_swapped_u3(prec) -> QSeries:
    """nf=3 u in the S-dual chart, by theta constants: u = (t3 t2)^2 / W - 1/2
    with W = (omega/pi)^2 = -(t3^2 - t2^2)^2 / 4 = -1/4 + ..."""
    t3, t2 = (forms.vartheta(i, factor_window(prec, 0, 0, 2)) for i in (3, 2))
    u = -4 * (t3 * t2) ** 2 * (t3 ** 2 - t2 ** 2) ** -2
    return (u - Fraction(1, 2)).truncate(prec)
