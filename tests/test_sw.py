"""Seiberg-Witten family series: Weierstrass data, contact term, periods."""

import sys
from fractions import Fraction as F

import oracles
import pytest
from conftest import theta_forbidden
from counters import agree, stored

from qdonald import BadParameter, InsufficientPrecision, QSeries, forms, sw
from qdonald.series import factor_window


@pytest.mark.parametrize("nf", [0, 2, 3])
def test_family_identity_suite(nf):
    results = sw.check_family(nf, 20)
    failures = [(name, bad) for name, ok, bad, _ in results if not ok]
    assert not failures


def test_vanishing_sees_the_whole_window():
    """A residual whose only nonzero term is at q^40, known below q^50,
    fails there; a check that need vanish only below q^40 passes.  The
    record's window is the residual's, cut at the bound when one is given,
    and an exact residual's is the bound."""
    resid = QSeries.from_terms({40: F(3)}, 50)
    assert sw.vanishing("r", resid) == ("r", False, 40, 50)
    assert sw.vanishing("r", resid, below=40) == ("r", True, None, 40)
    assert sw.vanishing("r", resid, below=60) == ("r", False, 40, 50)
    assert sw.vanishing("r", QSeries.one() - 1, below=3) == ("r", True, None, 3)


def test_unsupported_family():
    for nf in (1, 4):
        with pytest.raises(BadParameter, match="^nf must be one of"):
            sw.sw_family(nf, 8)
        with pytest.raises(BadParameter, match="^nf must be one of"):
            sw.weierstrass_residual(nf)


def test_u0_leading_behavior():
    fam = sw.sw_family(0, 8)
    # the fiber at infinity is I*_(4 - nf), so u = s q^(-1/(4 - nf)) + ...
    assert fam.u.valuation() == F(-1, 4 - fam.nf) == F(-1, 4)
    assert fam.u.coeff(F(-1, 4)) == F(1, 8)


def test_delta0_eta_relation_explicit():
    """(u^2 - 1)/4096 * 64 (vtheta2 vtheta3)^12 = eta^24, directly."""
    fam = sw.sw_family(0, 12)
    t2, t3 = forms.vartheta(2, 14), forms.vartheta(3, 14)
    lhs = (fam.u ** 2 - 1) / 4096 * 64 * (t2 * t3) ** 12
    assert (lhs - forms.delta(lhs.prec_q())).is_zero()


def test_weierstrass_polynomials_per_family():
    """g2^3 - 27 g3^2 = Delta holds exactly on the u-polynomials, and the
    family's Delta is the polynomial Delta read on its u-series."""
    x = QSeries.monomial(1)
    for nf in (0, 2, 3):
        residual = sw.weierstrass_residual(nf)
        assert residual.is_zero() and residual.prec_q() is None
        fam = sw.sw_family(nf, 14)
        assert sw.delta_eta_residual(fam).is_zero()
        delta = sw._WEIERSTRASS[nf][2]
        assert delta(fam.u) == sum(c * fam.u ** int(k)
                                   for k, c in delta(x).terms())


def test_contact_term_thresholds():
    for nf, threshold in ((0, F(1, 4)), (2, F(1, 2)), (3, F(1))):
        fam = sw.sw_family(nf, 16)
        assert -fam.u.valuation() == threshold
        assert all(e >= threshold for e, _ in sw.contact_term(fam).terms())


def test_contact_term_refuses_a_family_with_no_inverse_term():
    """Known below q^-1, 1/W has no known term, so E2 has no window to be
    sized by, and the contact term refuses the family."""
    for nf in (0, 2, 3):
        fam = sw.sw_family(nf, -1)
        assert not fam.omega2_inv.nums
        with pytest.raises(InsufficientPrecision):
            sw.contact_term(fam)


@pytest.mark.parametrize("prec", [0, F(1, 2), 1], ids=str)
def test_contact_term_serves_every_family_with_an_inverse_term(prec):
    """W known to q^1 or less, but 1/W with a known term: the contact term
    reaches prec, and it is a wide family's truncated to its window."""
    for nf in (0, 2, 3):
        t = sw.contact_term(sw.sw_family(nf, prec))
        assert t.prec_q() >= prec
        wide = sw.contact_term(sw.sw_family(nf, 40))
        assert t == wide.truncate(t.prec_q())


def test_nf3_leading_constant():
    fam = sw.sw_family(3, 10)
    assert fam.u.coeff(-1) == F(-1, 16)


def _u2_is_eta_quotient(p) -> bool:
    """u2(tau) = u0(2 tau) with u0(tau) = h(tau/4)/8, h the eta quotient
    eta(2t)^4/eta(4t)^8 E*(2t); compared with its window."""
    u = sw.sw_family(2, p).u
    h = (forms.form_h(2 * p).rescale(1, 2) / 8).truncate(p)
    return ((u.ram, u.lead, u.prec, u.coeffs)
            == (h.ram, h.lead, h.prec, h.coeffs))


def test_nf2_is_rescaled_nf0():
    assert _u2_is_eta_quotient(10)
    # the fiber at infinity is I*_2: u = O(q^(-1/2))
    assert sw.sw_family(2, 10).u.valuation() == F(-1, 2)


def _perturb_u(monkeypatch, family):
    """Add q^2 to the u-series of one family's chart: for nf=2 the image at
    2 tau of q added to the nf=0 one; for nf=0 the u0 that the u3 relation
    reads."""
    build = sw.sw_family

    def perturbed(nf, p):
        fam = build(nf, p)
        return fam._replace(u=fam.u + QSeries.monomial(2)) \
            if nf == family else fam
    monkeypatch.setattr(sw, "sw_family", perturbed)


def test_nf2_eta_quotient_check_sees_a_perturbed_u(monkeypatch):
    _perturb_u(monkeypatch, 2)
    assert not _u2_is_eta_quotient(10)


def test_nf2_duplication_check_sees_a_perturbed_u(monkeypatch):
    """The nf=2 u-series is the level-4 curve read at tau/2, so a fault in
    it must make the check against the theta duplication formula fail."""
    _perturb_u(monkeypatch, 2)
    results = {name: (ok, bad) for name, ok, bad, _ in sw.check_family(2, 12)}
    assert results["u2 = u0 at tau/2"] == (False, 2)


def test_u3_series_identity():
    """u3 = -2/(u0 - 1) - 1/2 as a series identity in the nf=0 frame."""
    lhs = oracles.sw_family_swapped_u3(10)
    assert (lhs - oracles.u3_from_u0(10)).is_zero()


def _divided_record(nf, p) -> tuple:
    """The record of the nf=3 u3 relation or of the nf=2 duplication check
    as the division forms of ``oracles`` give it."""
    if nf == 3:
        return sw.vanishing("u3 = -2/(u0-1) - 1/2",
                            oracles.sw_family_swapped_u3(p)
                            - oracles.u3_from_u0(p))
    return sw.vanishing("u2 = u0 at tau/2", sw.sw_family(2, p).u
                        - oracles.sw_duplication_u2(p))


@pytest.mark.parametrize("p", [0, F(1, 3), 1, 2, F(17, 2), 24, 40, 400],
                         ids=str)
@pytest.mark.parametrize("nf", [0, 2, 3])
def test_cross_multiplied_records_are_the_division_records(nf, p):
    """Each cross-multiplied residual, read shifted by the valuation of what
    it clears, gives the record, window included, of the difference that
    the division form checks; the Weierstrass relation holds exactly."""
    records = sw.check_family(nf, p)
    assert records[0] == ("weierstrass g2^3-27g3^2=Delta", True, None, None)
    if nf:
        assert records[-1] == _divided_record(nf, p)


@pytest.mark.parametrize("nf, family", [(2, 2), (3, 0)])
def test_perturbed_checks_fail_as_the_division_forms(nf, family, monkeypatch):
    """With q^2 added to the u-series that a check reads, u2 or u0, the
    cross-multiplied check fails where the division form does."""
    _perturb_u(monkeypatch, family)
    ok, bad = sw.check_family(nf, 12)[-1][1:3]
    assert not ok and (ok, bad) == _divided_record(nf, 12)[1:3]


def _period(fam):
    """The A-period a = 2u - (4 - nf) T that period_residual reads."""
    return 2 * fam.u - (4 - fam.nf) * sw.contact_term(fam)


def test_periods_delta_kronecker():
    """The constant shift in the A-period appears only for nf=3."""
    fam0, fam3 = sw.sw_family(0, 10), sw.sw_family(3, 10)
    a0, a3 = _period(fam0), _period(fam3)
    # u-valuations are negative, so the exact constant is isolated at q^0
    # after subtracting the u- and E2-parts; check via the defining formula
    e2 = forms.eisenstein_e2(12)
    rebuilt0 = F(2, 3) * fam0.u + F(4, 3) * e2 * fam0.omega2.inverse()
    assert (a0 - rebuilt0).is_zero()
    rebuilt3 = (F(5, 3) * fam3.u + F(1, 3) * e2 * fam3.omega2.inverse()
                - F(1, 2))
    assert (a3 - rebuilt3).is_zero()


def test_period_residuals_vanish():
    for nf in (0, 2, 3):
        fam = sw.sw_family(nf, 14)
        assert sw.period_residual(fam, sw.contact_term(fam)).is_zero()


@pytest.mark.parametrize("prec", [2, F(21, 4), 30])
@pytest.mark.parametrize("nf", [0, 2, 3])
def test_period_series_match_a_direct_inverse(nf, prec):
    """The family's 1/omega2 is the eta quotient the chart reads, not a
    dense inverse.  Below the window of fam.omega2.inverse(), it and the
    contact term equal the series built on that inverse, and the A-period
    2u - (4 - nf) T equals the oracle formula (nf + 2)/3 u + (4 - nf)/3
    E2/W - [nf = 3]/2; the Picard-Fuchs residual equals the oracle's,
    window included."""
    fam = sw.sw_family(nf, prec)
    w, inv = fam.omega2, fam.omega2.inverse()
    window = inv.prec_q()
    assert fam.omega2_inv.truncate(window) == inv
    e2 = forms.eisenstein_e2(factor_window(window, inv.valuation()))
    t = -e2 * inv / 3 + fam.u / 3 + (F(1, 2) if nf == 3 else 0)
    a_hat = oracles.sw_period_a(fam)
    assert sw.contact_term(fam).truncate(window) == t
    assert _period(fam).truncate(window) == a_hat
    assert sw.period_residual(fam, sw.contact_term(fam)) == (
        a_hat.qdq(1) * w + a_hat * w.qdq(1) / 2 - w * fam.u.qdq(1))


# what a family check builds: the chart's form_h, the E* that form_h reads,
# W and 1/W, and the E2 and eta^24 that the checks read
CHECK_BUILDS = [("form_h", ()), ("eisenstein_estar", ()),
                ("_eta_quotient", (((2, -4), (4, 8)),)),
                ("_eta_quotient", (((2, 4), (4, -8)),)),
                ("eisenstein_e2", ()), ("_eta_quotient", (((1, 24),),))]


@pytest.mark.parametrize("nf", [0, 2, 3])
def test_family_check_builds_one_family(nf, memo_builds):
    """check_family builds the series of one chart and of its checks, each
    once: the u3 relation reads the nf=0 chart through sw_family after the
    wider nf=3 chart, so it is served from the entries that chart built."""
    sw.check_family(nf, 24)
    assert dict(memo_builds) == {key: 1 for key in CHECK_BUILDS}


def test_nf0_check_builds_no_theta4(memo_builds):
    """The nf=0 chart is made of form_h and eta quotients, and no check of
    the nf=0 family reads a theta constant: with every memo empty, the
    checks pass and call neither Theta4 nor any other."""
    with theta_forbidden():
        assert all(ok for _, ok, _, _ in sw.check_family(0, 24))
    assert memo_builds


@pytest.mark.parametrize("nf", [0, 2, 3], ids=["nf0", "nf2", "nf3"])
def test_family_check_divides_only_by_euler_products(nf, memo_builds,
                                                     monkeypatch):
    """With every memo empty, the chart builds form_h, the E* it reads and
    eta quotients only, and calls no theta constant; check_family raises to
    a negative power only the Euler products of its eta quotients, inside
    forms._eta_quotient, and calls ``inverse`` nowhere else: no chart
    inverts W or a theta product, and no check divides.  Each negative power
    outside is named by (base lead, power), each inverse by its leading
    term."""
    with theta_forbidden():
        sw.sw_family(nf, 40)
    assert {name for name, _ in memo_builds} == \
        {"_eta_quotient", "form_h", "eisenstein_estar"}
    seen = {"powers": [], "inverses": []}

    def outside(record, key, method):
        def wrapped(s, *a):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name != "_eta_quotient":
                frame = frame.f_back
            if frame is None:
                seen[key].append(record(s, *a))
            return method(s, *a)
        return wrapped
    monkeypatch.setattr(QSeries, "_negative_power", outside(
        lambda s, k, _: (s.valuation(), k), "powers",
        QSeries._negative_power))
    monkeypatch.setattr(QSeries, "inverse", outside(
        lambda s, *_: next(s.terms()), "inverses", QSeries.inverse))
    sw.check_family(nf, 40)
    assert seen == {"powers": [], "inverses": []}


@pytest.mark.parametrize("p", [F(1, 2), 1, F(17, 8), 24])
def test_duplication_window_reaches_the_order(p, monkeypatch):
    """The nf=2 duplication check multiplies u2 by t2^4, t2 = 2 q^(1/8) +
    ..., and reads the residual below p + 1/2, where t2 meets cofactors of
    valuation -1/8: t2 built below factor_window(p + 1/2, -1/8) = p + 5/8
    makes the record's window reach p, and t2 built one q^(1/8) step less
    leaves it short of p."""
    build = forms.vartheta
    for short in (False, True):
        asked = []

        def vartheta(i, prec):
            if i != 2:
                return build(i, prec)
            asked.append(prec)
            return build(i, prec - F(1, 8) if short else prec)
        monkeypatch.setattr(forms, "vartheta", vartheta)
        record = sw.check_family(2, p)[-1]
        assert asked == [factor_window(p + F(1, 2), F(-1, 8))] == [p + F(5, 8)]
        assert record[:2] == ("u2 = u0 at tau/2", True)
        assert record[3] == (p - F(1, 8) if short else p)


@pytest.mark.parametrize("prec", [0, F(1, 3), 1, F(5, 2), 24, 100])
@pytest.mark.parametrize("nf", [0, 2, 3])
def test_chart_matches_the_theta_oracle(nf, prec):
    """u, W and 1/W of the level-4 curve equal the theta-constant charts
    below q^prec, as far as sw_family reads them."""
    assert all(agree(s, t, prec) for s, t in
               zip(sw.sw_family(nf, prec)[1:],
                   oracles.sw_chart_theta(nf, prec)))


@pytest.mark.parametrize("p", [0, F(1, 3), F(1, 2), F(5, 2), 24, 121, 600])
@pytest.mark.parametrize("nf", [0, 2, 3])
def test_chart_is_stored_as_the_eta_quotient_oracle(nf, p):
    """u = s form_h(c p) at tau/c is stored, on the same grid and window, as
    s (8 + eta^8/eta(4t)^8) is, and W and 1/W as before; nf=2 as the nf=0
    chart at 2 tau."""
    assert stored(sw.sw_family(nf, p)[1:]) == \
        stored(oracles.sw_chart_quotient(nf, p))


def _is_zero_below(series, prec) -> bool:
    return series.prec_q() >= prec and series.truncate(prec).is_zero()


def test_h_is_eight_plus_an_eta_quotient():
    """h = eta(2t)^4/eta(4t)^8 E*(2t) = 8 + eta^8/eta(4t)^8, to q^200, and
    its weight-2 form E*(2t) = 8 g + eta^8/eta(2t)^4, g = eta(4t)^8 /
    eta(2t)^4, which proves both, h being E*(2t)/g.  All three terms lie in
    M_2(Gamma0(4)): E* = 2 E2(2t) - E2(t) lies in M_2(Gamma0(2)), and for
    each eta quotient prod eta(d t)^r Ligozat's conditions hold (sum d r and
    sum (4/d) r are 0 mod 24, prod d^r is a square) and its orders at the
    cusps 1, 1/2 and 1/4 are >= 0.  Gamma0(4) has index 6 in SL2(Z), so by
    Sturm's bound a form of M_2(Gamma0(4)) whose coefficients vanish up to
    q^((2/12) 6) = q^1 is zero, and the window reaches past that bound."""
    window, sturm = 200, F(2, 12) * 6
    assert window > sturm
    quotient = forms.eta_quotient([(1, 8), (4, -8)], window)
    assert _is_zero_below(forms.form_h(window) - quotient - 8, window)
    g = forms.eta_quotient([(2, -4), (4, 8)], window)
    other = forms.eta_quotient([(1, 8), (2, -4)], window)
    estar = forms.eisenstein_estar(F(window, 2)).rescale(2, 1)
    assert _is_zero_below(estar - 8 * g - other, window)


def test_nf0_period_is_an_eta_quotient():
    """2 (vtheta2 vtheta3)^2 = 8 eta^8/eta(tau/2)^4, to q^200."""
    t2, t3 = forms.vartheta(2, 200), forms.vartheta(3, 200)
    quotient = forms.eta_quotient([(2, -4), (4, 8)], 800).rescale(1, 4)
    assert _is_zero_below(2 * (t2 * t3) ** 2 - 8 * quotient, 200)


def test_nf3_period_is_an_eta_quotient():
    """-(vtheta3^2 - vtheta4^2)^2 / 4 = -16 eta(4t)^8/eta(2t)^4, to q^200."""
    t3, t4 = forms.vartheta(3, 200), forms.vartheta(4, 200)
    quotient = forms.eta_quotient([(2, -4), (4, 8)], 200)
    assert _is_zero_below(-((t3 ** 2 - t4 ** 2) ** 2) / 4 + 16 * quotient,
                          200)
