"""Mock modular objects: F_t, M, the weighted mu-kernels, calQ, and the
transform of Q."""

from fractions import Fraction as F

import oracles
import pytest

from qdonald import QSeries, forms, mock
from qdonald.exact import root_of_unity
from oracles import LerchSpec, NonExpandableDenominator, ThetaNotInvertible
from qdonald.mock import OddT


def _window(s):
    return s.ram, s.lead, s.prec, s.coeffs, tuple(type(c) for c in s.coeffs)


def brute_cal_f(t: int, top: int) -> QSeries:
    """Oracle with the opposite loop order: alpha outer, beta inner."""
    terms = {}
    alpha = 1
    while 4 * alpha * alpha - (2 * alpha - 1) ** 2 < top:
        for beta in range(alpha):
            e = 4 * alpha * alpha - (2 * beta + 1) ** 2
            if e < top:
                terms[e] = terms.get(e, 0) + F((-1) ** (alpha + beta)
                                               * (2 * beta + 1) ** t)
        alpha += 1
    return QSeries.from_terms(terms, top)


@pytest.mark.parametrize("t", [0, 2, 4, 6])
def test_cal_f_against_independent_loop(t):
    assert (mock.cal_f(t, 60) - brute_cal_f(t, 60)).is_zero()


def test_f_t_is_cal_f_read_in_eighth_roots():
    f0 = mock.f_t(0, 4)
    assert f0.coeff(F(3, 8)) == -1
    assert f0.coeff(F(7, 8)) == -1
    assert (f0.rescale(8, 1) - mock.cal_f(0, 32)).is_zero()


def test_odd_t_rejected():
    with pytest.raises(OddT):
        mock.cal_f(3, 10)
    with pytest.raises(OddT):
        mock.lerch_mu_weighted(1, 10)


def test_minus_four_f0_over_theta4():
    s = -4 * mock.cal_f(0, 16) * forms.theta_big(4, 16).inverse()
    assert [s.coeff(e) for e in (3, 7, 11)] == [4, 12, 28]


def test_mock_m_printed():
    m = mock.mock_m(30)
    assert m.valuation() == 7
    assert [m.coeff(e) for e in (7, 15, 23)] == [-1, 2, -3]


M_PRECISIONS = [F(-5, 2), -1, 0, F(1, 3), F(1, 2), 1, 2, 3, 6, 7, F(13, 2),
                F(15, 2), 8, 9, 15, 16, 17, 23, 24, 25, 30, 61, F(121, 3),
                700, 900, 3200, 3840, 4800]


@pytest.mark.parametrize("prec", M_PRECISIONS, ids=str)
def test_mock_m_matches_oracles(prec):
    """M equals the hypergeometric route on the whole window, empty windows
    at negative precision included, and the mu route from -1 (at -5/2 its
    theta vanishes in the window) up to 61 (beyond, it is slow)."""
    m = mock.mock_m(prec)
    window = (m.ram, m.lead, m.prec, m.coeffs)
    hyp = oracles.mock_m_hypergeometric(prec)
    assert window == (hyp.ram, hyp.lead, hyp.prec, hyp.coeffs)
    if -1 <= prec <= 61:
        mu = oracles.mock_m_mu(prec)
        assert window == (mu.ram, mu.lead, mu.prec, mu.coeffs)


def test_jacobi_theta_specialization():
    """q * theta(4 tau; 8 tau) = -Theta4."""
    th = oracles.jacobi_theta(LerchSpec(0, 4, 0, 4, 8), 40)
    assert (th.shift_exponent(1) + forms.theta_big(4, 40)).is_zero()


def test_lerch_mu_matches_weighted_kernel_at_t0():
    mu = oracles.lerch_mu(LerchSpec(0, 4, 0, 4, 8), 30)
    assert (F(1, 2) * mu - mock.lerch_mu_weighted(0, 30)).is_zero()


@pytest.mark.parametrize("prec", [10, 30, 61], ids=str)
@pytest.mark.parametrize("t", [2, 4, 6])
def test_lerch_mu_matches_weighted_kernel(t, prec):
    """(1/2) D_omega^t mu(4 tau + 2 omega, 4 tau; 8 tau) at omega = 0, from
    Zwegers' bilateral sum weighted term by term, against the half-sum
    kernel: a check of the weighted kernels that does not pass through
    calF_t."""
    mu = oracles.lerch_mu(LerchSpec(0, 4, 0, 4, 8), prec, t)
    diff = F(1, 2) * mu - mock.lerch_mu_weighted(t, prec)
    assert diff.is_zero() and diff.prec_q() == prec


@pytest.mark.parametrize("t", [0, 2, 4])
def test_fasmu(t):
    lhs = mock.cal_f(t, 34) * forms.theta_big(4, 34).inverse()
    rhs = mock.lerch_mu_weighted(t, 30)
    assert (lhs.truncate(30) - rhs).is_zero()


@pytest.mark.parametrize("prec", [-5, F(-7, 3), -2, F(-3, 2), -1, F(-1, 2)],
                         ids=str)
@pytest.mark.parametrize("t", [0, 2])
def test_lerch_mu_weighted_at_negative_precision(t, prec):
    """A negative precision gives the empty window that a higher build
    truncated there has, not a Theta4 with an empty window."""
    s = mock.lerch_mu_weighted.__wrapped__(t, prec)
    assert not s.coeffs
    high = mock.lerch_mu_weighted.__wrapped__(t, 10)
    assert _window(s) == _window(high.truncate(prec))


def test_nonexpandable_denominator_detected():
    with pytest.raises(NonExpandableDenominator):
        oracles.lerch_mu(LerchSpec(0, 0, F(1, 4), 1, 2), 10)


def test_weighted_lerch_mu_needs_geometric_expansions():
    """At u = 1/2, 1 - a q'^0 = 2 is a constant: mu has that term, but its
    omega-derivative is not a weight on an expansion, so t > 0 refuses."""
    spec = LerchSpec(F(1, 2), 0, F(1, 4), 1, 2)
    assert not oracles.lerch_mu(spec, 10).is_zero()
    with pytest.raises(NonExpandableDenominator):
        oracles.lerch_mu(spec, 10, 2)


def test_theta_not_invertible_detected():
    # v = 0: every theta term cancels pairwise
    with pytest.raises(ThetaNotInvertible):
        oracles.jacobi_theta(LerchSpec(0, 2, 0, 0, 2), 10)


def test_cal_q_printed():
    q = mock.cal_q(25)
    expect = {-1: 1, 3: 28, 7: 39, 11: 196, 15: 161, 19: 756}
    for e, c in expect.items():
        assert q.coeff(e) == c


def test_h_coefficients():
    assert mock.h_coefficients(6) == [1, 28, 39, 196, 161, 756]


def test_cal_q_support():
    q = mock.cal_q(100)
    assert {e % 4 for e, _ in q.terms()} == {F(3)}  # -1 + 4Z


def test_q_plus_support_window():
    qp = mock.q_plus(20)
    for e, _ in qp.terms():
        assert (e - F(-1, 8)) % F(1, 2) == 0
        assert e >= F(-1, 8)


def test_qasmu_identity():
    p = 80
    resid = (mock.cal_q(p) - 4 * mock.mock_m(p)
             + F(7, 2) * forms.form_a38(p)
             - F(3, 2) * forms.form_a78(p)
             + F(1, 2) * forms.form_b(p))
    assert resid.is_zero()
    assert resid.prec_q() >= p


def test_q_transform_printed():
    s = mock.q_transform_s(5)
    expect = {F(-1, 8): F(5, 2), F(7, 8): F(111, 2), F(15, 8): F(413, 2),
              F(23, 8): 819, F(31, 8): F(4407, 2)}
    for e, c in expect.items():
        assert s.coeff(e) == c
    assert all(type(c) is F for c in s.coeffs)


S_PRECISIONS = [-1, 0, F(1, 3), F(1, 2), F(3, 4), 1, F(5, 4), 2, F(5, 2), 3,
                F(7, 2), 4, 5, 6, 7, 8, F(33, 4), 12, 16, 25, 48, 60, 100, 320]


@pytest.mark.parametrize("prec", S_PRECISIONS, ids=str)
def test_s_transform_m_matches_lerch_oracle(prec):
    """The bilateral sum over Theta4 equals the two mu-specializations in
    Q(zeta8), windows on the q^(1/4) grid and coefficient types included."""
    m = mock.s_transform_parts(prec)["M"]
    assert _window(m) == _window(oracles.s_transform_m_lerch(prec))


def test_s_transform_m_at_negative_precision():
    """Below -1 the mu route's theta vanishes in its window; the sum gives
    the empty window."""
    m = mock.s_transform_parts(F(-5, 2))["M"]
    assert (m.ram, m.lead, m.prec, m.coeffs) == (4, -10, -10, ())
    with pytest.raises(ThetaNotInvertible):
        oracles.s_transform_m_lerch(F(-5, 2))


@pytest.mark.parametrize("prec", [0, F(5, 2), 16, 60], ids=str)
def test_s_transform_is_rational(prec):
    """Every part of the S-transform and their sum lie in Q."""
    parts = mock.s_transform_parts(prec)
    for s in [*parts.values(), mock.q_transform_s_ren(prec)]:
        assert all(type(c) is F for c in s.coeffs)


def test_s_transform_of_a38_printed():
    part = mock.s_transform_parts(16)["A38"].rescale(1, 8)
    expect = {F(-1, 8): F(-1, 2), F(3, 8): 4, F(7, 8): F(-27, 2), F(11, 8): 28}
    for e, c in expect.items():
        assert part.coeff(e) == c


def test_s_duality():
    """(1/sqrt(-i tau)) zeta8 Q(1 - 1/tau) = -zeta8 Q(tau + 1), i.e. the
    shifted series is anti-invariant under the inversion transform."""
    p = 60
    parts = mock.s_transform_parts(p)
    lhs = (F(7, 2) * parts["A38"] + F(3, 2) * parts["A78"]
           + F(-1, 2) * parts["B"] + 4 * parts["M"])
    rhs = -(F(7, 2) * forms.form_a38(p) + F(3, 2) * forms.form_a78(p)
            - F(1, 2) * forms.form_b(p) + 4 * mock.mock_m(p))
    assert (lhs - rhs).is_zero()
    # series-level restatement in Q(zeta24) with an explicit zeta8 twist,
    # on the reference helper: Q+(tau + 1) is not a rational series
    q8 = mock.q_plus(5)
    z8inv = root_of_unity(8, 1).inverse()
    sparts = {k: v.rescale(1, 8) for k, v in mock.s_transform_parts(48).items()}
    lhs8 = (F(7, 2) * sparts["A38"] + F(3, 2) * sparts["A78"]
            + F(-1, 2) * sparts["B"] + 4 * sparts["M"])
    diff = z8inv * oracles.CycloSeries.of(lhs8) + oracles.twist(q8, 1)
    assert diff.truncate(5).is_zero()


def test_e_bracket():
    assert (mock.e_bracket(0, 0, 6) - mock.q_plus(6)).is_zero()
    assert mock.gamma_half_ratio(2) == F(4, 3)
    # direct evaluation of the (1,1) summand at leading order:
    # -1 * C(1,1) * (4^1 1!/2!) * 12 * qdq(Q+) has leading 24 * (1/8) = 3
    b11 = mock.e_bracket(1, 1, 4)
    assert b11.coeff(F(-1, 8)) == 3
    direct = -1 * F(4 * 1, 2) * 12 * mock.q_plus(4).qdq(1)
    assert (b11 - direct).is_zero()
    with pytest.raises(ValueError):
        mock.e_bracket(1, 2, 4)
