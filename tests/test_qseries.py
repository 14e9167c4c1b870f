"""The truncated ramified Laurent series ring and its operator algebra."""

import random
import sys
from decimal import Decimal
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdonald import (BadParameter, InsufficientPrecision,
                     IrrepresentableExponent, NotInvertible, NotRational,
                     QSeries)
from qdonald import forms, mock
from qdonald.exact import Cyclo, root_of_unity
from qdonald import series
from qdonald.series import exact_str, factor_window


def test_inverse_of_theta4():
    t4 = forms.theta_big(4, 16)
    inv = t4.inverse()
    expected = {0: 1, 4: 2, 8: 4, 12: 8}
    for e, c in expected.items():
        assert inv.coeff(e) == c
    assert (t4 * inv - 1).is_zero()


def test_ring_identities_on_forms():
    a = forms.form_a(20)
    assert (a * QSeries.one()) == a
    assert (a * a.inverse() - 1).is_zero()


def test_theta2_square_valuation():
    t2 = forms.theta_big(2, 20)
    assert (t2 * t2).valuation() == 2


def test_rescale_theta2():
    # Theta2(tau) = q + q^9 + q^25 under tau -> tau/8
    r = forms.theta_big(2, 40).rescale(1, 8)
    assert r.coeff(F(1, 8)) == 1
    assert r.coeff(F(9, 8)) == 1
    assert r.coeff(F(25, 8)) == 1
    assert r.coeff(F(2, 8)) == 0


def test_reduce_ram_keeps_an_empty_window():
    """A window with no known nonzero term moves to a coarser grid only as
    far as its bound lies on it."""
    for ram, prec, want in ((8, 1, (8, 1)), (8, 4, (2, 1)), (8, 16, (1, 2)),
                            (8, 0, (1, 0)), (6, -9, (2, -3))):
        s = QSeries(ram, prec, [], prec).reduce_ram()
        assert (s.ram, s.prec) == want and not s.coeffs


def test_truncate_stores_an_empty_window_on_the_grid_of_its_bound():
    """A cut that keeps no known term stores the empty window on the grid
    of its bound, whether it cuts the window or leaves it as it is; a cut
    that keeps a term stays on the series' grid."""
    eta = forms.eta(2)  # q^(1/24) - q^(25/24) - ... on the 1/24 grid
    empty = QSeries(24, -3, [], -3)
    for s, p, want in ((eta, 0, (1, 0)), (eta, F(-1, 8), (8, -1)),
                       (eta, F(-1, 2), (2, -1)), (eta, F(1, 2), (24, 12)),
                       (empty, 0, (8, -1)), (empty, -1, (1, -1)),
                       (empty, F(-1, 4), (4, -1))):
        cut = s.truncate(p)
        assert (cut.ram, cut.prec) == want
        assert cut.nums or cut.lead == cut.prec


def test_rescale_identity():
    a = forms.eisenstein_e2(12)
    assert a.rescale(1, 1) == a


def test_rescale_e2_doubled():
    doubled = forms.eisenstein_e2(10).rescale(2, 1)
    # direct recomputation with doubled exponents
    direct = {2 * n: c for n, c in
              ((e.numerator, c) for e, c in forms.eisenstein_e2(10).terms())}
    for e, c in direct.items():
        assert doubled.coeff(e) == c
    assert doubled.coeff(1) == 0
    assert doubled.coeff(2) == -24
    assert doubled.coeff(4) == -72


def test_shift_tau_trivial_on_integer_exponents():
    e2 = forms.eisenstein_e2(12)
    for k in (-3, 1, 7):
        assert e2.shift_tau(k) == e2


def test_shift_tau_eta_cubed():
    """eta^3(tau+2) twists every coefficient by the same primitive phase,
    i = zeta_8^2: no rational series, so shift_tau refuses it and the
    reference twist computes it."""
    eta3 = forms.eta_quotient([(1, 3)], 8)
    with pytest.raises(NotRational):
        eta3.shift_tau(2)
    expected = root_of_unity(8, 2) * oracles.CycloSeries.of(eta3)
    assert (oracles.twist(eta3, 2) - expected).is_zero()


def test_shift_tau_inverse_roundtrip():
    q = mock.q_plus(6)
    with pytest.raises(NotRational):
        q.shift_tau(1)
    assert oracles.twist(oracles.twist(q, 1), -1).to_rational() == q
    assert q.shift_tau(8) == q


def test_shift_tau_higher_ramification():
    """Shift twists on a ram-16 grid land in Q(zeta_48) and round-trip."""
    halved = mock.q_plus(6).rescale(1, 2)
    assert halved.ram == 16
    twisted = oracles.twist(halved, 3)
    assert {c.order for c in twisted.terms.values()} == {48}
    round_trip = oracles.twist(twisted, -3).to_rational()
    assert (round_trip - halved).is_zero()
    # tau -> tau+16 is trivial on a 1/16-grid series
    assert (halved.shift_tau(16) - halved).is_zero()


def test_qdq_rules():
    const = QSeries.from_terms({0: F(3)}, 10)
    assert const.qdq(1).is_zero()
    mono = QSeries.monomial(F(-1, 8))
    assert mono.qdq(1).coeff(F(-1, 8)) == F(-1, 8)
    # term-by-term from the calQ expansion: -q^-1 + 84q^3 + 273q^7 + ...
    dq = mock.cal_q(20).qdq(1)
    assert dq.coeff(-1) == -1
    assert dq.coeff(3) == 84
    assert dq.coeff(7) == 273


def test_coeff_extraction():
    t3 = forms.theta_big(3, 20)
    assert t3.coeff(4) == 2
    assert t3.coeff(1) == 0          # inside window, absent
    assert t3.coeff(-5) == 0         # below valuation
    with pytest.raises(InsufficientPrecision):
        t3.coeff(25)
    with pytest.raises(IrrepresentableExponent):
        t3.coeff(F(1, 3))


def test_constant_term_window_guard():
    s = QSeries.from_terms({-4: F(1)}, 0)  # known only below exponent 0
    with pytest.raises(InsufficientPrecision):
        s.constant_term()
    assert QSeries.from_terms({-4: F(1)}, 1).constant_term() == 0


def test_not_invertible():
    with pytest.raises(NotInvertible):
        QSeries.zero(prec=5).inverse()


def test_exact_series_need_explicit_inverse_precision():
    with pytest.raises(ValueError):
        QSeries.one().inverse()
    inv = QSeries.from_terms({0: F(1), 1: F(-1)}, None).inverse(6)
    assert all(inv.coeff(k) == 1 for k in range(6))


def test_exact_inverse_is_known_below_its_precision_argument():
    """inverse(prec) of an exact series is known exactly below q^prec."""
    inv = QSeries.monomial(5).inverse(10)
    assert (inv.valuation(), inv.prec_q()) == (-5, 10)
    assert [inv.coeff(e) for e in range(-5, 10)] == [1] + [0] * 14
    # q^-2 (1 - q) with lead != 0: q^2 + q^3 + ... below q^7
    s = QSeries.from_terms({-2: F(1), -1: F(-1)}, None)
    inv = s.inverse(7)
    assert (inv.valuation(), inv.prec_q()) == (2, 7)
    assert all(inv.coeff(e) == 1 for e in range(2, 7))
    with pytest.raises(InsufficientPrecision):
        inv.coeff(7)
    # ramified: 2 q^(-1/2) + q^(1/2) on the 1/2 grid
    s = QSeries.from_terms({-1: F(2), 1: F(1)}, None, ram=2)
    inv = s.inverse(F(7, 2))
    assert (inv.valuation(), inv.prec_q()) == (F(1, 2), F(7, 2))
    assert (inv * s - 1).truncate(3).is_zero()
    with pytest.raises(InsufficientPrecision):
        QSeries.monomial(5).inverse(-5)


# each ring method that takes a precision, called with one
RING_PRECISION_CALLS = {
    "truncate": lambda p: forms.eta(10).truncate(p),
    "inverse": lambda p: QSeries.one().inverse(p),  # exact: p is used
    "inverse-truncated": lambda p: forms.eta(10).inverse(p),  # p is unused
    "zero": QSeries.zero,
    "from_terms": lambda p: QSeries.from_terms({0: 1}, p),
}


@pytest.mark.parametrize("prec", [2.5, "3", float("nan")],
                         ids=["2.5", "str", "nan"])
@pytest.mark.parametrize("method", RING_PRECISION_CALLS)
def test_ring_refuses_a_bad_precision(method, prec):
    """The ring reads a precision as the constructors do: anything but an
    int or a Fraction is one BadParameter line that names it, where a float
    gave a window of 5/2 and a str one of 3 before."""
    with pytest.raises(BadParameter, match="^precision must be an int or "
                       "a Fraction, not ") as raised:
        RING_PRECISION_CALLS[method](prec)
    assert "\n" not in str(raised.value)


_WINDOW = "coefficient window does not match [lead, prec)"

# each error path of the ring and of the eta quotients that a call reaches:
# the call, the exception it raises and its message
ERROR_PATHS = {
    "window-mismatch": (lambda: QSeries(1, 0, [1, 2], 5), ValueError,
                        _WINDOW),
    "numerators-window-mismatch": (
        lambda: QSeries.from_numerators(1, 0, [1], 1, 5), ValueError,
        _WINDOW),
    "denominator-not-positive": (
        lambda: QSeries.from_numerators(1, 0, [1], 0, 1), ValueError,
        "the common denominator must be positive"),
    "zero-valuation": (lambda: QSeries.zero(5).valuation(), ValueError,
                       "zero series has no valuation"),
    "to-ram-not-a-multiple": (lambda: QSeries.monomial(F(1, 2)).to_ram(3),
                              ValueError, "2 does not divide 3"),
    "division-by-zero": (lambda: forms.eta(5) / 0, NotInvertible,
                         "division by zero scalar"),
    "exact-by-exact": (lambda: QSeries.one() / QSeries.monomial(1),
                       ValueError, "dividing exact by exact needs a "
                       "precision; use .inverse(prec) explicitly"),
    "rescale-by-zero": (lambda: forms.eta(5).rescale(0), ValueError,
                        "rescale factors must be positive"),
    "negative-derivative": (lambda: forms.eta(5).qdq(-1), ValueError,
                            "derivative order must be non-negative"),
    "empty-eta-quotient": (lambda: forms.eta_quotient([], 5), BadParameter,
                           "eta quotient needs at least one factor"),
}


@pytest.mark.parametrize("case", ERROR_PATHS)
def test_error_paths_raise_their_message(case):
    call, kind, message = ERROR_PATHS[case]
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind and str(raised.value) == message


def test_scalar_minus_a_series():
    """``1 - eta`` is ``__rsub__``: the scalar minus the series."""
    diff = 1 - forms.eta(5)
    assert diff.to_text() == "(1 - q^(1/24) + q^(25/24) + q^(49/24) ...)"
    assert diff == QSeries.from_terms({0: 1, 1: -1, 25: 1, 49: 1}, 5, ram=24)


def test_division_by_an_exact_series_keeps_the_numerator_window():
    num = forms.theta_big(3, 20)
    den = QSeries.from_terms({2: F(1), 3: F(-1)}, None)   # q^2 - q^3
    quot = num / den
    assert (quot.valuation(), quot.prec_q()) == (-2, 18)
    assert (quot * den - num).is_zero()
    zero = QSeries.zero(5) / den
    assert zero.is_zero() and zero.prec_q() == 3


def test_text_and_json_forms():
    q = mock.q_plus(3)
    text = q.to_text()
    assert text.startswith("q^(-1/8) * (1 + 28*q^(1/2) + 39*q")
    payload = q.to_json_dict()
    assert payload["ram"] == 8
    assert payload["coeffs"][0] == ["-1", "1"]
    rebuilt = QSeries.from_terms(
        {int(m): F(c) for m, c in payload["coeffs"]},
        F(payload["prec"], payload["ram"]), ram=payload["ram"])
    assert (rebuilt - q).is_zero()


def test_json_writes_each_value_as_its_fraction():
    """Each nonzero value is written as str(Fraction): "n/d" in lowest
    terms with the sign on n, "n" over 1, and zeros are not written."""
    s = QSeries.from_numerators(2, -3, [-9, 0, 4, 6, 0, 12], 12, 3)
    assert s.to_json_dict() == {
        "ram": 2, "lead": -3, "prec": 3,
        "coeffs": [["-3", "-3/4"], ["-1", "1/3"], ["0", "1/2"], ["2", "1"]]}
    whole = QSeries.from_numerators(1, 0, [2, 0, -5], 1, None)
    assert whole.to_json_dict()["coeffs"] == [["0", "2"], ["2", "-5"]]
    for c in s.coeffs + whole.coeffs:
        assert type(c) is F
    assert [v for _, v in s.to_json_dict()["coeffs"]] == \
        [str(c) for c in s.coeffs if c]


@pytest.mark.parametrize("max_terms", [0, -1])
def test_to_text_rejects_max_terms_below_one(max_terms):
    with pytest.raises(ValueError):
        forms.eta(5).to_text(max_terms)
    assert forms.eta(5).to_text(1) == "q^(1/24) * (1 ...)"


def test_to_text_marks_an_unknown_tail_after_no_known_term():
    """A truncated series with no known nonzero term is not an exact zero:
    its text keeps the trailing ' ...' of every other truncated series."""
    assert QSeries.zero(5).to_text() == "0 ..."
    assert QSeries.zero(F(-3, 2), ram=2).to_text() == "0 ..."
    assert forms.eta(0).to_text() == "0 ..."
    assert QSeries.zero().to_text() == "0"
    assert (forms.eta(3) - forms.eta(3)).to_text() == "0 ..."
    assert (QSeries.one() - 1).to_text() == "0"


# ---------------------------------------------------------------------------
# no series holds a Cyclo coefficient: the reference helper does, and hands
# its rational part to QSeries

_CYCLO_TERMS = {-1: F(2, 3), 0: root_of_unity(8, 1), 3: F(-1)}


def _cyclo_series():
    """2/3 q^(-1/2) + zeta_8 - q^(3/2), known below q^4 on the 1/2 grid, in
    the reference helper."""
    return oracles.CycloSeries(2, _CYCLO_TERMS, 8)


def _rational_part() -> QSeries:
    """2/3 q^(-1/2) - q^(3/2), known below q^4: the series above less its
    zeta_8 term."""
    return (_cyclo_series() - root_of_unity(8, 1)).to_rational()


def test_coeff_of_a_cyclo_series():
    """The series above is no rational series: each constructor refuses it,
    and a zero or rational Cyclo value, with NotRational.  The reference
    helper holds it, and only its rational part converts."""
    with pytest.raises(NotRational, match="Cyclo"):
        QSeries.from_terms(_CYCLO_TERMS, 4, ram=2)
    for c in (root_of_unity(8, 1), Cyclo.from_rational(0, 8),
              Cyclo.from_rational(F(2, 3), 8)):
        with pytest.raises(NotRational):
            QSeries(2, -1, [F(2, 3), c, F(0)], 2)
        with pytest.raises(NotRational):
            QSeries.from_terms({-1: F(2, 3), 0: c}, None, ram=2)
    held = _cyclo_series()
    assert held.terms[0] == root_of_unity(8, 1) and held.lead == -1
    with pytest.raises(NotRational):
        held.to_rational()
    s = _rational_part()
    assert s.coeff(F(-1, 2)) == F(2, 3) and s.coeff(F(3, 2)) == -1
    assert s.coeff(0) == 0 and s.coeff(1) == 0 and s.coeff(-3) == 0
    with pytest.raises(InsufficientPrecision):
        s.coeff(4)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_qdq_of_a_cyclo_series(j):
    """qdq of the rational part, term by term, on its whole window."""
    s = _rational_part()
    d = s.qdq(j)
    assert (d.ram, d.prec) == (s.ram, s.prec)
    for m in range(-2, 8):
        e = F(m, 2)
        assert d.coeff(e) == e ** j * s.coeff(e)
    assert d.coeff(F(-1, 2)) == F(-1, 2) ** j * F(2, 3)


def test_json_of_a_cyclo_series():
    """The rational part writes its two terms; the zeta_8 term has no JSON
    form, as no series holds it."""
    assert _rational_part().to_json_dict() == {
        "ram": 2, "lead": -1, "prec": 8,
        "coeffs": [["-1", "2/3"], ["3", "-1"]]}


def test_cyclo_scalar_added_to_a_series():
    """A Cyclo scalar does not combine with a series; it adds to the
    reference helper's constant term."""
    z = root_of_unity(8, 1)
    t3 = forms.theta_big(3, 5)
    for op in (lambda: t3 + z, lambda: z + t3, lambda: t3 - z,
               lambda: t3 * z, lambda: t3 / z):
        with pytest.raises(TypeError):
            op()
    held = z + oracles.CycloSeries.of(t3)
    assert held.terms[0] == 1 + z and held.terms[4] == 2
    assert (held - z).to_rational() == t3


def test_to_text_of_an_irrational_coefficient():
    """Text is written for rational series only: the rational part above,
    and rational Cyclo values once the reference helper demotes them."""
    assert _rational_part().to_text() == "q^(-1/2) * (2/3 - q^2 ...)"
    rational = oracles.CycloSeries(1, {0: Cyclo.from_rational(-3, 8),
                                       1: root_of_unity(2, 1, order=8)}, None)
    assert rational.to_rational().to_text() == "(-3 - q)"


_LONG = 3 ** 20000  # 9543 digits, past str's default limit of 4300


@pytest.mark.parametrize("n", [
    _LONG, -_LONG, _LONG * 10 ** 70, -_LONG * 10 ** 70,  # trailing zeros
    _LONG << 40000, -(_LONG << 40000),  # the top split's low half is 0
    2 ** 50001, 10 ** 9000, 0, -1, 1 << 1024, (1 << 1025) - 1],
    ids=["long", "-long", "zeros", "-zeros", "low0", "-low0", "2^50001",
         "10^9000", "0", "-1", "2^1024", "2^1025-1"])
def test_decimal_digits_are_str_of_the_decimal(n):
    """The divide-and-conquer digits of an int equal str(Decimal(n)), signs,
    trailing zeros and a zero low half included; exact_str writes them past
    str's limit, alone and in a Fraction, and leaves the limit as it was."""
    limit = sys.get_int_max_str_digits()
    want = str(Decimal(n))
    assert series._decimal_str(n) == want
    assert exact_str(n) == want
    assert exact_str(F(n, 7 ** 6000)) == \
        (f"{want}/{Decimal(7 ** 6000)}" if n else "0")
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# randomized property suites (the 1000-case suites of criterion 15 run in
# the acceptance module and the comparisons with the plain references of
# tests/oracles.py in test_ring_kernel, both on the qseries drawn here;
# none of them is repeated here)

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def qseries(draw, ram=None, exact=False):
    r = ram or draw(st.sampled_from([1, 2, 3, 4, 8]))
    lead = draw(st.integers(min_value=-6, max_value=6))
    n = draw(st.integers(min_value=1, max_value=7))
    coeffs = draw(st.lists(small_fracs, min_size=n, max_size=n))
    prec = None if exact else lead + n
    return QSeries(r, lead, coeffs, prec)


@st.composite
def sources(draw):
    """(build, val, step): a series on the 1/ram grid, ram 1 to 3, with a
    lead of either sign and a nonzero lead term; build(prec) is it known
    below q^prec, the window rounded up onto its grid as the constructors
    round theirs, and val and step are its valuation and grid step."""
    ram = draw(st.integers(1, 3))
    lead = draw(st.integers(-6, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coeffs = [rng.choice([0, 0, 1, -1, 2, F(-3, 2)]) for _ in range(128)]
    coeffs[0] = draw(st.sampled_from([1, -1, 3, F(1, 2)]))

    def build(prec):
        w = ceil(prec * ram)
        return QSeries(ram, lead, coeffs[:max(w - lead, 0)], w)
    return build, F(lead, ram), F(1, ram)


def _grid(prec, step):
    return ceil(prec / step) * step


targets = st.builds(F, st.integers(-12, 72), st.just(6))


@settings(max_examples=300, deadline=None)
@given(sources(), sources(), targets)
def test_factor_window_inverts_the_product_rule(a, b, p):
    """Factors built to factor_window(p, val of the other) give a product
    known below q^p, unless neither reaches its lead, which only a p below
    the product's valuation asks; a factor built one grid step short does
    not, where the other has its lead term."""
    (build_a, va, step), (build_b, vb, _) = a, b
    x, y = build_a(factor_window(p, vb)), build_b(factor_window(p, va))
    assert (x * y).prec_q() >= p or not (x.nums or y.nums)
    short = build_a(_grid(factor_window(p, vb), step) - step)
    if y.nums:
        assert (short * y).prec_q() < p


@settings(max_examples=300, deadline=None)
@given(sources(), sources(), targets)
def test_factor_window_inverts_the_inverse_rule(a, u, p):
    """A numerator built to factor_window(p, val(1/u)) and a divisor u to
    factor_window(p, val of the numerator, val(u)) give a quotient known
    below q^p.  Built one grid step short, the numerator gives less, and so
    does the divisor: it has no inverse, or where it has one and the lead
    floor binds, the floor is one q-step past the lead, more than one grid
    step on a finer grid."""
    (build_a, va, step_a), (build_u, vu, step_u) = a, u
    x, d = build_a(factor_window(p, -vu)), build_u(factor_window(p, va, vu))
    assert (x / d).prec_q() >= p
    short = build_a(_grid(factor_window(p, -vu), step_a) - step_a)
    assert (short / d).prec_q() < p
    low = build_u(_grid(factor_window(p, va, vu), step_u) - step_u)
    if not low.nums:
        with pytest.raises(NotInvertible):
            low.inverse()
    elif factor_window(p, va, vu) == factor_window(p, va) + 2 * vu \
            and x.nums:
        assert (x / low).prec_q() < p


# exact and truncated factors, with a lead of either sign, and the window
# of their product with 0 + O(q^5)
_ZERO_TIMES = [
    (QSeries.monomial(-3), 2), (QSeries.monomial(2), 7),
    (QSeries(1, -3, [F(2), F(0), F(-1)], 0), 2),
    (QSeries(2, -5, [F(1), F(3)], -3), F(5, 2)),
    (QSeries(1, 2, [F(1), F(1)], 4), 7)]


@pytest.mark.parametrize("other, below", _ZERO_TIMES)
def test_zero_product_window_adds_the_other_lead(other, below):
    """0 + O(q^5) times c q^v (1 + ...) is known zero below q^(5 + v), in
    either order, for an exact or a truncated factor whose lead has either
    sign."""
    for prod in (QSeries.zero(5) * other, other * QSeries.zero(5)):
        assert prod.is_zero() and prod.prec_q() == below


@pytest.mark.parametrize("other", [other for other, _ in _ZERO_TIMES])
def test_exact_zero_factor_gives_an_exact_zero(other):
    """An exact zero times a nonzero factor, exact or truncated, is an
    exact zero in either order: the factor's window bounds nothing."""
    for prod in (QSeries.zero() * other, other * QSeries.zero()):
        assert prod == QSeries.zero()


@settings(max_examples=200, deadline=None)
@given(small_fracs, st.sampled_from([1, 2, 4]),
       st.one_of(qseries(), qseries(exact=True), small_fracs))
def test_zero_product_window_is_exact(p, ram, other):
    """A known zero O(q^p) times a factor that starts at q^v, or is
    O(q^v) itself, is known zero below q^(p + v), and no further; other
    is a series with a lead of either sign, a zero window, or an exact
    zero, which leaves the window O(q^p)."""
    z = QSeries.zero(p, ram)
    if not isinstance(other, QSeries):
        other = QSeries.zero(other, 2)
    if not other.is_zero():
        v = other.valuation()
    else:
        v = 0 if other.prec is None else other.prec_q()
    for prod in (z * other, other * z):
        assert prod.is_zero() and prod.prec_q() == z.prec_q() + v


@st.composite
def known_parts(draw):
    """(short, full): an exact series full on the 1/ram grid and short, the
    same series known below w^p only.  The terms below p lie on a sublattice
    step Z, with p on it or not, and full has nonzero terms at and past p,
    so a window that claims an exponent past p claims a wrong zero."""
    ram = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    step = draw(st.sampled_from([d for d in range(1, ram + 1) if ram % d == 0]))
    lead = step * draw(st.integers(-4, 4))
    p = lead + draw(st.integers(-3, 4 * step))
    terms = {m: draw(small_fracs.filter(bool))
             for m in range(lead, p, step) if draw(st.booleans())}
    terms |= {m: draw(small_fracs.filter(bool))
              for m in range(p, p + draw(st.integers(1, 2 * ram)))}
    full = QSeries.from_terms(terms, None, ram)
    return full.truncate(F(p, ram)), full


@settings(max_examples=300, deadline=None)
@given(known_parts(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["reduce_ram", "rescale", "to_ram"]))
def test_grid_changes_claim_exactly_what_they_know(parts, num, den, op):
    """rescale, to_ram and reduce_ram map the window of what is known onto
    the window of the result, no wider and no narrower, and every
    coefficient in it is the one the full series gives."""
    short, full = parts
    change, scale = {"reduce_ram": (lambda s: s.reduce_ram(), 1),
                     "rescale": (lambda s: s.rescale(num, den), F(num, den)),
                     "to_ram": (lambda s: s.to_ram(num * s.ram), 1)}[op]
    got = change(short)
    assert got.prec_q() == short.prec_q() * scale
    assert (got - change(full)).is_zero()


def test_package_exports_the_series_ring_only():
    """The package namespace holds QSeries and its exceptions; the Q(zeta_N)
    scalars, which no series holds, are reached through qdonald.exact, and
    two series are compared by their difference."""
    import qdonald
    assert sorted(qdonald.__all__) == sorted(
        ["QSeries", "NotInvertible", "NotRational", "InsufficientPrecision",
         "IrrepresentableExponent", "BadParameter"])
    for name in ("Cyclo", "root_of_unity", "unity", "DivisionByZero",
                 "IncompatibleOrder"):
        assert not hasattr(qdonald, name)
        assert hasattr(qdonald.exact, name)
    assert not hasattr(QSeries, "agrees_with")
    assert not hasattr(QSeries, "support_mod")
