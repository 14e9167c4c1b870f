"""Classical modular form constructors against oracles and printed values."""

from fractions import Fraction as F

import oracles
import pytest

from qdonald import QSeries, forms, invariants as inv, mock


def literal_eta_product(prec: int) -> QSeries:
    """Oracle: q^(1/24) * prod_(n>=1) (1 - q^n), multiplied out literally."""
    out = QSeries.from_terms({0: F(1)}, prec)
    for n in range(1, prec + 1):
        out = out * QSeries.from_terms({0: F(1), n: F(-1)}, prec)
    return out.shift_exponent(F(1, 24))


def naive_sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_eta_against_literal_product():
    assert (forms.eta(12) - literal_eta_product(12)).is_zero()


def test_eta_unit_inverse():
    assert (forms.eta(10) * forms.eta_power(1, -1, 10) - 1).is_zero()


def test_eta8_cubed_classical_identity():
    """eta(8 tau)^3 = sum (-1)^n (2n+1) q^((2n+1)^2)."""
    lhs = forms.eta_power(8, 3, 200)
    rhs = QSeries.from_terms(
        {(2 * n + 1) ** 2: F((-1) ** n * (2 * n + 1)) for n in range(8)}, 200)
    assert (lhs - rhs).is_zero()


# Every factor set that qdonald and its tests build, each in sorted order.
ETA_FACTOR_SETS = [
    ((1, 1),), ((1, 3),), ((1, 6),), ((1, 24),), ((1, -1),), ((1, -4),),
    ((8, 3),), ((8, -3),),
    ((1, -4), (2, 8)), ((1, -8), (2, 8)), ((2, -4), (4, 8)),
    ((2, 4), (4, -8)), ((2, 8), (4, -4), (8, -3)), ((4, 2), (8, -1)),
    ((4, 8), (8, -7)), ((4, -4), (8, 5)), ((4, -2), (8, 5), (16, -2)),
    ((8, -1), (16, 2)), ((8, 5), (16, -4)), ((8, -7), (16, 8)),
    ((8, -3), (16, -4), (32, 8)),
]


@pytest.mark.parametrize("factors", ETA_FACTOR_SETS, ids=str)
def test_eta_builders_match_the_per_factor_route(factors):
    """eta_quotient equals the product of per-factor powers, each shifted
    onto its ramified grid and padded, and eta_power for one factor the
    per-factor power, in the stored form: grid, window and integers.  That
    covers the windows with no known term, whose grid the result is read
    on decides."""
    def stored(s):
        return s.ram, s.lead, s.prec, s.nums, s.den
    for prec in (0, F(1, 3), F(7, 8), 1, 2, 5, F(17, 3), 10, 31, F(121, 2),
                 100, 257):
        forms._eta_quotient.clear()
        assert stored(forms.eta_quotient(factors, prec)) == \
            stored(oracles.eta_quotient_per_factor(factors, prec)), prec
        if len(factors) == 1:
            forms._eta_quotient.clear()
            assert stored(forms.eta_power(*factors[0], prec)) == \
                stored(oracles.eta_power_per_factor(*factors[0], prec)), prec


@pytest.mark.parametrize("which,factors", [
    (2, [(16, 2), (8, -1)]),
    (3, [(8, 5), (4, -2), (16, -2)]),
    (4, [(4, 2), (8, -1)]),
])
def test_theta_eta_quotients_match_lattice_sums(which, factors):
    assert (forms.theta_big(which, 120)
            - forms.eta_quotient(factors, 120)).is_zero()


def test_theta_printed_series():
    t2 = forms.theta_big(2, 40)
    assert [t2.coeff(e) for e in (1, 9, 25)] == [1, 1, 1]
    t3 = forms.theta_big(3, 40)
    assert (t3.coeff(0), t3.coeff(4), t3.coeff(16), t3.coeff(36)) == (1, 2, 2, 2)
    t4 = forms.theta_big(4, 40)
    assert (t4.coeff(0), t4.coeff(4), t4.coeff(16), t4.coeff(36)) == (1, -2, 2, -2)


def test_vartheta2_brute_force():
    """Oracle: theta_2 = sum over half-integers of q^(nu^2 / 2)."""
    terms = {}
    for n in range(-20, 20):
        e = F((2 * n + 1) ** 2, 8)
        if e < 10:
            terms[e.numerator] = terms.get(e.numerator, 0) + 1
    oracle = QSeries.from_terms({k: F(v) for k, v in terms.items()}, 10, ram=8)
    assert (forms.vartheta(2, 10) - oracle).is_zero()
    lead = forms.vartheta(2, 10)
    assert lead.coeff(F(1, 8)) == 2 and lead.coeff(F(9, 8)) == 2


def test_vartheta_windows_claim_no_more_than_computed():
    """Theta3(tau/8) and Theta4(tau/8) live on the q^(1/2) grid and theta2
    on the q^(1/8) grid at every precision, also when the window holds only
    the first term: it ends where the lattice sum stopped."""
    for which, ram in ((2, 8), (3, 2), (4, 2)):
        for p in (F(1, 8), F(1, 2), F(5, 8), F(7, 3), 4):
            s = forms.vartheta.__wrapped__(which, F(p))
            assert s.ram == ram and s.prec_q() == F(-(-p * ram // 1), ram)
    assert forms.vartheta(3, F(5, 8)).coeff(F(1, 2)) == 2


def test_jacobi_identity():
    j = (forms.vartheta(3, 50) ** 4 - forms.vartheta(4, 50) ** 4
         - forms.vartheta(2, 50) ** 4)
    assert j.is_zero()
    assert j.prec_q() >= 50


def test_two_eta_cubed_identity():
    lhs = 2 * forms.eta_power(1, 3, 30)
    rhs = (forms.vartheta(2, 30) * forms.vartheta(3, 30)
           * forms.vartheta(4, 30))
    assert (lhs - rhs).is_zero()


def test_e2_against_divisor_oracle():
    e2 = forms.eisenstein_e2(40)
    assert e2.coeff(0) == 1
    for n in range(1, 40):
        assert e2.coeff(n) == -24 * naive_sigma1(n)


def test_estar_identity():
    lhs = forms.eisenstein_estar(40)
    rhs = -forms.eisenstein_e2(40) + 2 * forms.eisenstein_e2(20).rescale(2, 1)
    assert (lhs - rhs).is_zero()


def test_eodd_eta_quotient():
    lhs = forms.eisenstein_eodd(60)
    rhs = forms.eta_quotient([(4, 8), (2, -4)], 60)
    assert (lhs - rhs).is_zero()
    for n in range(1, 30, 2):
        assert lhs.coeff(n) == naive_sigma1(n)


def test_form_a_and_b_printed():
    a = forms.form_a(25)
    assert [(e, a.coeff(e)) for e in (-1, 3, 7)] == [(-1, 1), (3, -8), (7, 27)]
    b = forms.form_b(25)
    assert [(e, b.coeff(e)) for e in (-1, 7, 15)] == [(-1, 1), (7, -5), (15, 9)]


def test_sieved_forms_printed_and_closed():
    a38 = forms.form_a38(30)
    assert [a38.coeff(e) for e in (3, 11, 19)] == [-8, -56, -216]
    closed = -8 * forms.eta_quotient([(16, 8), (8, -7)], 30)
    assert (a38 - closed).is_zero()
    a78 = forms.form_a78(30)
    assert [a78.coeff(e) for e in (-1, 7, 15)] == [1, 27, 105]
    closed78 = forms.form_b(30) + 32 * forms.eta_quotient(
        [(32, 8), (8, -3), (16, -4)], 30)
    assert (a78 - closed78).is_zero()


def test_sieve_covers_a_support():
    """A38 + A78 agree with A on 3,7 mod 8 and A has no other classes."""
    a = forms.form_a(60)
    assert {e % 8 for e, _ in a.terms()} <= {F(3), F(7)}
    assert (forms.form_a38(60) + forms.form_a78(60) - a).is_zero()


def test_h_and_fm_printed():
    h = forms.form_h(10)
    assert [(e, h.coeff(e)) for e in (-1, 1, 3, 5)] == \
        [(-1, 1), (1, 20), (3, -62), (5, 216)]
    f0 = forms.form_fm(0, 12)
    assert [f0.coeff(e) for e in (-3, 1, 5, 9)] == [1, -24, 273, -1976]
    f1 = forms.form_fm(1, 12)
    assert [f1.coeff(e) for e in (-5, -1, 3, 7)] == [1, -4, -269, 5188]
    f2 = forms.form_fm(2, 12)
    assert [f2.coeff(e) for e in (-7, -3, 1, 5)] == [1, 16, -411, 272]
    f3 = forms.form_fm(3, 12)
    assert [f3.coeff(e) for e in (-9, -5, -1)] == [1, 36, -153]


def test_estar_4tau_theta_identity():
    lhs = 16 * forms.theta_big(2, 60) ** 4 + forms.theta_big(3, 60) ** 4
    rhs = forms.eisenstein_estar(16).rescale(4, 1)
    assert (lhs - rhs).is_zero()


def test_delta_ratio_is_h_squared_minus_64():
    h = forms.form_h(40)
    ratio = forms.delta(40).rescale(2, 1) * forms.delta(40).rescale(4, 1).inverse()
    assert (ratio - (h ** 2 - 64)).is_zero()


def test_h_ode_with_estar():
    h = forms.form_h(40)
    rhs = (-forms.eisenstein_estar(22).rescale(2, 1) * h
           + 64 * forms.eisenstein_eodd(44))
    assert (h.qdq(1) - rhs).is_zero()


def test_h_ode_with_eodd_corrected():
    """The self-consistent form of the second ODE: qdq(h) = -E_odd (h^2 - 64)."""
    h = forms.form_h(40)
    assert (h.qdq(1) + forms.eisenstein_eodd(44) * (h ** 2 - 64)).is_zero()


@pytest.mark.xfail(strict=True,
                   reason="printed form of the second h-ODE has a sign typo; "
                          "it differs from the truth by exactly 128*E_odd")
def test_h_ode_with_eodd_as_printed():
    h = forms.form_h(40)
    assert (h.qdq(1) + forms.eisenstein_eodd(44) * (h ** 2 + 64)).is_zero()


def test_h_ode_printed_defect_is_pinned():
    h = forms.form_h(40)
    defect = h.qdq(1) + forms.eisenstein_eodd(44) * (h ** 2 + 64)
    assert (defect - 128 * forms.eisenstein_eodd(44)).is_zero()


# Every series.memo constructor, with a map from a precision to its
# arguments.
MEMOIZED = [
    (forms._euler_product, lambda p: (2, p)),
    (forms._eta_quotient, lambda p: (((8, -3),), p)),
    (forms._eta_quotient, lambda p: (((1, 3),), p)),
    (forms._eta_quotient, lambda p: (((2, 4), (4, -8)), p)),
    (forms.theta_big, lambda p: (2, p)),
    (forms.theta_big, lambda p: (4, p)),
    (forms.vartheta, lambda p: (2, p)),
    (forms.vartheta, lambda p: (3, p)),
    (forms.eisenstein_e2, lambda p: (p,)),
    (forms.eisenstein_estar, lambda p: (p,)),
    (forms.eisenstein_eodd, lambda p: (p,)),
    (forms.form_a38, lambda p: (p,)),
    (forms.form_a78, lambda p: (p,)),
    (forms.form_h, lambda p: (p,)),
    (forms.form_fm, lambda p: (1, p)),
    (mock.cal_f, lambda p: (2, p)),
    (mock.mock_m, lambda p: (p,)),
    (mock.lerch_mu_weighted, lambda p: (0, p)),
    (mock.cal_q, lambda p: (p,)),
    (mock.q_transform_s_ren, lambda p: (p,)),
]


def _window(s):
    return s.ram, s.lead, s.prec, s.coeffs, tuple(type(c) for c in s.coeffs)


def test_memo_covers_every_memoized_constructor():
    memoized = {fn for module in (forms, mock, inv)
                for fn in vars(module).values() if hasattr(fn, "entries")}
    assert memoized == {fn for fn, _ in MEMOIZED}


def test_memo_keys_share_entries():
    """Equal requests hit one memo entry: the constructors return the same
    object for an int and an equal Fraction precision, for eta-quotient
    factors in any order or container, and for euler_product's default."""
    for fn, args in MEMOIZED:
        fn.clear()
        assert fn(*args(7)) is fn(*args(F(7)))
        assert len(fn.entries) == 1
    forms._eta_quotient.clear()
    assert (forms.eta_quotient([(8, 5), (16, -4)], 9)
            is forms.eta_quotient(((16, -4), (8, 5)), 9)
            is forms.eta_quotient([[8, 5], [16, -4]], F(9)))
    assert len(forms._eta_quotient.entries) == 1
    assert forms.euler_product(11) is forms.euler_product(11, 1)


@pytest.mark.parametrize("prec", [F(1, 4), F(1, 2), F(7, 8), 1, F(17, 16),
                                  F(13, 8), F(9, 4), F(5, 2), 3, F(11, 3), 6],
                         ids=str)
def test_memo_serves_lower_precisions_by_truncation(prec):
    """A request below the cached precision equals a fresh build, window and
    coefficient types included.  A window with no known nonzero term is the
    one exception: a fresh build has no term to learn the series' grid from
    and claims zero up to its precision on the grid it computed on, while
    the served window ends on the grid of the cached series.  Both are
    empty then, and the served one reaches at least as far."""
    for fn, args in MEMOIZED:
        fn.clear()
        fn(*args(12))
        s = fn(*args(prec))
        assert len(fn.entries) == 1
        f = fn.__wrapped__(*args(F(prec)))
        if f.coeffs:
            assert _window(s) == _window(f), fn
        else:
            assert not s.coeffs and s.prec_q() >= f.prec_q(), fn


def test_memo_holds_one_entry_per_object():
    """Increasing requests replace the entry; clear() empties the cache."""
    for fn, args in MEMOIZED:
        fn.clear()
        for k in range(50):
            fn(*args(1 + F(k, 16)))
        assert [held for held, _ in fn.entries.values()] == \
            [args(1 + F(49, 16))[-1]]
        fn.clear()
        assert not fn.entries
