"""Classical modular form constructors against oracles and printed values."""

import hashlib
import random
import tracemalloc
from fractions import Fraction as F

import oracles
import pytest
from conftest import theta_forbidden
from counters import MEMO_KEYS, memoized, stored

from qdonald import QSeries, forms, mock
from qdonald.series import factor_window


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
    assert (forms.eta(10) * forms.eta_quotient([(1, -1)], 10) - 1).is_zero()


def test_eta8_cubed_classical_identity():
    """eta(8 tau)^3 = sum (-1)^n (2n+1) q^((2n+1)^2)."""
    lhs = forms.eta_quotient([(8, 3)], 200)
    rhs = QSeries.from_terms(
        {(2 * n + 1) ** 2: F((-1) ** n * (2 * n + 1)) for n in range(8)}, 200)
    assert (lhs - rhs).is_zero()


# The Euler products and the theta constants are built from their lattices
# at every request.  Each digest is the sha256 (first 16 hex digits) of the
# stored form, repr([(ram, lead, prec, den, nums) at each p of LATTICE_PRECS]),
# hashed from the memoized builds that the direct builds replaced; the
# vartheta digests from those builds truncated to p, which stores the empty
# windows at p = -3 and 0 on the grid of their bound.
LATTICE_PRECS = [-3, 0, F(1, 3), 1, 2, 7, 26, 100, 1000]
EULER_DIGESTS = {
    1: "5de39e5df27c62c9", 2: "039a49ee6ddac28a", 3: "f5e65b40e7c1a94f",
    4: "a5e8fa8a7135f5a1", 5: "e6c7474f8df51b30", 6: "ca8b169f40a7b21b",
    7: "1927a219f2f36f56", 8: "5acecffe90ca8c18", 9: "ab441a4227ed224e",
    10: "b309bd6f1603353f", 11: "535ad467d7ce6eb5", 12: "5099527752d10d69",
    13: "33bd3053a228ff93", 14: "79a339f2f41fa674", 15: "7478abba30e3f1e3",
    16: "cdbe6dbece6cfd95",
}
THETA_DIGESTS = {
    ("theta_big", 2): "af0b391f4ba18ca5", ("theta_big", 3): "7b00472d0e9e31a4",
    ("theta_big", 4): "96ef2bd0dcf16ca8", ("vartheta", 2): "1bdc986ac3a550b6",
    ("vartheta", 3): "653d078c78aeeb4a", ("vartheta", 4): "5a021e112943a197",
}


def lattice_digest(build) -> str:
    kept = [stored(build(p)) for p in LATTICE_PRECS]
    return hashlib.sha256(repr(kept).encode()).hexdigest()[:16]


@pytest.mark.parametrize("arg", range(1, 17))
def test_euler_product_is_the_stored_series(arg):
    assert lattice_digest(lambda p: forms.euler_product(p, arg)) == \
        EULER_DIGESTS[arg]


@pytest.mark.parametrize("name, which", sorted(THETA_DIGESTS), ids=str)
def test_theta_constant_is_the_stored_series(name, which):
    build = getattr(forms, name)
    assert lattice_digest(lambda p: build(which, p)) == \
        THETA_DIGESTS[name, which]


@pytest.mark.parametrize("arg", range(1, 17))
def test_euler_product_matches_the_schoolbook_product(arg):
    """The pentagonal build is the product of the factors 1 - q^(arg n),
    multiplied out, in the stored form; arg defaults to 1."""
    for p in LATTICE_PRECS:
        assert stored(forms.euler_product(p, arg)) == \
            stored(oracles.euler_product_schoolbook(p, arg)), p
    assert stored(forms.euler_product(F(7, 2))) == \
        stored(forms.euler_product(F(7, 2), 1))


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
    onto its ramified grid and padded, and for one factor the per-factor
    power, in the stored form: grid, window and integers.  That
    covers the windows with no known term, whose grid the result is read
    on decides."""
    for prec in (0, F(1, 3), F(7, 8), 1, 2, 5, F(17, 3), 10, 31, F(121, 2),
                 100, 257):
        forms._eta_quotient.clear()
        assert stored(forms.eta_quotient(factors, prec)) == \
            stored(oracles.eta_quotient_per_factor(factors, prec)), prec
        if len(factors) == 1:
            forms._eta_quotient.clear()
            assert stored(forms.eta_quotient(factors, prec)) == \
                stored(oracles.eta_power_per_factor(*factors[0], prec)), prec


@pytest.mark.parametrize("which,factors", [
    (2, [(16, 2), (8, -1)]),
    (3, [(8, 5), (4, -2), (16, -2)]),
    (4, [(4, 2), (8, -1)]),
])
def test_theta_eta_quotients_match_lattice_sums(which, factors):
    assert (forms.theta_big(which, 120)
            - forms.eta_quotient(factors, 120)).is_zero()


THETA_INVERSE_PRECS = [F(k, 8) for k in range(-24, 81)] + [100, 333, 1000]


@pytest.mark.parametrize("which", [2, 3, 4])
def test_theta_inverse_is_the_lattice_inverse(which):
    """1/Theta_which, the memoized eta quotient, built anew with no theta
    constant, is the inverse of the lattice sum built one q-step past its
    lead: the same grid, lead, window, denominator and integers at every
    precision from -3 to 10 in steps of 1/8 and at 100, 333 and 1000."""
    for p in THETA_INVERSE_PRECS:
        forms._eta_quotient.clear()
        with theta_forbidden():
            got = forms.theta_inverse(which, p)
        assert stored(got) == stored(oracles.theta_inverse_lattice(which, p)), p


@pytest.mark.parametrize("build, args, name", [
    (forms.euler_product, (5, 0), "arg"),
    (forms.euler_product, (5, -1), "arg"),
    (forms.eta_quotient, ([(0, 2)], 3), "argument d"),
    (forms.eta_quotient, ([(0, 1)], 5), "argument d"),
    (forms.eta_quotient, ([(-2, 2)], 3), "argument d"),
    (forms.theta_inverse, (5, 3), "which"),
    (forms.euler_product, (5, 1.5), "arg"),
    (forms.eta_quotient, ([(F(3, 2), 2)], 3), "argument d"),
    (forms.eta_quotient, ([(2, F(1, 2))], 3), "exponent r"),
], ids=["euler-0", "euler-neg", "quotient-0", "power-0", "quotient-neg",
        "theta-inverse-5", "euler-float", "quotient-fraction-d",
        "quotient-fraction-r"])
def test_bad_arguments_raise_value_error(build, args, name, monkeypatch):
    """An Euler product P(q^arg) with arg not a positive int, an eta factor
    eta(d tau)^r with d not a positive int or r not an int, and a theta
    inverse other than 1/Theta_2, 1/Theta_3 or 1/Theta_4 raise a one-line
    ValueError that names the argument, before the eta quotient memo is
    read."""
    def refuse(*a):
        raise AssertionError(f"the eta quotient memo was read: {a}")
    monkeypatch.setattr(forms, "_eta_quotient", refuse)
    with pytest.raises(ValueError, match=name) as raised:
        build(*args)
    assert "\n" not in str(raised.value)


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
            s = forms.vartheta(which, F(p))
            assert s.ram == ram and s.prec_q() == F(-(-p * ram // 1), ram)
    assert forms.vartheta(3, F(5, 8)).coeff(F(1, 2)) == 2


def test_jacobi_identity():
    j = (forms.vartheta(3, 50) ** 4 - forms.vartheta(4, 50) ** 4
         - forms.vartheta(2, 50) ** 4)
    assert j.is_zero()
    assert j.prec_q() >= 50


def test_two_eta_cubed_identity():
    lhs = 2 * forms.eta_quotient([(1, 3)], 30)
    rhs = (forms.vartheta(2, 30) * forms.vartheta(3, 30)
           * forms.vartheta(4, 30))
    assert (lhs - rhs).is_zero()


def test_e2_against_divisor_oracle():
    e2 = forms.eisenstein_e2(40)
    assert e2.coeff(0) == 1
    for n in range(1, 40):
        assert e2.coeff(n) == -24 * naive_sigma1(n)


def test_e4_against_divisor_oracle():
    e4 = forms.eisenstein_e4(40)
    assert e4.coeff(0) == 1 and e4.prec_q() == 40
    for n in range(1, 40):
        assert e4.coeff(n) == 240 * sum(d ** 3 for d in range(1, n + 1)
                                        if n % d == 0)


def test_e4_is_the_theta_polynomial():
    """vartheta2^8 - vartheta2^4 vartheta3^4 + vartheta3^8 = E4 to q^200."""
    t2, t3 = forms.vartheta(2, 200), forms.vartheta(3, 200)
    poly = t2 ** 8 - t2 ** 4 * t3 ** 4 + t3 ** 8
    assert poly.prec_q() >= 200
    assert (poly.truncate(200) - forms.eisenstein_e4(200)).is_zero()


def test_eta_power_derivative():
    """D eta^-4 = -(1/6) E2 eta^-4 to q^200, D = q d/dq: D log eta = E2/24."""
    eta4inv = forms.eta_quotient([(1, -4)], 200)
    e2 = forms.eisenstein_e2(factor_window(200, eta4inv.valuation()))
    residual = eta4inv.qdq(1) + e2 * eta4inv / 6
    assert residual.prec_q() >= 200 and residual.is_zero()


def test_estar_identity():
    lhs = forms.eisenstein_estar(40)
    rhs = -forms.eisenstein_e2(40) + 2 * forms.eisenstein_e2(20).rescale(2, 1)
    assert (lhs - rhs).is_zero()


def test_rescaled_estar_claims_no_more_than_it_knows():
    """E* known below q^1 is E*(tau/2) known below q^(1/2) only."""
    assert forms.eisenstein_estar(F(1, 4)).rescale(1, 2).prec_q() == F(1, 2)


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


@pytest.mark.parametrize("m, prec", [(5, 200), (5, 250), (0, 40),
                                     (7, 2000), (50, 100), (0, 1000)])
def test_form_fm_matches_the_theta_oracle(m, prec):
    """f_m = eta(4t)^(4m+24) / eta(8t)^(8m+21) E*(4t)^m, built anew, is the
    theta quotient Theta4^9 (16 Theta2^4 + Theta3^4)^m / (Theta2
    Theta3)^(2m+3): the same grid, lead, window, denominator and integers."""
    assert stored(forms.form_fm(m, prec)) == \
        stored(oracles.form_fm_theta(m, prec))


def test_form_fm_builds_no_theta_constant(memo_builds):
    """f_m asks only its eta quotient and E*, and calls no theta constant."""
    with theta_forbidden():
        forms.form_fm(5, 40)
    assert {name for name, _ in memo_builds} == {
        "_eta_quotient", "eisenstein_estar"}


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


# Every series.memo constructor with each of its memo test keys.
MEMOIZED = [(fn, key) for _, name, fn in memoized() for key in MEMO_KEYS[name]]


def _window(s):
    return s.ram, s.lead, s.prec, s.coeffs, tuple(type(c) for c in s.coeffs)


def test_memo_keys_share_entries():
    """Equal requests hit one memo entry: the constructors return the same
    object for an int and an equal Fraction precision, and for eta-quotient
    factors in any order or container."""
    for fn, key in MEMOIZED:
        fn.clear()
        assert fn(*key, 7) is fn(*key, F(7))
        assert len(fn.entries) == 1
    forms._eta_quotient.clear()
    assert (forms.eta_quotient([(8, 5), (16, -4)], 9)
            is forms.eta_quotient(((16, -4), (8, 5)), 9)
            is forms.eta_quotient([[8, 5], [16, -4]], F(9)))
    assert len(forms._eta_quotient.entries) == 1


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
    for fn, key in MEMOIZED:
        fn.clear()
        fn(*key, 12)
        s = fn(*key, prec)
        assert len(fn.entries) == 1
        f = fn.__wrapped__(*key, F(prec))
        if f.coeffs:
            assert _window(s) == _window(f), fn
        else:
            assert not s.coeffs and s.prec_q() >= f.prec_q(), fn


def test_memo_holds_one_entry_per_object():
    """Increasing requests replace the entry; clear() empties the cache."""
    for fn, key in MEMOIZED:
        fn.clear()
        for k in range(50):
            fn(*key, 1 + F(k, 16))
        assert [held for held, _ in fn.entries.values()] == [1 + F(49, 16)]
        fn.clear()
        assert not fn.entries


def test_repeated_requests_of_held_keys_do_not_grow_memory():
    """Memory grows with the distinct keys only: once seven keys are held at
    their widest windows, 3000 requests of them at lower or equal
    precisions replace no entry, and the traced size grows by less than
    64 KB.  A memo that kept each request's series grew by 1.1 MB here; what
    does grow is the interpreter's free lists, which fill up and stop."""
    keys = [(forms.form_a38, ()), (forms.form_h, ()), (mock._cal_f, (2,)),
            (forms.eisenstein_e2, ()), (forms._eta_quotient, (((8, -3),),)),
            (mock.cal_q, ()), (forms.eisenstein_estar, ())]
    for fn, key in keys:
        fn.clear()
    for fn, key in keys:
        fn(*key, 60)
    held = [fn.entries[key] for fn, key in keys]
    rng = random.Random(3000)
    asks = [(*rng.choice(keys), F(rng.randrange(481), 8)) for _ in range(3000)]
    for fn, key, p in asks:  # warm up what the interpreter caches once
        fn(*key, p)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for fn, key, p in asks:
            fn(*key, p)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(fn.entries[key] is entry for (fn, key), entry
               in zip(keys, held))
    assert grown < 64 * 1024, grown
