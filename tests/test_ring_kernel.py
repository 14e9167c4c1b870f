"""The integer-native series ring against the schoolbook oracles.

A rational ``QSeries`` is one integer vector over one denominator.  Products
and inverses convolve those integers by a loop over nonzero pairs or by
Kronecker substitution, chosen from the operand shape; sums, scalars,
window and grid changes and ``qdq`` also run on the integers.  These tests
draw operands on both sides of each choice and compare the full window
``(ram, lead, prec, coeffs)``, and every coefficient's type, with the plain
``Fraction`` loops of ``tests/oracles.py``, and check that every stored
form is canonical.  A ``Cyclo`` coefficient, even a zero or rational one,
raises ``NotRational`` where a series is built.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from counters import canonical, counting_packed_bytes, window
from oracles import (int_power_schoolbook, int_product_schoolbook,
                     schoolbook_inverse, schoolbook_mul, schoolbook_pow)
from qdonald import InsufficientPrecision, NotRational, QSeries
from qdonald import exact as exact_arith, series
from qdonald.exact import Cyclo, euler_phi, root_of_unity
from test_qseries import qseries

_DENOMINATORS = {"int": [1], "pow2": [1, 2, 4, 8, 32],
                 "odd": [1, 3, 5, 7, 9, 15]}


# "big": numerators past 64 bits; "bigden": denominators of 60 to 90 bits
_KINDS = ("int", "pow2", "odd", "big")
_ALL_KINDS = _KINDS + ("bigden",)


def _scalar(rng, kind):
    if kind == "big":
        return rng.choice([-1, 1]) * rng.getrandbits(rng.randint(65, 100))
    if kind == "bigden":
        return F(rng.randint(-9, 9) * rng.getrandbits(40),
                 rng.getrandbits(rng.randint(60, 90)) | 1)
    return F(rng.randint(-9, 9), rng.choice(_DENOMINATORS[kind]))


def _dense_cyclo(rng, kind, order=24):
    """An element of Q(zeta_order) with every component nonzero."""
    return Cyclo(order, [_scalar(rng, kind) or 1
                         for _ in range(euler_phi(order))])


@st.composite
def operands(draw, max_len=200, exact=None, kinds=_KINDS):
    """A nonzero rational series: its length, density, coefficient kind,
    leading coefficient u_0, ramification and truncation are drawn
    independently."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ram = draw(st.sampled_from([1, 2, 3, 4, 8]))
    lead = draw(st.integers(-8, 8))
    n = draw(st.integers(1, max_len))
    density = draw(st.sampled_from([0.03, 0.2, 1.0]))
    kind = draw(st.sampled_from(kinds))
    u0 = draw(st.sampled_from(["1", "-1", "2^k", "any"]))
    coeffs = [_scalar(rng, kind) if rng.random() < density else F(0)
              for _ in range(n)]
    coeffs[0] = {"1": F(1), "-1": F(-1), "2^k": F(-2) ** rng.randint(1, 12),
                 "any": _scalar(rng, kind) or F(3)}[u0]
    coeffs = [F(c) if isinstance(c, int) else c for c in coeffs]
    if exact is None:
        exact = draw(st.booleans())
    return QSeries(ram, lead, coeffs, None if exact else lead + n)


@settings(max_examples=100, deadline=None)
@given(operands(), operands())
def test_product_matches_schoolbook(a, b):
    try:
        expected = schoolbook_mul(a, b)
    except InsufficientPrecision:
        with pytest.raises(InsufficientPrecision):
            a * b
        return
    assert window(a * b) == window(expected)


@settings(max_examples=100, deadline=None)
@given(operands(exact=False), operands(exact=True, max_len=12),
       st.integers(1, 40))
def test_inverse_matches_schoolbook(a, e, top):
    assert window(a.inverse()) == window(schoolbook_inverse(a))
    prec = F(top, e.ram) - e.valuation()
    assert window(e.inverse(prec)) == window(schoolbook_inverse(e, prec))


@settings(max_examples=60, deadline=None)
@given(operands(max_len=60, exact=False), st.integers(-3, 4))
def test_power_matches_schoolbook(a, k):
    assert window(a ** k) == window(schoolbook_pow(a, k))


@settings(max_examples=60, deadline=None)
@given(operands(max_len=40, exact=True), st.integers(0, 5))
def test_exact_power_matches_schoolbook(a, k):
    assert window(a ** k) == window(schoolbook_pow(a, k))


@settings(max_examples=60, deadline=None)
@given(operands(max_len=60), st.sampled_from(["int", "fraction", "z8", "z24"]))
def test_scalar_product_matches_each_coefficient(a, kind):
    """a * c is the coefficient-by-coefficient product for a rational c; a
    Cyclo c is refused, and the reference helper multiplies each value by
    it, keeping its order."""
    c = {"int": 3, "fraction": F(-2, 3), "z8": root_of_unity(8, 1),
         "z24": _dense_cyclo(random.Random(1), "odd")}[kind]
    if not isinstance(c, Cyclo):
        expected = QSeries(a.ram, a.lead, [x * c for x in a.coeffs], a.prec)
        assert window(a * c) == window(expected)
        return
    with pytest.raises(TypeError):
        a * c
    with pytest.raises(TypeError):
        c * a
    got = c * oracles.CycloSeries.of(a)
    assert (got.ram, got.lead, got.prec) == (a.ram, a.lead, a.prec)
    assert got.terms == {m: x * c for m, x in enumerate(a.coeffs, a.lead)
                         if x}
    assert {v.order for v in got.terms.values()} == {24}


# _holding(c) is a truncated series with c at q^3 in the reference helper;
# _OTHER is a rational cofactor
_RATIONAL = [F(2), F(-1), F(1, 3), F(0), F(5, 2), F(-7), F(1, 4), F(3)]
_OTHER = QSeries(1, -1, [F(1), F(0), F(-2, 5), F(4), F(1, 7), F(-1), F(2),
                         F(9)], 7)
_OPERATIONS = {
    "a * b": lambda a: a * _OTHER,
    "b * a": lambda a: _OTHER * a,
    "a.inverse()": lambda a: a.inverse(),
    "e.inverse(prec)": lambda a: QSeries(a.ram, a.lead, a.coeffs,
                                         None).inverse(6),
    "a / b": lambda a: a / _OTHER,
    "b / a": lambda a: _OTHER / a,
    "a ** 2": lambda a: a ** 2,
    "a ** -1": lambda a: a ** -1,
}
_CYCLO = {"zeta24": root_of_unity(24, 5), "zero": Cyclo.from_rational(0, 24),
          "rational": Cyclo.from_rational(3, 24)}


def _holding(c) -> oracles.CycloSeries:
    return oracles.CycloSeries(1, dict(enumerate(_RATIONAL[:3] + [c]
                                                 + _RATIONAL[4:])),
                               len(_RATIONAL))


@pytest.mark.parametrize("kind", sorted(_CYCLO))
@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_cyclo_operand_raises_not_rational(op, kind):
    """Any Cyclo coefficient, a zero or a rational value included, is
    refused where a series is built, from a coefficient list or from terms,
    with the one named error: no product, inverse, division or power sees
    it."""
    values = list(_RATIONAL)
    values[3] = _CYCLO[kind]
    with pytest.raises(NotRational, match="Cyclo"):
        _OPERATIONS[op](QSeries(1, 0, values, len(values)))
    with pytest.raises(NotRational, match="Cyclo"):
        _OPERATIONS[op](QSeries.from_terms(dict(enumerate(values)), 8))


@pytest.mark.parametrize("kind", ["zero", "rational"])
@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_demoted_operand_gives_the_fraction_result(op, kind):
    """The reference helper demotes a rational-valued Cyclo to its
    Fraction: the series it converts to equals the plain Fraction series,
    and so does the operation on it."""
    c = _CYCLO[kind]
    plain = QSeries(1, 0, _RATIONAL[:3] + [c.as_rational()] + _RATIONAL[4:],
                    len(_RATIONAL))
    assert window(_holding(c).to_rational()) == window(plain)
    assert window(_OPERATIONS[op](_holding(c).to_rational())) == \
        window(_OPERATIONS[op](plain))


@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_irrational_operand_still_raises_after_demote(op):
    """A zeta_24 value does not convert to a rational series, so no
    operation is reached."""
    with pytest.raises(NotRational):
        _OPERATIONS[op](_holding(_CYCLO["zeta24"]).to_rational())


def test_sign_twists_build_no_root_of_unity():
    """shift_tau multiplies by the sign where zeta_ram^(k m) is 1 or -1: a
    rational series with only such twists shifts and round-trips as a
    rational series, and equals the reference twist."""
    rng = random.Random(7)
    s2 = QSeries(2, -3, [F(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(30)], 27)
    twisted = s2.shift_tau(1)
    assert twisted == QSeries(2, -3, [(-1) ** (m % 2) * c for m, c in
                                      enumerate(s2.coeffs, -3)], 27)
    assert twisted.shift_tau(1) == s2 and twisted.shift_tau(-1) == s2
    assert twisted == oracles.twist(s2, 1).to_rational()
    # on the 1/8 grid with even w-exponents only, tau -> tau + 2 twists by
    # i^m = +-1
    s8 = QSeries(8, -4, [F(m + 5, 3) if m % 2 == 0 else F(0)
                         for m in range(-4, 36)], 36)
    twisted = s8.shift_tau(2)
    assert twisted == QSeries(8, -4, [(-1) ** (m // 2 % 2) * c for m, c in
                                      enumerate(s8.coeffs, -4)], 36)
    assert twisted.shift_tau(2) == s8 and twisted.shift_tau(-2) == s8
    assert twisted == oracles.twist(s8, 2).to_rational()
    assert all(type(c) is F for c in canonical(twisted).coeffs)


def _nonzero(*vs):
    """The indices of the nonzero terms of each vector."""
    return [[i for i, v in enumerate(x) if v] for x in vs]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=60),
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=60),
       st.integers(1, 130))
def test_kronecker_matches_int_schoolbook(x, y, n):
    """The signed unpack holds for any signs, zeros and slot widths,
    including a window longer than the full product."""
    if not any(x) or not any(y):
        return
    assert exact_arith._kronecker(x, y, n, *_nonzero(x, y)) == \
        int_product_schoolbook(x, y, n)


@pytest.mark.parametrize("b", [7, 8, 15, 16, 63, 64])
def test_kronecker_slot_edges(b):
    """Coefficients +-2^b next to byte boundaries, all of one sign or mixed,
    put the largest product coefficient near the edge of a slot; every
    window n, up to past the full product, unpacks exactly."""
    signs = (lambda i: 1, lambda i: -1, lambda i: (-1) ** i,
             lambda i: -1 if i % 3 else 1)
    for lx, ly in ((1, 1), (2, 3), (4, 4), (8, 5)):
        for sx in signs:
            for sy in signs:
                x = [sx(i) << b for i in range(lx)]
                y = [sy(j) << b for j in range(ly)]
                for n in range(1, lx + ly + 3):
                    assert exact_arith._kronecker(x, y, n, *_nonzero(x, y)) \
                        == int_product_schoolbook(x, y, n), (lx, ly, n)


# the bytes of one packed vector of four slots for a bound of b bits: k =
# ceil((b + 1) / 8) bytes a slot, since |c| <= bound < 2^b <= 2^(8k - 1)
SLOT_BYTES = {7: 4, 8: 8, 9: 8, 15: 8, 16: 12, 17: 12, 23: 12, 24: 16, 25: 16}


@pytest.mark.parametrize("b", sorted(SLOT_BYTES))
def test_kronecker_slot_is_as_wide_as_its_bound(b):
    """Four terms each of +-X and of +-3, with 12 X of b bits: every product
    coefficient sits at or near +-bound, so a slot one byte narrower
    misreads them, and at b = 8j - 1 they fit in j bytes a slot.  Every
    sign pattern equals the schoolbook product and packs SLOT_BYTES[b]
    bytes per operand."""
    big = (2 ** b - 1) // 12
    assert (12 * big).bit_length() == b
    signs = (lambda i: 1, lambda i: -1, lambda i: (-1) ** i,
             lambda i: -1 if i % 3 else 1)
    for sx in signs:
        for sy in signs:
            x = [sx(i) * big for i in range(4)]
            y = [sy(i) * 3 for i in range(4)]
            with counting_packed_bytes() as packed:
                got = exact_arith._kronecker(x, y, 7, *_nonzero(x, y))
            assert got == int_product_schoolbook(x, y, 7)
            assert packed == [SLOT_BYTES[b]] * 2


def _sparse_ints(bits):
    """Integer vectors of 1 to 60 terms, about half of them zero."""
    return st.lists(st.one_of(st.just(0), st.integers(-2 ** bits, 2 ** bits)),
                    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(_sparse_ints(70), _sparse_ints(8), st.integers(1, 130))
def test_both_product_paths_match_int_schoolbook(x, y, n):
    """The pair loop and the Kronecker multiply on the same signed,
    zero-heavy operands of unequal lengths, whichever one the entry would
    choose, and the entry itself."""
    want = int_product_schoolbook(x, y, n)
    assert exact_arith.int_product(x, y, n) == want
    assert exact_arith._pairs(x, y, n, *_nonzero(x, y)) == want
    if any(x) and any(y):
        assert exact_arith._kronecker(x, y, n, *_nonzero(x, y)) == want


@pytest.mark.parametrize("u0", [1, -1, 2, -2, 8, 2 ** 19])
@pytest.mark.parametrize("g", [1, 2, 4, 8])
@settings(max_examples=15, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-99, 99)), max_size=12),
       st.integers(0, 12), st.integers(0, 6))
def test_reciprocal_on_each_sublattice(u0, g, tail, steps, rest):
    """int_power(u, -1, n) of a divisor whose nonzero terms lie on the multiples
    of g, one of them at g itself, to a window n that is no multiple of g
    when g > 1, against the schoolbook recurrence; the denominator is
    positive and the result in lowest terms."""
    u = [0] * (g * (len(tail) + 1) + 1)
    u[::g] = [u0, 1] + tail
    n = g * steps + (1 + rest % (g - 1) if g > 1 else rest + 1)
    nums, den = exact_arith.int_power(u, -1, n)
    want = schoolbook_inverse(QSeries(1, 0, u, None), n)
    assert [F(v, den) for v in nums] == list(want.coeffs)
    assert den > 0 and gcd(den, *nums) == 1


@st.composite
def power_bases(draw):
    """A truncated rational base for a negative power: a lead in -8..8, a
    leading integer u0 off +-1 (negative too), a content c times integers
    on the multiples of a sublattice step g, over a denominator d > 1, on
    the 1/ram grid for ram in {1, 2, 8}."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g, n = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 40))
    content = draw(st.sampled_from([1, 2, 3, 6, -4]))
    ints = [rng.randint(-9, 9) if i % g == 0 and rng.random() < 0.5 else 0
            for i in range(n)]
    ints[0] = draw(st.sampled_from([2, -2, 3, -5, 8, -12]))
    den = draw(st.sampled_from([2, 3, 7, 12, 2 ** 40 + 1]))
    ram, lead = draw(st.sampled_from([1, 2, 8])), draw(st.integers(-8, 8))
    return QSeries(ram, lead, [F(content * v, den) for v in ints], lead + n)


@settings(max_examples=150, deadline=None)
@given(power_bases(), st.integers(-7, -1))
def test_negative_power_matches_schoolbook(a, k):
    """int_power on the base's integers and a ** k on the base, against the
    oracle's inverse and then repeated products: the window (ram, lead,
    prec, coefficients) exactly, and a positive denominator in lowest
    terms."""
    nums, den = exact_arith.int_power(a.nums, k, len(a.nums))
    assert den > 0 and gcd(den, *nums) == 1
    assert [F(v, den) for v in nums] == \
        int_power_schoolbook(a.nums, k, len(a.nums))
    assert window(a ** k) == window(schoolbook_pow(a, k))


@pytest.mark.parametrize("u, r, n", [
    ([3, -1, 0, 2, 5], -1, 12), ([3, -1, 0, 2, 5], -3, 12),
    ([-2, 0, 4, 0, 6], -2, 15), ([5, 7], -7, 9), ([1, -1, -1], -4, 20),
    ([-6, 0, 9, 0, -3], -5, 13)],
    ids=["r=-1", "r=-3", "r=-2", "r=-7", "r=-4", "r=-5"])
def test_int_power_on_fixed_bases(u, r, n):
    """int_power on fixed bases, u0 = 1 or off +-1, some on the even
    sublattice, and r from -1 to -7, against the schoolbook inverse and
    products: the deterministic check of the recurrence's weights and u0
    scaling."""
    nums, den = exact_arith.int_power(u, r, n)
    assert [F(v, den) for v in nums] == int_power_schoolbook(u, r, n)
    assert den > 0 and gcd(den, *nums) == 1


def test_negative_power_and_inverse_share_one_body(monkeypatch):
    """a ** k for k < 0 and a.inverse() each make one int_power call, with
    the exponent k and -1, and no product."""
    calls = []
    power = series.int_power
    monkeypatch.setattr(series, "int_power", lambda u, r, n:
                        calls.append(r) or power(u, r, n))
    monkeypatch.setattr(series, "int_product", None)
    a = QSeries(1, -1, [F(2), F(1), F(0), F(-3)], 3)
    e = QSeries(1, 0, [F(2), F(1)], None)
    assert [a ** -3, a.inverse(), e.inverse(5)] == \
        [schoolbook_pow(a, -3), schoolbook_inverse(a), schoolbook_inverse(e, 5)]
    assert calls == [-3, -1, -1]


def test_every_product_path_is_taken(monkeypatch):
    """A short or sparse product stays a pair loop; a long dense one is one
    Kronecker multiply, packed without the zeros of a common sublattice.
    Each agrees with the oracle."""
    packed = []
    kronecker = exact_arith._kronecker
    monkeypatch.setattr(exact_arith, "_kronecker", lambda x, *rest:
                        packed.append(len(x)) or kronecker(x, *rest))
    rng = random.Random(5)
    dense = QSeries(1, 0, [F(rng.randint(-50, 50), 4) for _ in range(150)], 150)
    sparse = QSeries.from_terms({k * k: F(1) for k in range(12)}, 150)
    short = QSeries(1, -1, [F(1), F(-3, 2)], None)
    spread = dense.to_ram(4)
    for a, b, lengths in ((dense, dense, [150]), (dense, sparse, []),
                          (dense, short, []), (spread, spread, [150])):
        packed.clear()
        assert window(a * b) == window(schoolbook_mul(a, b))
        assert packed == lengths


@pytest.mark.parametrize("g", [1, 3])
def test_a_squaring_packs_once(g):
    """s * s of a long dense series, on the integers and read on the 1/3
    grid, where the kernel squares on the sublattice 3Z: the schoolbook
    square, from one Kronecker multiply that packs its operand once."""
    rng = random.Random(11)
    s = QSeries(1, -2, [F(rng.randint(-50, 50), 6) for _ in range(150)], 148)
    s = s.to_ram(g)
    with counting_packed_bytes() as packed:
        square = s * s
    assert window(square) == window(schoolbook_mul(s, s))
    assert len(packed) == 1


# ---------------------------------------------------------------------------
# sums, scalars and window changes on the integer form

@settings(max_examples=100, deadline=None)
@given(operands(kinds=_ALL_KINDS), operands(kinds=_ALL_KINDS))
def test_sums_match_schoolbook(a, b):
    ref = oracles.CycloSeries.of(a)
    assert window(a + b) == window((ref + b).to_rational())
    assert window(a - b) == window((ref - b).to_rational())
    assert window(-a) == window((-ref).to_rational())
    assert window(a + 3) == window((ref + 3).to_rational())


@settings(max_examples=100, deadline=None)
@given(operands(kinds=_ALL_KINDS), st.sampled_from(_ALL_KINDS),
       st.integers(0, 2 ** 32))
def test_rational_scalars_match_each_coefficient(a, kind, seed):
    c = _scalar(random.Random(seed), kind) or F(5, 7)
    ref = oracles.CycloSeries.of(a)
    assert window(a * c) == window((ref * F(c)).to_rational())
    assert window(c * a) == window((ref * F(c)).to_rational())
    assert window(a / c) == window((ref * (1 / F(c))).to_rational())


@settings(max_examples=100, deadline=None)
@given(st.one_of(operands(kinds=_ALL_KINDS),
                 st.one_of(qseries(), qseries(exact=True))),
       st.integers(-10, 60), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.fractions(-3, 3, max_denominator=12),
       st.integers(1, 3))
def test_window_changes_match_reference(a, top, num, den, k, delta, j):
    """truncate, to_ram, rescale, reduce_ram, shift_exponent and qdq keep
    the window and the values of the Fraction references.  About half the
    draws are short series with zero terms, exact or truncated, so that
    exact zeros and empty windows are among them; the cut is read off the
    lead, the valuation of a nonzero series."""
    cut = F(top, 2 * a.ram) + F(a.lead, a.ram)
    ref = oracles.CycloSeries.of(a)
    assert window(a.truncate(cut)) == window(ref.truncate(cut).to_rational())
    assert window(a.to_ram(k * a.ram)) == \
        window(ref.spread(k, k * a.ram).to_rational())
    assert window(a.rescale(num, den)) == \
        window(ref.spread(num, a.ram * den).reduce_ram().to_rational())
    assert window(a.to_ram(k * a.ram).reduce_ram()) == \
        window(ref.reduce_ram().to_rational())
    assert window(a.shift_exponent(delta)) == \
        window(ref.shift_exponent(delta).to_rational())
    derivative = {m: c * F(m, a.ram) ** j for m, c in ref.terms.items()}
    assert window(a.qdq(j)) == \
        window(oracles.CycloSeries(a.ram, derivative, a.prec).to_rational())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-20, 60),
                       st.one_of(st.integers(-10 ** 30, 10 ** 30),
                                 st.fractions(max_denominator=10 ** 20)),
                       max_size=30),
       st.one_of(st.none(), st.integers(-10, 70)), st.sampled_from([1, 2, 4]))
def test_from_terms_matches_reference(terms, top, ram):
    prec = None if top is None else F(top, ram)
    want = oracles.CycloSeries(ram, {m: F(c) for m, c in terms.items()},
                               top).to_rational()
    assert window(QSeries.from_terms(terms, prec, ram)) == window(want)


@settings(max_examples=60, deadline=None)
@given(operands(max_len=25, kinds=_ALL_KINDS),
       operands(max_len=25, kinds=_ALL_KINDS), st.integers(-2, 3))
def test_big_denominators_match_schoolbook(a, b, k):
    """Products, inverses and powers of operands with big denominators."""
    try:
        expected = schoolbook_mul(a, b)
    except InsufficientPrecision:
        expected = None
    if expected is not None:
        assert window(a * b) == window(expected)
    if a.prec is not None:
        assert window(a.inverse()) == window(schoolbook_inverse(a))
        assert window(a ** k) == window(schoolbook_pow(a, k))


@pytest.mark.parametrize("u0", [1, -1, 2, 3, 8, 2 ** 19])
@settings(max_examples=25, deadline=None)
@given(a=operands(max_len=80, kinds=("int", "big")), top=st.integers(1, 60))
def test_inverse_for_each_leading_term(u0, a, top):
    """The inverse on integers over u0^n, reduced once, for a leading
    integer u0 that is a unit, a prime, a small or a large power of 2."""
    b = QSeries(a.ram, a.lead, (F(u0),) + a.coeffs[1:], a.prec)
    assert (b.nums[0], b.den) == (u0, 1)
    if b.prec is None:
        want = schoolbook_inverse(b, F(top, b.ram) - b.valuation())
        assert window(b.inverse(F(top, b.ram) - b.valuation())) == window(want)
    else:
        assert window(b.inverse()) == window(schoolbook_inverse(b))


@st.composite
def dense_divisors(draw):
    """A dense integer divisor of 200 to 260 terms of one of two shapes:
    u0 = -1 after dividing by its content (the gcd of its coefficients),
    which is 1, 2, 3 or 6; or a content c in {2, 3, 6, 10} times a part
    whose lead is m = +-2, 5 or -7, so that u0 = c m and c is not a power
    of u0."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(200, 260))
    part = [rng.choice([-1, 1]) * rng.randint(1, 9) if rng.random() < 0.9
            else 0 for _ in range(n)]
    if draw(st.booleans()):
        content, part[0] = draw(st.sampled_from([1, 2, 3, 6])), -1
    else:
        content = draw(st.sampled_from([2, 3, 6, 10]))
        part[0] = draw(st.sampled_from([2, -2, 5, -7]))
    part[1] = rng.choice([-1, 1])  # the part's own content is 1
    part[-1] = rng.choice([-1, 1]) * rng.randint(1, 9)  # n terms if exact
    ram = draw(st.sampled_from([1, 2, 8]))
    lead = draw(st.integers(-4, 4))
    exact = draw(st.booleans())
    return QSeries(ram, lead, [F(content * v) for v in part],
                   None if exact else lead + n)


@settings(max_examples=16, deadline=None)
@given(dense_divisors(), st.integers(200, 240))
def test_inverse_of_long_dense_divisors(u, top):
    """Long dense divisors with a negative unit lead after the content, and
    with a content that is not a power of u0, against the schoolbook
    recurrence."""
    content = gcd(*u.nums)
    assert len(u.nums) >= 200 and u.den == 1
    assert u.nums[0] == -content or 1 < content < abs(u.nums[0])
    if u.prec is None:
        prec = F(top, u.ram) - u.valuation()
        assert window(u.inverse(prec)) == window(schoolbook_inverse(u, prec))
    else:
        assert window(u.inverse()) == window(schoolbook_inverse(u))


def test_ring_operations_do_not_clear_or_rebuild_fractions(monkeypatch):
    """No operation on a rational series goes through a Fraction list: the
    clearing and rebuilding helpers of ``exact`` are never called."""
    rng = random.Random(3)
    a = QSeries(2, -1, [F(rng.randint(-9, 9), rng.choice([1, 3, 8]))
                        for _ in range(40)], 39)
    b = QSeries(1, 0, [F(1, 2), F(0), F(-3, 7), F(5)], None)

    def refuse(*args):
        raise AssertionError("a ring operation cleared or rebuilt Fractions")
    for module in (exact_arith, series):
        for name in ("clear", "from_ints"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    results = [a * b, b * a, a.inverse(), b.inverse(5), a ** 3, a ** -2,
               a + b, a - b, -a, a * F(3, 4), a / 7, a / b, a.truncate(3),
               a.to_ram(6), a.rescale(3, 2), a.to_ram(4).reduce_ram(),
               a.shift_exponent(F(1, 3)), a.qdq(2), a.shift_tau(1)]
    for s in results:
        canonical(s)


@st.composite
def hashed(draw):
    """A rational series on a ram in 1..6 with an exact or truncated window,
    built from Fractions."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ram, lead, n = (draw(st.integers(1, 6)), draw(st.integers(-12, 12)),
                    draw(st.integers(0, 30)))
    step = draw(st.integers(1, 3))
    coeffs = [F(rng.randint(-5, 5), rng.choice([1, 2, 6, 35]))
              if i % step == 0 else F(0) for i in range(n)]
    prec = None if draw(st.booleans()) else lead + n
    return QSeries(ram, lead, coeffs, prec)


@settings(max_examples=200, deadline=None)
@given(hashed(), st.integers(1, 4), st.integers(1, 5))
def test_equal_series_hash_equal(a, k, scale):
    """Equal series hash equal: a series read on a finer grid, built from
    integers over a larger denominator, and read back on its coarsest grid,
    exact or truncated (``reduce_ram`` never widens a window)."""
    finer = a.to_ram(k * a.ram)
    ints = QSeries.from_numerators(a.ram, a.lead,
                                   [v * scale for v in a.nums],
                                   a.den * scale, a.prec)
    equal = [finer, ints, finer.reduce_ram()]
    for b in equal:
        assert a == b and hash(a) == hash(b)
    assert len({a, *equal}) == 1


def test_hash_reads_the_coarsest_grid():
    """A series and the same series read on a grid three times finer hash
    equal, exact, truncated or empty: the hash reads ``reduce_ram``, not
    the grid the series is stored on."""
    for a in (QSeries.from_numerators(2, -1, [3, 0, 5], 7, 2),
              QSeries.monomial(F(1, 2), 4), QSeries(4, 6, [], 6),
              QSeries.zero()):
        assert hash(a) == hash(a.to_ram(3 * a.ram))


def test_hash_builds_no_fraction_view():
    """Hashing reads the stored integers: it leaves the Fraction view of
    the coefficients unbuilt."""
    a = QSeries.from_numerators(8, -1, [3, 0, -5, 7, 0, 1], 6, 5)
    hash(a)
    assert not hasattr(a, "_coeffs")
    assert hash(a) == hash(QSeries(8, -1, a.coeffs, 5))


def test_rational_cyclo_series_hashes_as_its_fraction_series():
    """The reference helper holding a zero or rational Cyclo converts to the
    series of its Fraction, which is equal and hashes equal."""
    for kind in ("zero", "rational"):
        c = _CYCLO[kind]
        held = _holding(c).to_rational()
        plain = _holding(c.as_rational()).to_rational()
        assert held == plain and hash(held) == hash(plain)
