"""The integer kernel of the series ring against the schoolbook oracles.

``QSeries.__mul__``, ``inverse`` and ``__pow__`` clear rational operands to
integers and convolve them by a loop over nonzero pairs or by Kronecker
substitution, chosen from the operand shape.  These tests draw operands on
both sides of that choice and compare the full window
``(ram, lead, prec, coeffs)``, and every coefficient's type, with the plain
``Fraction`` loops of ``tests/oracles.py``.  An operand holding a ``Cyclo``
coefficient raises ``NotRational``.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schoolbook_inverse, schoolbook_mul, schoolbook_pow
from qdonald import (Cyclo, NotRational, PrecisionUnderflow, QSeries,
                     root_of_unity)
from qdonald import series
from qdonald.exact import euler_phi

_DENOMINATORS = {"int": [1], "pow2": [1, 2, 4, 8, 32],
                 "odd": [1, 3, 5, 7, 9, 15]}


def _scalar(rng, kind):
    if kind == "big":
        return rng.choice([-1, 1]) * rng.getrandbits(rng.randint(65, 100))
    return F(rng.randint(-9, 9), rng.choice(_DENOMINATORS[kind]))


def _dense_cyclo(rng, kind, order=24):
    """An element of Q(zeta_order) with every component nonzero."""
    return Cyclo(order, [_scalar(rng, kind) or 1
                         for _ in range(euler_phi(order))])


@st.composite
def operands(draw, max_len=200, exact=None):
    """A nonzero rational series: its length, density, coefficient kind,
    leading coefficient u_0, ramification and truncation are drawn
    independently."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ram = draw(st.sampled_from([1, 2, 4, 8]))
    lead = draw(st.integers(-8, 8))
    n = draw(st.integers(1, max_len))
    density = draw(st.sampled_from([0.03, 0.2, 1.0]))
    kind = draw(st.sampled_from(["int", "pow2", "odd", "big"]))
    u0 = draw(st.sampled_from(["1", "-1", "2^k", "any"]))
    coeffs = [_scalar(rng, kind) if rng.random() < density else F(0)
              for _ in range(n)]
    coeffs[0] = {"1": F(1), "-1": F(-1), "2^k": F(-2) ** rng.randint(1, 12),
                 "any": _scalar(rng, kind) or F(3)}[u0]
    coeffs = [F(c) if isinstance(c, int) else c for c in coeffs]
    if exact is None:
        exact = draw(st.booleans())
    return QSeries(ram, lead, coeffs, None if exact else lead + n)


def window(s: QSeries):
    return s.ram, s.lead, s.prec, s.coeffs, [type(c) for c in s.coeffs]


@settings(max_examples=100, deadline=None)
@given(operands(), operands())
def test_product_matches_schoolbook(a, b):
    try:
        expected = schoolbook_mul(a, b)
    except PrecisionUnderflow:
        with pytest.raises(PrecisionUnderflow):
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
    """a * c is the coefficient-by-coefficient product: each coefficient's
    type and Cyclo order included, also where a rational zero is not
    multiplied."""
    c = {"int": 3, "fraction": F(-2, 3), "z8": root_of_unity(8, 1),
         "z24": _dense_cyclo(random.Random(1), "odd")}[kind]
    expected = QSeries(a.ram, a.lead, [x * c for x in a.coeffs], a.prec)
    got = a * c
    assert window(got) == window(expected)
    assert [getattr(x, "order", None) for x in got.coeffs] == \
        [getattr(x, "order", None) for x in expected.coeffs]


# _holding(c) is a truncated rational series with c at q^3; _OTHER is a
# rational cofactor
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


def _holding(c) -> QSeries:
    coeffs = list(_RATIONAL)
    coeffs[3] = c
    return QSeries(1, 0, coeffs, len(coeffs))


@pytest.mark.parametrize("kind", sorted(_CYCLO))
@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_cyclo_operand_raises_not_rational(op, kind):
    """Any Cyclo coefficient, a zero or a rational value included, stops a
    product, inverse, division or power with the one named error."""
    with pytest.raises(NotRational, match=r"\.demote\(\)"):
        _OPERATIONS[op](_holding(_CYCLO[kind]))


@pytest.mark.parametrize("kind", ["zero", "rational"])
@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_demoted_operand_gives_the_fraction_result(op, kind):
    """A rational-valued Cyclo demotes to its Fraction, and the operation
    then equals the one on the plain Fraction series."""
    c = _CYCLO[kind]
    plain = _holding(c.as_rational())
    assert _holding(c).demote() == plain
    assert window(_OPERATIONS[op](_holding(c).demote())) == \
        window(_OPERATIONS[op](plain))


@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_irrational_operand_still_raises_after_demote(op):
    with pytest.raises(NotRational):
        _OPERATIONS[op](_holding(_CYCLO["zeta24"]).demote())


def test_sign_twists_build_no_root_of_unity(monkeypatch):
    """shift_tau multiplies by the sign where zeta_ram^(k m) is 1 or -1: a
    rational series with only such twists shifts and round-trips without
    building a Cyclo."""
    def no_root(*args):
        raise AssertionError("shift_tau built a root of unity")
    monkeypatch.setattr(series, "root_of_unity", no_root)
    rng = random.Random(7)
    s2 = QSeries(2, -3, [F(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(30)], 27)
    twisted = s2.shift_tau(1)
    assert twisted == QSeries(2, -3, [(-1) ** (m % 2) * c for m, c in
                                      enumerate(s2.coeffs, -3)], 27)
    assert twisted.shift_tau(1) == s2 and twisted.shift_tau(-1) == s2
    # on the 1/8 grid with even w-exponents only, tau -> tau + 2 twists by
    # i^m = +-1
    s8 = QSeries(8, -4, [F(m + 5, 3) if m % 2 == 0 else F(0)
                         for m in range(-4, 36)], 36)
    twisted = s8.shift_tau(2)
    assert twisted == QSeries(8, -4, [(-1) ** (m // 2 % 2) * c for m, c in
                                      enumerate(s8.coeffs, -4)], 36)
    assert twisted.shift_tau(2) == s8 and twisted.shift_tau(-2) == s8
    assert all(type(c) is F for c in twisted.coeffs)


def _int_schoolbook(x, y, n):
    out = [0] * n
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            if i + j < n:
                out[i + j] += u * v
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=60),
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=60),
       st.integers(1, 130))
def test_kronecker_matches_int_schoolbook(x, y, n):
    """The signed unpack holds for any signs, zeros and slot widths,
    including a window longer than the full product."""
    if not any(x) or not any(y):
        return
    terms = min(sum(1 for v in x if v), sum(1 for v in y if v))
    assert series._kronecker(x, y, n, terms) == _int_schoolbook(x, y, n)


def test_every_product_path_is_taken(monkeypatch):
    """A short or sparse product stays a pair loop; a long dense one is one
    Kronecker multiply, packed without the zeros of a common sublattice.
    Each agrees with the oracle."""
    packed = []
    kronecker = series._kronecker
    monkeypatch.setattr(series, "_kronecker", lambda x, y, n, terms:
                        packed.append(len(x)) or kronecker(x, y, n, terms))
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
