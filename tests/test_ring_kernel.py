"""The integer kernel of the series ring against the schoolbook oracles.

``QSeries.__mul__``, ``inverse`` and ``__pow__`` clear operands to integers,
a ``Cyclo`` coefficient to one slot of integer components, and convolve them
by a loop over nonzero pairs or by Kronecker substitution, chosen from the
operand shape.  These tests draw operands on both sides of that choice and
compare the full window ``(ram, lead, prec, coeffs)``, and every
coefficient's type, with the plain ``Fraction``/``Cyclo`` loops of
``tests/oracles.py``.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schoolbook_inverse, schoolbook_mul, schoolbook_pow
from qdonald import Cyclo, PrecisionUnderflow, QSeries, root_of_unity
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
def operands(draw, max_len=200, exact=None, cyclo=True):
    """A nonzero series: its length, density, coefficient kind, leading
    coefficient u_0, ramification, truncation and Cyclo content are drawn
    independently.

    The Cyclo content is none, a few zeta_8 multiples, or dense: every
    nonzero coefficient (u_0 included, so not a unit of Z[zeta]) has all
    eight components of Q(zeta_24) nonzero, three further coefficients are
    Cyclo zeros, and one is an element of Q(zeta_8) with four nonzero
    components.  Dense operands stay short: the oracle loops multiply
    Cyclo values whose components grow to thousands of bits.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ram = draw(st.sampled_from([1, 2, 4, 8]))
    lead = draw(st.integers(-8, 8))
    content = draw(st.sampled_from(["none", "none", "few", "dense"])
                   if cyclo else st.just("none"))
    n = draw(st.integers(1, min(max_len, 24) if content == "dense"
                         else max_len))
    density = draw(st.sampled_from([0.03, 0.2, 1.0]))
    kind = draw(st.sampled_from(["int", "pow2", "odd", "big"]))
    u0 = draw(st.sampled_from(["1", "-1", "2^k", "any"]))
    coeffs = [_scalar(rng, kind) if rng.random() < density else F(0)
              for _ in range(n)]
    coeffs[0] = {"1": F(1), "-1": F(-1), "2^k": F(-2) ** rng.randint(1, 12),
                 "any": _scalar(rng, kind) or F(3)}[u0]
    if content == "few":
        z = root_of_unity(8, 1)
        for i in rng.sample(range(n), min(n, 3)):
            coeffs[i] = z * (coeffs[i] or 1)
    elif content == "dense":
        coeffs = [_dense_cyclo(rng, kind) if c else c for c in coeffs]
        for i in rng.sample(range(1, n), min(n - 1, 3)):
            coeffs[i] = Cyclo.from_rational(0, 24)
        coeffs[rng.randrange(n)] = _dense_cyclo(rng, kind, 8)
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
@given(operands(max_len=40, exact=True, cyclo=False), st.integers(0, 5))
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


def test_cyclo_zero_inside_the_window_stays_a_cyclo():
    """(1 + z q)(1 - z q) has a Cyclo zero at q^1, as in the plain loop."""
    z = root_of_unity(24, 5)
    a, b = QSeries(1, 0, [F(1), z], None), QSeries(1, 0, [F(1), -z], None)
    product = a * b
    assert window(product) == window(schoolbook_mul(a, b))
    assert type(product.coeffs[1]) is Cyclo and not product.coeffs[1]


def test_inverse_type_follows_earlier_cyclo_coefficients():
    """1 / (1 + q + q^2 + z q^5): the q^7 coefficient is reached from the
    Cyclo coefficients at q^5 and q^6 only (z q^5 meets the zero at q^2),
    so it is a Cyclo by inheritance, as in the plain loop."""
    z = root_of_unity(24, 5)
    s = QSeries(1, 0, [F(1), F(1), F(1), F(0), F(0), z, F(0), F(0), F(0)], 9)
    assert window(s.inverse()) == window(schoolbook_inverse(s))
    assert type(s.inverse().coeffs[7]) is Cyclo


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
    A Cyclo product runs on the same kernel: one convolution of its integer
    components (15 slots per coefficient in Q(zeta_24)) and one of its type
    weights.  Each agrees with the oracle."""
    packed = []
    kronecker = series._kronecker
    monkeypatch.setattr(series, "_kronecker", lambda x, y, n, terms:
                        packed.append(len(x)) or kronecker(x, y, n, terms))
    rng = random.Random(5)
    dense = QSeries(1, 0, [F(rng.randint(-50, 50), 4) for _ in range(150)], 150)
    sparse = QSeries.from_terms({k * k: F(1) for k in range(12)}, 150)
    short = QSeries(1, -1, [F(1), F(-3, 2)], None)
    spread = dense.to_ram(4)
    zdense = QSeries(1, 0, [_dense_cyclo(rng, "odd") for _ in range(60)], 60)
    zspread = zdense.to_ram(4)
    for a, b, lengths in ((dense, dense, [150]), (dense, sparse, []),
                          (dense, short, []), (spread, spread, [150]),
                          (zdense, zdense, [60 * 15, 60]),
                          (zspread, zspread, [60 * 15, 60]),
                          (zdense, short, [])):
        packed.clear()
        assert window(a * b) == window(schoolbook_mul(a, b))
        assert packed == lengths
