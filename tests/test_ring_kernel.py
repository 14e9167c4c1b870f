"""The integer kernel of the series ring against the schoolbook oracles.

``QSeries.__mul__``, ``inverse`` and ``__pow__`` clear rational operands to
integers and convolve them by a loop over nonzero pairs or by Kronecker
substitution, chosen from the operand shape.  These tests draw operands on
both sides of that choice and compare the full window ``(ram, lead, prec,
coeffs)``, and every coefficient's type, with the plain ``Fraction`` loops of
``tests/oracles.py``.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schoolbook_inverse, schoolbook_mul, schoolbook_pow
from qdonald import PrecisionUnderflow, QSeries, root_of_unity
from qdonald import series

_DENOMINATORS = {"int": [1], "pow2": [1, 2, 4, 8, 32],
                 "odd": [1, 3, 5, 7, 9, 15]}


def _scalar(rng, kind):
    if kind == "big":
        return rng.choice([-1, 1]) * rng.getrandbits(rng.randint(65, 100))
    return F(rng.randint(-9, 9), rng.choice(_DENOMINATORS[kind]))


@st.composite
def operands(draw, max_len=200, exact=None, cyclo=True):
    """A nonzero series: its length, density, coefficient kind, leading
    coefficient u_0, ramification and truncation are drawn independently."""
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
    if cyclo and draw(st.booleans()) and draw(st.booleans()):
        z = root_of_unity(8, 1)
        for i in rng.sample(range(n), min(n, 3)):
            coeffs[i] = z * (coeffs[i] or 1)
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
