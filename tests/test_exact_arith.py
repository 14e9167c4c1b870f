"""Exact scalar arithmetic: rationals and cyclotomic field elements."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qdonald import (Cyclo, DivisionByZero, IncompatibleOrder, root_of_unity,
                     unity)
from qdonald.exact import cyclotomic_polynomial, euler_phi


def test_rat_arith_basics():
    # the S^4 table row as an H-combination
    assert (F(-49, 64) * 39 + F(9, 4) * 28 - F(2133, 64) * 1) == F(-3, 16)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert euler_phi(24) == 8


def test_roots_of_unity():
    assert root_of_unity(8, 0).as_rational() == 1
    assert root_of_unity(2, 1).as_rational() == -1
    i = root_of_unity(8, 2)
    assert (i * i).as_rational() == -1
    z8 = root_of_unity(8, 1)
    assert (z8 * z8 * z8 * z8).as_rational() == -1  # zeta_8^4 in Q(zeta_24)
    z24 = root_of_unity(24, 1)
    assert (z24 * root_of_unity(24, 23)).as_rational() == 1
    total = sum((root_of_unity(8, k) for k in range(8)),
                Cyclo.from_rational(0))
    assert total.as_rational() == 0


def test_root_of_unity_order_check():
    with pytest.raises(IncompatibleOrder):
        root_of_unity(5, 1, order=24)


def test_unity_helper():
    assert unity(0) == 1
    assert unity(F(1, 2)) == -1
    assert unity(F(5, 4)) == root_of_unity(4, 1)


def test_cyclo_arith_contract():
    a = root_of_unity(8, 1, order=8)
    b = root_of_unity(8, 3, order=8)
    assert (a * b).as_rational() == -1
    zero = Cyclo.from_rational(0, 8)
    with pytest.raises(DivisionByZero):
        a / zero


def test_cyclo_rational_roundtrip():
    c = Cyclo.from_rational(F(-7, 3), 24)
    assert c.as_rational() == F(-7, 3)
    assert c == F(-7, 3)
    assert (c - c).as_rational() == 0


def test_cyclo_promotion():
    z8 = root_of_unity(8, 1, order=8)
    z24 = z8.promote(24)
    assert z24 == root_of_unity(8, 1, order=24)
    with pytest.raises(IncompatibleOrder):
        z8.promote(20)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def cyclos(order):
    ph = euler_phi(order)
    return st.lists(rationals, min_size=ph, max_size=ph).map(
        lambda cs: Cyclo(order, cs))


@settings(max_examples=300, deadline=None)
@given(cyclos(12), cyclos(12), cyclos(12))
def test_cyclo_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a
    assert not (a - a)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_rational_embedding_is_homomorphic(x, y):
    cx, cy = Cyclo.from_rational(x, 24), Cyclo.from_rational(y, 24)
    assert (cx * cy).as_rational() == x * y
    assert (cx + cy).as_rational() == x + y
