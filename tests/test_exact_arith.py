"""Exact scalar arithmetic: rationals and cyclotomic field elements."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qdonald import (Cyclo, DivisionByZero, IncompatibleOrder, root_of_unity,
                     unity)
from qdonald.exact import cyclotomic_polynomial, euler_phi
from oracles import CycloSeries, cyclo_from_poly, cyclo_mul


def test_rat_arith_basics():
    # the S^4 table row as an H-combination
    assert (F(-49, 64) * 39 + F(9, 4) * 28 - F(2133, 64) * 1) == F(-3, 16)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert euler_phi(24) == 8


def test_cyclotomic_polynomials_divide_x_n_minus_1():
    """For every n <= 60, Phi_n is monic of degree phi(n), and the product of
    Phi_d over the divisors d of n is x^n - 1."""
    for n in range(1, 61):
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        poly = cyclotomic_polynomial(n)
        assert len(poly) == phi + 1 and poly[-1] == 1
        assert euler_phi(n) == phi
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                factor = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(factor) - 1)
                for i, u in enumerate(prod):
                    for j, v in enumerate(factor):
                        out[i + j] += u * v
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


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


@pytest.mark.parametrize("build", [
    lambda: root_of_unity(-4, 1), lambda: root_of_unity(0, 1),
    lambda: root_of_unity(8, 1, order=0), lambda: root_of_unity(8, 1, order=-8),
    lambda: Cyclo(-3, [1]), lambda: Cyclo(0, [1]),
    lambda: Cyclo.from_rational(1, 0), lambda: Cyclo.from_poly(-8, [0, 1])],
    ids=["n=-4", "n=0", "order=0", "order=-8", "Cyclo(-3)", "Cyclo(0)",
         "from_rational", "from_poly"])
def test_orders_below_one_are_refused(build):
    """A root of unity's n and a cyclotomic order are at least 1."""
    with pytest.raises(ValueError, match="at least 1"):
        build()
    assert root_of_unity(1, 5) == 1 and Cyclo(1, [F(2)]) == 2


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


def test_cyclo_divided_by_a_rational():
    z = root_of_unity(8, 1, order=8)
    assert z / 3 == z * F(1, 3)
    assert (z / F(-2, 5)).coeffs == (0, F(-5, 2), 0, 0)
    assert ((z + 1) / 2) * 2 == z + 1
    for zero in (0, F(0)):
        with pytest.raises(DivisionByZero):
            z / zero


def test_irrational_cyclo_repr():
    z = root_of_unity(8, 1, order=8)
    assert repr(z) == "Cyclo(8: 1*z^1)"
    assert repr(F(1, 2) - 3 * z * z * z) == "Cyclo(8: 1/2 + -3*z^3)"
    assert repr(z * z * z * z) == "Cyclo(8, -1)"


def test_cyclo_rational_roundtrip():
    c = Cyclo.from_rational(F(-7, 3), 24)
    assert c.as_rational() == F(-7, 3)
    assert c == F(-7, 3)
    assert (c - c).as_rational() == 0


def test_cyclo_keeps_fraction_components():
    fracs = [F(k, 7) for k in range(8)]
    c = Cyclo(24, fracs)
    assert all(c.coeffs[i] is fracs[i] for i in range(8))
    assert Cyclo(24, range(8)).coeffs == tuple(F(k) for k in range(8))
    assert all(type(x) is F for x in Cyclo(24, range(8)).coeffs)
    with pytest.raises(ValueError):
        Cyclo(24, fracs[:7])


def test_cyclo_promotion():
    z8 = root_of_unity(8, 1, order=8)
    z24 = z8.promote(24)
    assert z24 == root_of_unity(8, 1, order=24)
    with pytest.raises(IncompatibleOrder):
        z8.promote(20)


def test_equal_cyclos_hash_equal_across_orders():
    """A value hashes the same in every Q(zeta_N) holding it, and is the
    same value of a reference series; a rational value hashes as itself."""
    rng = random.Random(17)
    for _ in range(300):
        order = rng.randint(1, 24)
        a = Cyclo(order, [F(rng.randint(-9, 9), rng.randint(1, 5))
                          if rng.random() < 0.6 else 0
                          for _ in range(euler_phi(order))])
        for k in (2, 3, 5, 6, 10):
            b = a.promote(k * order)
            assert a == b and hash(a) == hash(b)
        r = a.as_rational()
        assert r is None or hash(a) == hash(r)
    z8, z24 = root_of_unity(8, 1, order=8), root_of_unity(8, 1, order=24)
    assert z8 == z24 and len({z8, z24}) == 1
    s8, s24 = (CycloSeries(1, {0: F(1), 1: z}, None) for z in (z8, z24))
    assert s8.terms == s24.terms and (s8 - s24).is_zero()


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


def _component(rng, big):
    if big:
        return F(rng.choice([-1, 1]) * rng.getrandbits(rng.randint(65, 130)),
                 rng.choice([1, 3, 8, 2 ** 67 + 1]))
    return F(rng.randint(-9, 9), rng.choice([1, 2, 5, 12]))


@st.composite
def cyclo_operands(draw):
    """(order, a, b, poly): two elements of Q(zeta_order), dense or sparse,
    and a polynomial in zeta of any degree below three times the order."""
    order = draw(st.sampled_from([8, 12, 24, 48]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    big = draw(st.booleans())

    def values(count):
        density = rng.choice([0.15, 0.5, 1.0])
        return [_component(rng, big) if rng.random() < density else 0
                for _ in range(count)]
    ph = euler_phi(order)
    return (order, Cyclo(order, values(ph)), Cyclo(order, values(ph)),
            values(rng.randint(0, 3 * order)))


@settings(max_examples=200, deadline=None)
@given(cyclo_operands())
def test_cyclo_product_and_reduction_match_oracle(args):
    """The integer reduction modulo Phi_N against the Fraction power table."""
    order, a, b, poly = args
    assert (a * b).coeffs == cyclo_mul(a, b).coeffs
    assert (a * b).order == order
    assert Cyclo.from_poly(order, poly).coeffs == \
        cyclo_from_poly(order, poly).coeffs


@pytest.mark.parametrize("order", [1, 2, 3, 5, 7, 9, 12, 15, 16, 24, 30, 48])
def test_cyclo_inverse_matches_oracle(order):
    """a * a.inverse() is 1 by the Fraction oracle product, for dense and
    sparse elements with small or 65-130-bit components; zero has no
    inverse."""
    rng = random.Random(order)
    for trial in range(40):
        density = rng.choice([0.15, 0.5, 1.0])
        a = Cyclo(order, [_component(rng, trial % 2) if rng.random() < density
                          else 0 for _ in range(euler_phi(order))])
        if a:
            assert cyclo_mul(a, a.inverse()) == Cyclo.from_rational(1, order)
    with pytest.raises(DivisionByZero):
        Cyclo.from_rational(0, order).inverse()
