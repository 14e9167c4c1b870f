"""Exact scalar arithmetic: rationals and cyclotomic numbers.

Every series coefficient in this package is either a ``fractions.Fraction``
or a :class:`Cyclo`, an element of the cyclotomic field Q(zeta_N) stored as
a polynomial in zeta_N reduced modulo the N-th cyclotomic polynomial.  The
default ambient order is N = 24, which contains every root of unity needed
by the in-scope identities (zeta_8, zeta_24, i, sqrt(i)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

DEFAULT_ORDER = 24

class DivisionByZero(ZeroDivisionError):
    pass


class OrderMismatch(ValueError):
    pass


class IncompatibleOrder(ValueError):
    pass


def euler_phi(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        result *= m - 1
    return result


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Exact division of integer/rational coefficient polynomials."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            c = Fraction(c) / den[-1]
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and not num[-1]:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not r, "cyclotomic division must be exact"
            poly = q
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """Reduction of zeta_n^k, 0 <= k < n, to the canonical basis."""
    ph = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    cur = [Fraction(1)] + [Fraction(0)] * (ph - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        nxt = [Fraction(0)] * (ph + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = c
        top = nxt.pop()
        if top:
            for i in range(ph):
                nxt[i] -= top * mod[i]
        cur = nxt
    return tuple(rows)


class Cyclo:
    """Element of Q(zeta_N) in the basis 1, zeta, ..., zeta^(phi(N)-1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        ph = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != ph:
            raise ValueError(f"need {ph} coefficients for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Cyclo values are immutable")

    @staticmethod
    def from_rational(x, order: int = DEFAULT_ORDER) -> "Cyclo":
        ph = euler_phi(order)
        return Cyclo(order, [Fraction(x)] + [0] * (ph - 1))

    @staticmethod
    def from_poly(order: int, poly) -> "Cyclo":
        """Build from arbitrary-degree polynomial in zeta_order."""
        table = _power_table(order)
        ph = euler_phi(order)
        acc = [Fraction(0)] * ph
        for k, c in enumerate(poly):
            if c:
                row = table[k % order]
                c = Fraction(c)
                for i in range(ph):
                    if row[i]:
                        acc[i] += c * row[i]
        return Cyclo(order, acc)

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order:
            raise IncompatibleOrder(
                f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        poly = [0] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return Cyclo.from_poly(order, poly)

    def _pair(self, other):
        if isinstance(other, Cyclo):
            if other.order == self.order:
                return self, other
            n = self.order * other.order // gcd(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclo.from_rational(other, self.order)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return Cyclo(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return Cyclo(self.order, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyclo.from_poly(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self:
            raise DivisionByZero("inverse of zero cyclotomic element")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = mod, [Fraction(c) for c in self.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = 1 / r1[0]
                return Cyclo.from_poly(self.order, [c * inv for c in s1])
            q, r = _poly_divmod(r0, r1)
            s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s[i + j] -= qi * sj
            while s and not s[-1]:
                s.pop()
            r0, s0, r1, s1 = r1, s1, r, s
            if not r1:
                raise DivisionByZero("element not invertible")  # pragma: no cover

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self * (Fraction(1) / Fraction(other))
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyclo.from_rational(other, self.order) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if isinstance(other, Cyclo):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        r = self.as_rational()
        if r is not None:
            return hash(r)
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def as_rational(self):
        """Return self as a Fraction when it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"Cyclo({self.order}, {r})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else f"{c}")
        return f"Cyclo({self.order}: " + " + ".join(terms) + ")"


def root_of_unity(n: int, k: int, order: int | None = None) -> Cyclo:
    """zeta_n^k as an element of Q(zeta_order); n must divide order."""
    if order is None:
        order = n * DEFAULT_ORDER // gcd(n, DEFAULT_ORDER)
    if order % n:
        raise IncompatibleOrder(f"{n} does not divide ambient order {order}")
    e = (k * (order // n)) % order
    poly = [0] * (e + 1)
    poly[e] = 1
    return Cyclo.from_poly(order, poly)


def unity(exponent) -> "Fraction | Cyclo":
    """exp(2*pi*i*exponent) for rational exponent, demoted to Q if possible."""
    e = Fraction(exponent) % 1
    if e == 0:
        return Fraction(1)
    if e == Fraction(1, 2):
        return Fraction(-1)
    return root_of_unity(e.denominator, e.numerator)


def as_rational(x):
    """Demote a scalar to Fraction when possible, else return None."""
    if isinstance(x, Cyclo):
        return x.as_rational()
    return Fraction(x)


def rat_arith(a, b, op: str) -> Fraction:
    """Exact rational arithmetic; op in {add, sub, mul, div}."""
    a, b = Fraction(a), Fraction(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise DivisionByZero("rational division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


def cyclo_arith(a: Cyclo, b: Cyclo, op: str) -> Cyclo:
    """Exact field arithmetic in Q(zeta_N); both operands of the same order."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise DivisionByZero("cyclotomic division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or bare 'n'."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    """Serialize as 'num/den', or bare 'n' for integers."""
    return str(Fraction(x))
