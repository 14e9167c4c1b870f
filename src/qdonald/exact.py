"""Exact scalar arithmetic and the integer polynomial kernel.

Every series in this package stores integers over one denominator.  A
:class:`Cyclo` is a scalar of the cyclotomic field Q(zeta_N), stored as a
polynomial in zeta_N reduced modulo the N-th cyclotomic polynomial; no
series holds one, and the Q(zeta) identities of the paper (the zeta_8
twists of Q+ and its S-transform, Zwegers' mu at rational characteristics)
are checked with it by the test oracles.  The default ambient order is
N = 24, which contains zeta_8, zeta_24, i and sqrt(i).  The package does
not re-export these Q(zeta_N) names; they are reached as qdonald.exact.*.

Every integer polynomial product and power series inverse of the package,
the series ring's and ``Cyclo``'s alike, runs on one of the two entries of
the integer kernel below: ``int_product(x, y, n)``, the first n coefficients
of x * y, and ``int_reciprocal(u, n)``, the first n coefficients of 1 / u
as ``(nums, den)`` in lowest terms with den > 0.  Both follow one shape
rule: when the gcd g of the indices of the nonzero terms is 2 or more, the
entry works on ``v[::g]`` and spreads the result back; then the product
loops over the nonzero pairs or makes one Kronecker multiply, and the
inverse runs its recurrence over the nonzero terms of the divisor.  A
``Cyclo`` product is reduced modulo Phi_N by monic division, and an inverse
is the product of the other Galois conjugates over the rational norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

DEFAULT_ORDER = 24
_ZERO = Fraction(0)


class DivisionByZero(ZeroDivisionError):
    pass


class IncompatibleOrder(ValueError):
    pass


# ---------------------------------------------------------------------------
# the integer polynomial kernel.  Each entry first steps down to the
# sublattice that the nonzero terms of its operands share, as a ramified
# series read on a finer grid does.  A long dense product is one big-int
# multiply by Kronecker substitution (Harvey, arXiv:0712.4046).

# An integer product loops over the nonzero pairs while their count is at
# most this many times the number of Kronecker slots (both operands plus the
# output); past that, one big-int multiply is faster.
_SCHOOLBOOK_PAIRS_PER_SLOT = 4


def int_product(x, y, n) -> list:
    """The first n coefficients of the product of integer vectors x and y."""
    ix = [i for i, v in enumerate(x) if v]
    iy = [j for j, v in enumerate(y) if v]
    g = gcd(*ix, *iy)
    if g > 1:
        return _spread(int_product(x[::g], y[::g], len(range(0, n, g))), g, n)
    slots = len(x) + len(y) + n
    dense = len(ix) * len(iy) > _SCHOOLBOOK_PAIRS_PER_SLOT * slots
    return (_kronecker if dense else _pairs)(x, y, n, ix, iy)


def int_reciprocal(u, n) -> tuple:
    """``(nums, den)`` with 1 / (u_0 + u_1 q + ...) = sum nums[m] q^m / den
    + O(q^n) for integer u, u_0 != 0, in lowest terms with den > 0.

    The integers V_0 = 1, V_m = -sum_k u_k u_0^(k-1) V_(m-k) over the
    nonzero u_k give 1 / u = sum V_m q^m / u_0^(m+1), which is nums[m] =
    V_m u_0^(n-1-m) over u_0^n before the sign and the gcd are taken out.
    """
    iu = [k for k, v in enumerate(u) if v]
    g = gcd(*iu)
    if g > 1:
        nums, den = int_reciprocal(u[::g], len(range(0, n, g)))
        return _spread(nums, g, n), den
    u0 = u[0]
    steps = [(k, u[k] * u0 ** (k - 1)) for k in iu[1:]]
    vs = [1] + [0] * (n - 1)
    for m in range(1, n):
        acc = 0
        for k, w in steps:
            if k > m:
                break
            acc += w * vs[m - k]
        vs[m] = -acc
    nums, den = [], 1
    for v in reversed(vs):
        nums.append(v * den)
        den *= u0
    if den < 0:
        nums, den = [-v for v in nums], -den
    c = gcd(den, *nums)  # from the highest term, where u_0 divides least
    nums.reverse()
    if c > 1:
        nums, den = [v // c for v in nums], den // c
    return nums, den


def _spread(vals, g, n) -> list:
    """vals at the indices 0, g, 2g, ... of n zeros."""
    out = [0] * n
    out[::g] = vals
    return out


def _pairs(x, y, n, ix, iy) -> list:
    """The first n coefficients of x * y, whose nonzero terms sit at the
    indices ix and iy, by a loop over the nonzero pairs."""
    ny = [(j, y[j]) for j in iy]
    out = [0] * n
    for i in ix:
        u, top = x[i], n - i
        for j, v in ny:
            if j >= top:
                break
            out[i + j] += u * v
    return out


def _kronecker(x, y, n, ix, iy) -> list:
    """The first n coefficients of x * y, whose nonzero terms sit at the
    indices ix and iy, by one big-int multiply.

    Each vector is packed into an integer with one slot of k whole bytes
    per coefficient, wide enough that no product coefficient c (a sum of at
    most min(len(ix), len(iy)) products) reaches half = 256^k / 2 in size.
    The product plus the bias integer of n slots holds the unsigned field
    c + half in each of its low n slots, which reads back as one int minus
    half.
    """
    bound = max(map(abs, x)) * max(map(abs, y)) * min(len(ix), len(iy))
    k = (bound.bit_length() + 9) // 8
    half = 1 << (8 * k - 1)
    low = (_pack(x, k) * _pack(y, k) + _bias(n, k)) & ((1 << (8 * k * n)) - 1)
    buf = low.to_bytes(k * n, "little")
    from_bytes = int.from_bytes
    return [from_bytes(buf[j:j + k], "little") - half
            for j in range(0, k * n, k)]


def _bias(n, k) -> int:
    """half = 256^k / 2 in each of n slots of k bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack(x, k) -> int:
    """sum x[i] * 256^(k i) for signed x[i] with |x[i]| < 256^k / 2: the
    unsigned fields x[i] + 256^k / 2, joined, minus the bias integer."""
    half = 1 << (8 * k - 1)
    return int.from_bytes(b"".join((v + half).to_bytes(k, "little")
                                   for v in x), "little") - _bias(len(x), k)


def _monic_divmod(num, den) -> tuple[list, list]:
    """``(q, r)`` with ``num = q den + r`` and ``len(r) < len(den)``, for
    integer polynomials (low to high) and a monic ``den``."""
    d = len(den) - 1
    r = list(num)
    tail = [(j, c) for j, c in enumerate(den[:-1]) if c]
    q = [0] * (len(r) - d)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d]
        if c:
            for j, m in tail:
                r[i + j] -= c * m
    del r[d:]
    return q, r


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (low to high) of the n-th cyclotomic polynomial: x^n - 1
    divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, r = _monic_divmod(poly, cyclotomic_polynomial(d))
            assert not any(r), "cyclotomic division must be exact"
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the degree of the n-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(n)) - 1


def reduce_ints(n: int, poly) -> list:
    """The phi(n) integer components of sum poly[k] zeta_n^k, for integer
    poly of any length: its remainder modulo the monic integer Phi_n."""
    r = _monic_divmod(poly, cyclotomic_polynomial(n))[1]
    return r + [0] * (euler_phi(n) - len(r))


def _mul_mod(n: int, x, y) -> list:
    """x * y reduced modulo Phi_n, for integer polynomials x and y."""
    return reduce_ints(n, int_product(x, y, len(x) + len(y) - 1))


def clear(values):
    """``(ints, den)`` with ``values[i] == ints[i] / den`` for rational values,
    ``den`` their least common denominator."""
    den = lcm(*{v.denominator for v in values})
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def from_ints(ints, den) -> list:
    """The Fractions ``ints[i] / den``; zeros are the shared zero."""
    if den == 1:
        return [Fraction(v) if v else _ZERO for v in ints]
    return [Fraction(v, den) if v else _ZERO for v in ints]


class Cyclo:
    """Element of Q(zeta_N) in the basis 1, zeta, ..., zeta^(phi(N)-1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError(f"a cyclotomic order must be at least 1, "
                             f"got {order}")
        ph = euler_phi(order)
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(coeffs) != ph:
            raise ValueError(f"need {ph} coefficients for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Cyclo values are immutable")

    @staticmethod
    def from_rational(x, order: int = DEFAULT_ORDER) -> "Cyclo":
        return Cyclo(order, [Fraction(x)] + [0] * (euler_phi(order) - 1))

    @staticmethod
    def from_poly(order: int, poly) -> "Cyclo":
        """Build from arbitrary-degree rational polynomial in zeta_order."""
        ints, den = clear(poly)
        return Cyclo(order, from_ints(reduce_ints(order, ints), den))

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order:
            raise IncompatibleOrder(
                f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        poly = [0] * (step * (len(self.coeffs) - 1) + 1)
        poly[::step] = self.coeffs
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
        (x, dx), (y, dy) = clear(a.coeffs), clear(b.coeffs)
        return Cyclo(a.order, from_ints(_mul_mod(a.order, x, y), dx * dy))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse: the product P of the conjugates sigma_k(self) over
        1 < k < N with gcd(k, N) = 1, divided by the norm self * P, which is
        rational.  sigma_k maps zeta to zeta^k."""
        if not self:
            raise DivisionByZero("inverse of zero cyclotomic element")
        n = self.order
        x, den = clear(self.coeffs)
        conj = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                spread = [0] * (k * (len(x) - 1) + 1)
                spread[::k] = x
                conj = _mul_mod(n, conj, reduce_ints(n, spread))
        norm = _mul_mod(n, x, conj)[0]
        return Cyclo(n, from_ints([den * v for v in conj], norm))

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
        """The hash of the mean of the Galois conjugates, which no embedding
        Q(zeta_N) -> Q(zeta_M) changes, so a rational value hashes as
        itself.  zeta_N^j has mean mu(m) / phi(m), m = N / gcd(j, N), and
        mu(m) is minus the next-to-top coefficient of Phi_m."""
        mean = _ZERO
        for j, c in enumerate(self.coeffs):
            if c:
                m = self.order // gcd(j, self.order)
                mean += c * Fraction(-cyclotomic_polynomial(m)[-2],
                                     euler_phi(m))
        return hash(mean)

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
    if n < 1 or order < 1:
        raise ValueError(f"orders must be at least 1, got n = {n} and "
                         f"order = {order}")
    if order % n:
        raise IncompatibleOrder(f"{n} does not divide ambient order {order}")
    e = (k * (order // n)) % order
    return Cyclo.from_poly(order, [0] * e + [1])


def unity(exponent) -> "Fraction | Cyclo":
    """exp(2*pi*i*exponent) for rational exponent, demoted to Q if possible."""
    e = Fraction(exponent) % 1
    if e == 0:
        return Fraction(1)
    if e == Fraction(1, 2):
        return Fraction(-1)
    return root_of_unity(e.denominator, e.numerator)
