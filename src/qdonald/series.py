"""Truncated ramified Laurent series with exact coefficients.

A :class:`QSeries` stores coefficients for exponents m/ram with integer m in
the window [lead, prec); everything below ``lead`` is exactly zero and
everything at or above ``prec`` is unknown.  ``prec is None`` marks an exact
series (a Laurent polynomial, known everywhere).  A series is immutable,
which is what makes memoizing series constructors safe.

Every series is rational: one integer vector over one denominator.  The
coefficient at exponent (lead + i)/ram is ``nums[i] / den``, with ``den``
a positive int, ``gcd(den, *nums) == 1`` and no leading zero.  Every ring
operation (products, inverses, powers, sums and rational scalars), every
window or grid change and ``qdq`` run on those integers, and each result is
reduced once.  ``coeffs``, the tuple of Fraction coefficients, is a view
built on its first read.  Products and inverses convolve those integers on
the two entries of the integer polynomial kernel of :mod:`qdonald.exact`,
``int_product`` and ``int_reciprocal``, which step down to the sublattice
of the nonzero terms first; ``QSeries`` keeps only the window rules and
one gcd that scales a reciprocal by the divisor's denominator.

A coefficient that is not an ``int`` or a ``Fraction`` raises
:class:`NotRational` where a series is built; so does a cyclotomic scalar
of :mod:`qdonald.exact`, even a zero or rational one.  ``shift_tau``
multiplies each term by 1 or -1 and raises :class:`NotRational` where tau ->
tau + k twists a nonzero term by another root of unity.  Series over
Q(zeta) are a test reference (``tests/oracles.py``), not a production path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import islice
from math import gcd, lcm
from operator import add

from .exact import clear, int_product, int_reciprocal


class NotInvertible(ZeroDivisionError):
    pass


class PrecisionUnderflow(ArithmeticError):
    pass


class InsufficientPrecision(ArithmeticError):
    pass


class IrrepresentableExponent(ValueError):
    pass


class NotRational(TypeError):
    pass


_ZERO = Fraction(0)


def memo(fn):
    """Memoize a series constructor whose last argument is a precision.

    One entry per value of the other arguments holds the result at the
    highest precision asked for; a higher request replaces it, and a lower
    one gets its ``truncate``.  Every memoized constructor returns one
    series, and at a precision p what it returns at any higher one,
    truncated at p.  An int and an equal Fraction precision share the
    entry.  ``fn.entries`` is the cache; ``fn.clear()`` empties it.
    """
    entries = {}

    @wraps(fn)
    def call(*args):
        key, prec = args[:-1], Fraction(args[-1])
        held = entries.get(key)
        if held is None or held[0] < prec:
            held = entries[key] = (prec, fn(*key, prec))
        if held[0] == prec:
            return held[1]
        return held[1].truncate(prec)
    call.entries = entries
    call.clear = entries.clear
    return call


class QSeries:
    __slots__ = ("ram", "lead", "prec", "nums", "den", "_coeffs")

    def __init__(self, ram: int, lead: int, coeffs, prec):
        """From int or Fraction coefficients on the window [lead, prec), in
        w-units (w = q^(1/ram)), exclusive."""
        coeffs = list(coeffs)
        if prec is not None and len(coeffs) != max(prec - lead, 0):
            raise ValueError("coefficient window does not match [lead, prec)")
        self._set(ram, lead, *_rational(coeffs), prec)

    def _set(self, ram, lead, vals, den, prec):
        """Normalize and store integers over ``den`` in lowest terms: strip
        known-zero leading terms; exact series also strip trailing zeros."""
        top = len(vals)
        i = 0
        while i < top and not vals[i]:
            i += 1
        if prec is None:
            while top > i and not vals[top - 1]:
                top -= 1
        if i == top:
            vals, den = (), 1
            lead = prec if prec is not None else 0
        else:
            if i or top < len(vals):
                vals = vals[i:top]
            lead += i
        put = object.__setattr__
        put(self, "ram", ram)
        put(self, "lead", lead)
        put(self, "prec", prec)
        put(self, "nums", tuple(vals))
        put(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries values are immutable")

    @property
    def coeffs(self) -> tuple:
        """The Fraction coefficients on [lead, lead + len(nums)), built on
        the first read."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            view = tuple(Fraction(v, den) if v else _ZERO for v in self.nums)
            object.__setattr__(self, "_coeffs", view)
            return view

    # ------------------------------------------------------------------
    # constructors
    @staticmethod
    def zero(prec=None, ram: int = 1) -> "QSeries":
        w = None if prec is None else _to_w(prec, ram, up=False)
        return _make(ram, 0, (), 1, w)

    @staticmethod
    def one() -> "QSeries":
        return _make(1, 0, (1,), 1, None)

    @staticmethod
    def monomial(exponent, coeff=1) -> "QSeries":
        """Exact c*q^exponent for rational exponent."""
        e = Fraction(exponent)
        return QSeries(e.denominator, e.numerator, [coeff], None)

    @staticmethod
    def from_terms(terms, prec, ram: int = 1) -> "QSeries":
        """Build from {w_exponent: scalar}; prec in q-units (None = exact).

        The precision claim rounds down to the grid: the window never
        extends past the exponents the caller actually filled in.
        """
        w = None if prec is None else _to_w(prec, ram, up=False)
        if w is not None:
            terms = {m: c for m, c in terms.items() if m < w}
        if not terms:
            return _make(ram, 0, (), 1, w)
        lo = min(terms)
        vals = [0] * ((max(terms) + 1 if w is None else w) - lo)
        for m, c in terms.items():
            vals[m - lo] = c
        return _make(ram, lo, *_rational(vals), w)

    @staticmethod
    def from_numerators(ram: int, lead: int, nums, den: int = 1,
                        prec=None) -> "QSeries":
        """The series with coefficient nums[i] / den at w^(lead+i), w =
        q^(1/ram), on the window [lead, prec) in w-units; den > 0."""
        nums = list(nums)
        if prec is not None and len(nums) != max(prec - lead, 0):
            raise ValueError("coefficient window does not match [lead, prec)")
        if den <= 0:
            raise ValueError("the common denominator must be positive")
        return _make(ram, lead, *_lowest(nums, den), prec)

    # ------------------------------------------------------------------
    # inspectors
    def is_zero(self) -> bool:
        return not self.nums

    def valuation(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero series has no valuation")
        return Fraction(self.lead, self.ram)

    def prec_q(self):
        """Known-precision bound in q-units (None for exact series)."""
        return None if self.prec is None else Fraction(self.prec, self.ram)

    def coeff(self, exponent):
        """Exact coefficient at rational q-exponent."""
        e = Fraction(exponent) * self.ram
        if e.denominator != 1:
            raise IrrepresentableExponent(
                f"exponent {Fraction(exponent)} not on the 1/{self.ram} grid")
        m = e.numerator
        if self.prec is not None and m >= self.prec:
            raise InsufficientPrecision(
                f"coefficient at {Fraction(exponent)} beyond precision "
                f"{Fraction(self.prec, self.ram)}")
        i = m - self.lead
        if i < 0 or i >= len(self.nums):
            return _ZERO
        v = self.nums[i]
        return Fraction(v, self.den) if v else _ZERO

    def constant_term(self):
        """Coefficient of q^0; a hard error when 0 is outside the window."""
        if self.prec is not None and self.prec <= 0:
            raise InsufficientPrecision("window does not reach exponent 0")
        return self.coeff(0)

    def terms(self):
        """Iterate (q-exponent, coefficient) over nonzero stored terms."""
        ram, lead, den = self.ram, self.lead, self.den
        for i, c in enumerate(self.nums):
            if c:
                yield Fraction(lead + i, ram), Fraction(c, den)

    # ------------------------------------------------------------------
    # ramification handling
    def to_ram(self, ram: int) -> "QSeries":
        if ram == self.ram:
            return self
        if ram % self.ram:
            raise ValueError(f"{self.ram} does not divide {ram}")
        return self._spread(ram // self.ram, ram)

    def _spread(self, s: int, ram: int) -> "QSeries":
        """Stretch every w-exponent by s and read the result on the 1/ram
        grid, padding the window with zeros up to the stretched precision."""
        nums = self.nums
        vals = [0] * (s * (len(nums) - 1) + 1) if nums else []
        vals[::s] = nums
        lead = self.lead * s
        prec = None if self.prec is None else self.prec * s
        if prec is not None and vals:
            vals += [0] * (prec - lead - len(vals))
        return _make(ram, lead, vals, self.den, prec)

    def reduce_ram(self) -> "QSeries":
        """Shrink the ramification when all nonzero exponents allow it.  With
        no known nonzero term the window's bound must lie on the coarser
        grid, so that the window claims no exponent it did not cover."""
        g = self.ram
        if not self.nums and self.prec is not None:
            g = gcd(g, self.prec)
        for i, c in enumerate(self.nums):
            if c:
                g = gcd(g, self.lead + i)
                if g == 1:
                    return self
        if g == 1:
            return self
        prec = None if self.prec is None else (self.prec + g - 1) // g
        # the lead is a nonzero exponent, so a multiple of g
        return _make(self.ram // g, self.lead // g, self.nums[::g], self.den,
                     prec)

    def _align(self, other: "QSeries"):
        ram = lcm(self.ram, other.ram)
        return self.to_ram(ram), other.to_ram(ram)

    # ------------------------------------------------------------------
    # ring operations
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _make(1, 0, (other.numerator,), other.denominator, None)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        precs = [p for p in (a.prec, b.prec) if p is not None]
        prec = min(precs) if precs else None
        parts = [s for s in (a, b) if s.nums]
        if not parts:
            return _make(a.ram, 0, (), 1, prec)
        lo = min(s.lead for s in parts)
        hi = prec
        if hi is None:
            hi = max(s.lead + len(s.nums) for s in parts)
        den = lcm(a.den, b.den)
        out = [0] * max(hi - lo, 0)
        for s in parts:
            n = min(len(s.nums), hi - s.lead)
            if n > 0:
                f, i = den // s.den, s.lead - lo
                vals = s.nums[:n] if f == 1 else [v * f for v in s.nums[:n]]
                out[i:i + n] = map(add, out[i:i + n], vals)
        return _make(a.ram, lo, *_lowest(out, den), prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _make(self.ram, self.lead, [-v for v in self.nums], self.den,
                     self.prec)

    def __sub__(self, other):
        if not isinstance(other, (QSeries, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        if not a.nums or not b.nums:
            # zero times anything: known zero below the end of the zero's
            # window plus the other factor's lead, which for an empty window
            # is its end, or 0 when exact
            precs = [z.prec + s.lead for z, s in ((a, b), (b, a))
                     if not z.nums and z.prec is not None]
            prec = min(precs) if precs else None
            return _make(a.ram, 0, (), 1, prec)
        lead = a.lead + b.lead
        cands = []
        if a.prec is not None:
            cands.append(a.prec + b.lead)
        if b.prec is not None:
            cands.append(b.prec + a.lead)
        prec = min(cands) if cands else None
        if prec is not None and prec <= lead:
            raise PrecisionUnderflow("product has an empty known window")
        n = (prec if prec is not None
             else lead + len(a.nums) + len(b.nums) - 1) - lead
        prod = int_product(a.nums[:n], b.nums[:n], n)
        return _make(a.ram, lead, *_lowest(prod, a.den * b.den), prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _scaled(self, num: int, den: int) -> "QSeries":
        """self * num/den for num/den in lowest terms (den > 0); the two
        gcds keep the result in lowest terms without a gcd over the
        products."""
        g, h = gcd(num, self.den), gcd(den, *self.nums)
        f = num // g
        nums = self.nums if f == 1 and h == 1 else \
            [v // h * f for v in self.nums]
        return _make(self.ram, self.lead, nums, self.den // g * (den // h),
                     self.prec)

    def inverse(self, prec=None) -> "QSeries":
        """Multiplicative inverse.  An exact series has an infinite inverse,
        so it needs ``prec``: the q-exponent below which the result is known.
        A truncated series ignores ``prec``; its own window sets the result's.
        """
        if not self.nums:
            raise NotInvertible("inverse of a zero series")
        if self.prec is None:
            if prec is None:
                raise ValueError("inverting an exact series needs a precision")
            n = _to_w(prec, self.ram) + self.lead
            if n <= 0:
                raise PrecisionUnderflow("inverse has an empty known window")
        else:
            n = self.prec - self.lead
        nums, d = int_reciprocal(self.nums[:n], n)
        # 1 / (u / den) = den nums / d, and gcd(d, *nums) = 1
        g = gcd(self.den, d)
        if self.den > g:
            nums = [v * (self.den // g) for v in nums]
        return _make(self.ram, -self.lead, nums, d // g, n - self.lead)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise NotInvertible("division by zero scalar")
            return self * (1 / Fraction(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.prec is None:
            if self.prec is None:
                raise ValueError("dividing exact by exact needs a precision; "
                                 "use .inverse(prec) explicitly")
            # unknowns of the numerator shift by the divisor's valuation; the
            # inverse is needed up to bound - val(self), and a zero numerator
            # needs only its first term
            bound = self.prec_q() - other.valuation()
            need = bound - self.valuation() if self.nums \
                else Fraction(1, other.ram) - other.valuation()
            return (self * other.inverse(need)).truncate(bound)
        return self * other.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return QSeries.one() if result is None else result

    # ------------------------------------------------------------------
    # operators beyond the ring structure
    def truncate(self, prec) -> "QSeries":
        """Restrict the known window to q-exponents below prec."""
        w = _to_w(prec, self.ram)
        if self.prec is not None and self.prec <= w:
            return self
        keep = max(w - self.lead, 0)
        nums, den = self.nums[:keep], self.den
        if keep < len(self.nums):
            nums, den = _lowest(nums, den)
        lead = min(self.lead, w)
        pad = w - lead - len(nums)
        if pad:
            nums = list(nums) + [0] * pad
        return _make(self.ram, lead, nums, den, w)

    def rescale(self, num: int, den: int = 1) -> "QSeries":
        """Argument rescaling tau -> (num/den) tau, i.e. q -> q^(num/den)."""
        if num <= 0 or den <= 0:
            raise ValueError("rescale factors must be positive")
        return self._spread(num, self.ram * den).reduce_ram()

    def shift_tau(self, k: int) -> "QSeries":
        """tau -> tau + k: multiply the w^m coefficient by zeta_ram^(k m),
        which must be 1 or -1 wherever the coefficient is nonzero."""
        if self.ram == 1 or k % self.ram == 0:
            return self
        ram, lead = self.ram, self.lead
        out = []
        for m, c in enumerate(self.nums, lead):
            t = k * m % ram
            if c and 2 * t == ram:
                c = -c
            elif c and t:
                raise NotRational(f"tau -> tau + {k} twists the term at "
                                  f"q^({Fraction(m, ram)}) by a root of unity")
            out.append(c)
        return _make(ram, lead, out, self.den, self.prec)

    def qdq(self, j: int = 1) -> "QSeries":
        """j-fold q d/dq: multiply the coefficient at exponent e by e^j."""
        if j < 0:
            raise ValueError("derivative order must be non-negative")
        if j == 0:
            return self
        ram, lead = self.ram, self.lead
        out = [v and v * (lead + i) ** j for i, v in enumerate(self.nums)]
        return _make(ram, lead, *_lowest(out, self.den * ram ** j), self.prec)

    def shift_exponent(self, delta) -> "QSeries":
        """Multiply by the exact monomial q^delta."""
        d = Fraction(delta)
        ram = lcm(self.ram, d.denominator)
        s = self.to_ram(ram)
        off = int(d * ram)
        prec = None if s.prec is None else s.prec + off
        return _make(ram, s.lead + off, s.nums, s.den, prec)

    # ------------------------------------------------------------------
    # comparisons and output
    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        return (a.lead, a.prec, a.den, a.nums) == \
            (b.lead, b.prec, b.den, b.nums)

    def __hash__(self):
        """The hash of the coarsest grid the series can be read on: ram,
        lead, prec and every nonzero offset over their gcd, with den and the
        integer at each offset (no Fraction is built), so that an equal
        series on a finer grid, equal in lowest terms, hashes equal."""
        offsets = [i for i, c in enumerate(self.nums) if c]
        g = gcd(self.ram, self.lead, self.prec or 0, *offsets)
        return hash((self.ram // g, self.lead // g,
                     None if self.prec is None else self.prec // g, self.den,
                     tuple((i // g, self.nums[i]) for i in offsets)))

    def to_text(self, max_terms: int = 12) -> str:
        """Render as 'q^(-1/8) * (1 + 28*q^(1/2) + ...)'."""
        if max_terms < 1:
            raise ValueError(f"max_terms must be at least 1, got {max_terms}")
        rest = self.terms()
        terms = list(islice(rest, max_terms))
        if not terms:
            return "0" if self.prec is None else "0 ..."
        val = terms[0][0]
        body = " ".join(_format_term(e - val, c, first=not i)
                        for i, (e, c) in enumerate(terms))
        if self.prec is not None or next(rest, None) is not None:
            body += " ..."
        if val == 0:
            return body if len(terms) == 1 and not body.startswith("(") \
                else f"({body})" if " " in body else body
        return f"{_format_monomial(val)} * ({body})"

    def to_json_dict(self) -> dict:
        """{"ram", "lead", "prec", "coeffs"}: coeffs lists [w-exponent,
        value] for the nonzero terms, a rational value as "n/d" or "n"."""
        entries = []
        den = self.den
        for m, c in enumerate(self.nums, self.lead):
            if c:  # as str(Fraction(c, den)) writes it
                g = gcd(c, den)
                entries.append([str(m), str(c // g) if g == den
                                else f"{c // g}/{den // g}"])
        return {"ram": self.ram, "lead": self.lead,
                "prec": self.prec, "coeffs": entries}

    def __repr__(self):
        return f"QSeries({self.to_text(6)})"


def factor_window(p, val, lead=None):
    """Where to build a factor of a product known below q^p, by the window
    rules of ``__mul__`` and ``inverse``: below p - val, for cofactors of
    valuation ``val`` or more; a divisor of valuation ``lead`` below p - val
    + 2 lead, and one q-step past its lead, so that it has an inverse."""
    p -= val
    return p if lead is None else max(p + 2 * lead, lead + 1)


def _make(ram: int, lead: int, vals, den, prec) -> QSeries:
    """A series from integers over ``den`` in lowest terms (see
    ``QSeries._set``)."""
    s = object.__new__(QSeries)
    s._set(ram, lead, vals, den, prec)
    return s


def _lowest(nums, den) -> tuple:
    """(nums, den) divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _rational(values) -> tuple:
    """``(ints, den)`` of int or Fraction values over their least common
    denominator; any other value raises NotRational."""
    for kind in set(map(type, values)):
        if not issubclass(kind, (int, Fraction)):
            raise NotRational(f"a series coefficient must be an int or a "
                              f"Fraction, not {kind.__name__}")
    return clear(values)


def _to_w(prec, ram: int, up: bool = True) -> int:
    """Precision in q-units -> exclusive w-unit bound on the ram grid.

    ``up`` rounds outward (for truncation targets, where the data exists);
    constructors claiming knowledge from supplied terms round down so the
    claim never exceeds what was filled in.
    """
    p = Fraction(prec) * ram
    if up:
        return -((-p.numerator) // p.denominator)
    return p.numerator // p.denominator


def _format_monomial(e: Fraction) -> str:
    if e == 1:
        return "q"
    if e.denominator == 1:
        return f"q^{e}" if e >= 0 else f"q^({e})"
    return f"q^({e})"


def _format_term(e: Fraction, c: Fraction, first: bool) -> str:
    neg = c < 0
    cs = str(-c if neg else c)
    if e == 0:
        core = cs
    else:
        mono = _format_monomial(e)
        core = mono if abs(c) == 1 else f"{cs}*{mono}"
    if first:
        return f"-{core}" if neg else core
    return f"- {core}" if neg else f"+ {core}"
