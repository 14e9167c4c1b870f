"""Truncated ramified Laurent series with exact coefficients.

A :class:`QSeries` stores coefficients for exponents m/ram with integer m in
the window [lead, prec); everything below ``lead`` is exactly zero and
everything at or above ``prec`` is unknown.  ``prec is None`` marks an exact
series (a Laurent polynomial, known everywhere).  Coefficients are Fractions
or :class:`~qdonald.exact.Cyclo` values; both are immutable, so series can be
shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, wraps
from math import gcd, lcm

from .exact import Cyclo, as_rational, root_of_unity


class NotInvertible(ZeroDivisionError):
    pass


class PrecisionUnderflow(ArithmeticError):
    pass


class InsufficientPrecision(ArithmeticError):
    pass


class IrrepresentableExponent(ValueError):
    pass


_ZERO = Fraction(0)


def memo(fn):
    """Memoize a series constructor whose last argument is a precision.

    The precision is keyed as a Fraction so that an int and an equal
    Fraction share one entry: ``functools.cache`` keys a lone int argument
    by the int itself, which never matches the key of a Fraction.
    """
    cached = cache(fn)

    @wraps(fn)
    def call(*args):
        return cached(*args[:-1], Fraction(args[-1]))
    return call


class QSeries:
    __slots__ = ("ram", "lead", "prec", "coeffs")

    def __init__(self, ram: int, lead: int, coeffs, prec):
        """Normalize: strip known-zero leading terms; exact series also strip
        trailing zeros.  ``prec`` is in w-units (w = q^(1/ram)), exclusive."""
        coeffs = list(coeffs)
        if prec is not None and len(coeffs) != max(prec - lead, 0):
            raise ValueError("coefficient window does not match [lead, prec)")
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            lead += 1
        if prec is None:
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        if not coeffs:
            lead = prec if prec is not None else 0
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries values are immutable")

    # ------------------------------------------------------------------
    # constructors
    @staticmethod
    def zero(prec=None, ram: int = 1) -> "QSeries":
        w = None if prec is None else _to_w(prec, ram, up=False)
        return QSeries(ram, w if w is not None else 0, [], w)

    @staticmethod
    def one() -> "QSeries":
        return QSeries(1, 0, [Fraction(1)], None)

    @staticmethod
    def monomial(exponent, coeff=1) -> "QSeries":
        """Exact c*q^exponent for rational exponent."""
        e = Fraction(exponent)
        ram = e.denominator
        c = coeff if isinstance(coeff, Cyclo) else Fraction(coeff)
        return QSeries(ram, e.numerator, [c], None)

    @staticmethod
    def from_terms(terms, prec, ram: int = 1) -> "QSeries":
        """Build from {w_exponent: scalar}; prec in q-units (None = exact).

        The precision claim rounds down to the grid: the window never
        extends past the exponents the caller actually filled in.
        """
        w = None if prec is None else _to_w(prec, ram, up=False)
        if not terms:
            return QSeries.zero(prec, ram)
        lo = min(terms)
        hi = (max(terms) + 1) if w is None else w
        if w is not None:
            terms = {m: c for m, c in terms.items() if m < w}
            if not terms:
                return QSeries(ram, w, [], w)
            lo = min(terms)
        coeffs = [_ZERO] * (hi - lo)
        for m, c in terms.items():
            coeffs[m - lo] = c if isinstance(c, Cyclo) else Fraction(c)
        return QSeries(ram, lo, coeffs, w)

    # ------------------------------------------------------------------
    # inspectors
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.prec is None

    def valuation(self) -> Fraction:
        if not self.coeffs:
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
        if m < self.lead or m >= self.lead + len(self.coeffs):
            return _ZERO
        return self.coeffs[m - self.lead]

    def constant_term(self):
        """Coefficient of q^0; a hard error when 0 is outside the window."""
        if self.prec is not None and self.prec <= 0:
            raise InsufficientPrecision("window does not reach exponent 0")
        return self.coeff(0)

    def terms(self):
        """Iterate (q-exponent, coefficient) over nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.lead + i, self.ram), c

    def support_mod(self, modulus: Fraction) -> set:
        """Residues (q-exponents mod modulus) carrying nonzero terms."""
        return {e % modulus for e, _ in self.terms()}

    # ------------------------------------------------------------------
    # ramification handling
    def to_ram(self, ram: int) -> "QSeries":
        if ram == self.ram:
            return self
        if ram % self.ram:
            raise ValueError(f"{self.ram} does not divide {ram}")
        s = ram // self.ram
        coeffs = [_ZERO] * (s * (len(self.coeffs) - 1) + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            coeffs[s * i] = c
        lead = self.lead * s
        prec = None if self.prec is None else self.prec * s
        if prec is not None and coeffs:
            coeffs += [_ZERO] * (prec - lead - len(coeffs))
        return QSeries(ram, lead, coeffs, prec)

    def reduce_ram(self) -> "QSeries":
        """Shrink the ramification when all nonzero exponents allow it."""
        g = self.ram
        for i, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, self.lead + i)
                if g == 1:
                    return self
        if g == self.ram and self.ram == 1:
            return self
        if not self.coeffs:
            g = self.ram
        ram = self.ram // g
        lead = -((-self.lead) // g)
        prec = None if self.prec is None else (self.prec + g - 1) // g
        coeffs = []
        if self.coeffs:
            hi = prec if prec is not None else (self.lead + len(self.coeffs) - 1) // g + 1
            coeffs = [_ZERO] * (hi - lead)
            for i, c in enumerate(self.coeffs):
                if c:
                    coeffs[(self.lead + i) // g - lead] = c
        return QSeries(ram, lead, coeffs, prec)

    def _align(self, other: "QSeries"):
        ram = lcm(self.ram, other.ram)
        return self.to_ram(ram), other.to_ram(ram)

    # ------------------------------------------------------------------
    # ring operations
    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = _scalar_series(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        if a.is_zero() and not a.coeffs and a.prec is None:
            return b
        if b.is_zero() and not b.coeffs and b.prec is None:
            return a
        precs = [p for p in (a.prec, b.prec) if p is not None]
        prec = min(precs) if precs else None
        los = [s.lead for s in (a, b) if s.coeffs]
        if not los:
            return QSeries(a.ram, prec or 0, [], prec)
        lo = min(los)
        hi = prec
        if hi is None:
            hi = max(s.lead + len(s.coeffs) for s in (a, b) if s.coeffs)
        out = [_ZERO] * max(hi - lo, 0)
        for s in (a, b):
            for i, c in enumerate(s.coeffs):
                m = s.lead + i
                if m < hi and c:
                    out[m - lo] = out[m - lo] + c
        return QSeries(a.ram, lo, out, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return QSeries(self.ram, self.lead, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = _scalar_series(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                prec = self.prec_q()
                return QSeries.zero(prec, self.ram)
            return QSeries(self.ram, self.lead,
                           [c * other for c in self.coeffs], self.prec)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        if not a.coeffs or not b.coeffs:
            # zero times anything: known zero; precision from the zero window
            precs = []
            for z, s in ((a, b), (b, a)):
                if not z.coeffs and z.prec is not None:
                    precs.append(z.prec + (s.lead if s.coeffs else 0))
            if a.prec is None and b.prec is None:
                return QSeries(a.ram, 0, [], None)
            prec = min(precs) if precs else None
            return QSeries(a.ram, prec if prec is not None else 0, [], prec)
        lead = a.lead + b.lead
        cands = []
        if a.prec is not None:
            cands.append(a.prec + b.lead)
        if b.prec is not None:
            cands.append(b.prec + a.lead)
        prec = min(cands) if cands else None
        if prec is not None and prec <= lead:
            raise PrecisionUnderflow("product has an empty known window")
        hi = prec if prec is not None else lead + len(a.coeffs) + len(b.coeffs) - 1
        out = [_ZERO] * (hi - lead)
        # schoolbook convolution, skipping zero coefficients of the sparser side
        if sum(1 for c in a.coeffs if c) > sum(1 for c in b.coeffs if c):
            a, b = b, a
        nb = len(b.coeffs)
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            base = a.lead + i + b.lead - lead
            jmax = min(nb, hi - lead - base)
            for j in range(jmax):
                cb = b.coeffs[j]
                if cb:
                    out[base + j] = out[base + j] + ca * cb
        return QSeries(a.ram, lead, out, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self, prec=None) -> "QSeries":
        """Multiplicative inverse.  Exact series need an explicit target
        precision (q-units) since their inverses are genuinely infinite."""
        if not self.coeffs:
            raise NotInvertible("inverse of a zero series")
        if self.prec is None:
            if prec is None:
                raise ValueError("inverting an exact series needs a precision")
            rel = _to_w(prec, self.ram) + len(self.coeffs)
            u = self.coeffs + (_ZERO,) * max(rel - len(self.coeffs), 0)
        else:
            rel = self.prec - self.lead
            u = self.coeffs
        c0 = u[0]
        if isinstance(c0, Cyclo):
            inv0 = c0.inverse()
        else:
            if c0 == 0:
                raise NotInvertible("leading coefficient is zero")
            inv0 = 1 / c0
        out = [_ZERO] * rel
        out[0] = inv0
        n_u = len(u)
        for n in range(1, rel):
            acc = _ZERO
            for k in range(1, min(n, n_u - 1) + 1):
                uk = u[k]
                if uk:
                    o = out[n - k]
                    if o:
                        acc = acc + uk * o
            if acc:
                out[n] = -(inv0 * acc)
        lead = -self.lead
        prec = None if self.prec is None else self.prec - 2 * self.lead
        if prec is None:
            prec = lead + rel
        return QSeries(self.ram, lead, out, prec)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                raise NotInvertible("division by zero scalar")
            inv = other.inverse() if isinstance(other, Cyclo) else 1 / Fraction(other)
            return self * inv
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.prec is None:
            if self.prec is None:
                raise ValueError("dividing exact by exact needs a precision; "
                                 "use .inverse(prec) explicitly")
            # unknowns of the numerator shift by the divisor's valuation
            bound = self.prec_q() - other.valuation()
            rel = bound - (0 if self.is_zero() else self.valuation()) \
                + other.valuation()
            inv = other.inverse(max(rel, Fraction(1, other.ram)))
            return (self * inv).truncate(bound)
        return self * other.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ------------------------------------------------------------------
    # operators beyond the ring structure
    def truncate(self, prec) -> "QSeries":
        """Restrict the known window to q-exponents below prec."""
        w = _to_w(prec, self.ram)
        if self.prec is not None and self.prec <= w:
            return self
        coeffs = list(self.coeffs[:max(w - self.lead, 0)])
        lead = min(self.lead, w)
        coeffs += [_ZERO] * (w - lead - len(coeffs))
        return QSeries(self.ram, lead, coeffs, w)

    def rescale(self, num: int, den: int = 1) -> "QSeries":
        """Argument rescaling tau -> (num/den) tau, i.e. q -> q^(num/den)."""
        if num <= 0 or den <= 0:
            raise ValueError("rescale factors must be positive")
        ram = self.ram * den
        coeffs = []
        if self.coeffs:
            coeffs = [_ZERO] * (num * (len(self.coeffs) - 1) + 1)
            for i, c in enumerate(self.coeffs):
                coeffs[num * i] = c
        lead = self.lead * num
        prec = None if self.prec is None else self.prec * num
        if prec is not None and coeffs:
            coeffs += [_ZERO] * (prec - lead - len(coeffs))
        return QSeries(ram, lead, coeffs, prec).reduce_ram()

    def shift_tau(self, k: int) -> "QSeries":
        """tau -> tau + k: multiply the w^m coefficient by zeta_ram^(k m)."""
        if self.ram == 1 or k % self.ram == 0:
            return self
        out = []
        rational = True
        for i, c in enumerate(self.coeffs):
            if not c:
                out.append(c)
                continue
            tw = root_of_unity(self.ram, k * (self.lead + i))
            r = as_rational(tw)
            if r is not None:
                v = c * r
            else:
                v = tw * c
                rational = False
            out.append(v)
        if not rational:
            demoted, ok = [], True
            for c in out:
                r = as_rational(c) if isinstance(c, Cyclo) else c
                if r is None:
                    ok = False
                    break
                demoted.append(r)
            if ok:
                out = demoted
        return QSeries(self.ram, self.lead, out, self.prec)

    def qdq(self, j: int = 1) -> "QSeries":
        """j-fold q d/dq: multiply the coefficient at exponent e by e^j."""
        if j < 0:
            raise ValueError("derivative order must be non-negative")
        if j == 0:
            return self
        out = [c * Fraction(self.lead + i, self.ram) ** j if c else c
               for i, c in enumerate(self.coeffs)]
        return QSeries(self.ram, self.lead, out, self.prec)

    def shift_exponent(self, delta) -> "QSeries":
        """Multiply by the exact monomial q^delta."""
        d = Fraction(delta)
        ram = lcm(self.ram, d.denominator)
        s = self.to_ram(ram)
        off = int(d * ram)
        prec = None if s.prec is None else s.prec + off
        return QSeries(ram, s.lead + off, s.coeffs, prec)

    def map_coeffs(self, fn) -> "QSeries":
        return QSeries(self.ram, self.lead, [fn(c) for c in self.coeffs], self.prec)

    def demote(self) -> "QSeries":
        """Convert Cyclo coefficients that are rational back to Fraction."""
        out = []
        for c in self.coeffs:
            if isinstance(c, Cyclo):
                r = c.as_rational()
                out.append(r if r is not None else c)
            else:
                out.append(c)
        return QSeries(self.ram, self.lead, out, self.prec)

    def is_rational(self) -> bool:
        return all(not isinstance(c, Cyclo) or c.as_rational() is not None
                   for c in self.coeffs)

    # ------------------------------------------------------------------
    # comparisons and output
    def agrees_with(self, other: "QSeries") -> bool:
        """Equality of all coefficients on the joint known window."""
        d = self - other
        return d.is_zero()

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        return (a.lead, a.prec, a.coeffs) == (b.lead, b.prec, b.coeffs)

    def __hash__(self):
        return hash((self.ram, self.lead, self.prec, self.coeffs))

    def to_text(self, max_terms: int = 12) -> str:
        """Render as 'q^(-1/8) * (1 + 28*q^(1/2) + ...)'."""
        terms = list(self.terms())
        if not terms:
            return "0"
        val = terms[0][0]
        parts = []
        for e, c in terms[:max_terms]:
            parts.append(_format_term(e - val, c, first=not parts))
        body = " ".join(parts)
        if len(terms) > max_terms or self.prec is not None:
            body += " ..."
        if val == 0:
            return body if len(terms[:max_terms]) == 1 and not body.startswith("(") \
                else f"({body})" if " " in body else body
        return f"{_format_monomial(val)} * ({body})"

    def to_json_dict(self) -> dict:
        entries = []
        for i, c in enumerate(self.coeffs):
            if c:
                if isinstance(c, Cyclo):
                    entries.append([str(self.lead + i),
                                    {"zeta_order": c.order,
                                     "coeffs": [str(x) for x in c.coeffs]}])
                else:
                    entries.append([str(self.lead + i), str(c)])
        return {"ram": self.ram, "lead": self.lead,
                "prec": self.prec, "coeffs": entries}

    def __repr__(self):
        return f"QSeries({self.to_text(6)})"


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


def _scalar_series(c) -> QSeries:
    return QSeries(1, 0, [c if isinstance(c, Cyclo) else Fraction(c)], None)


def _format_monomial(e: Fraction) -> str:
    if e == 1:
        return "q"
    if e.denominator == 1:
        return f"q^{e}" if e >= 0 else f"q^({e})"
    return f"q^({e})"


def _format_term(e: Fraction, c, first: bool) -> str:
    r = as_rational(c) if isinstance(c, Cyclo) else c
    if r is None:
        cs, neg = f"({c!r})", False
    else:
        neg = r < 0
        mag = -r if neg else r
        cs = str(mag)
    if e == 0:
        core = cs
    else:
        mono = _format_monomial(e)
        core = mono if r is not None and abs(r) == 1 else f"{cs}*{mono}"
    if first:
        return f"-{core}" if neg else core
    return f"- {core}" if neg else f"+ {core}"
