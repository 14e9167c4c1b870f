"""Reference implementations that tests compare the production code with.

Each oracle computes the same object as a production function by an
independent route, or by the plain ``Fraction`` loop that a fast path
replaced; it is kept only to cross-check, never called by ``qdonald`` itself.
The index-bundle Chern table and the monopole-obstruction sums live here too:
paper objects that no command computes and no printed value confirms.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, gcd, lcm

from qdonald import BadParameter, forms, invariants as inv, mock, sw
from qdonald.exact import Cyclo, cyclotomic_polynomial, euler_phi, unity
from qdonald.series import (InsufficientPrecision, NotInvertible,
                            NotRational, QSeries, _to_w, factor_window)

_ZERO = Fraction(0)


def gamma_half_ratio(j: int) -> Fraction:
    """Gamma(1/2) / Gamma(1/2 + j) = 4^j j! / (2j)!, exactly."""
    return Fraction(4 ** j * factorial(j), factorial(2 * j))


class ThetaNotInvertible(ArithmeticError):
    pass


class NonExpandableDenominator(ArithmeticError):
    pass


def power_table(n: int) -> tuple:
    """zeta_n^k for 0 <= k < n in the basis 1, zeta, ..., zeta^(phi(n)-1),
    by repeated multiplication by zeta and one reduction step each."""
    ph = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    rows = []
    cur = [_ZERO] * ph
    cur[0] = Fraction(1)
    for _ in range(n):
        rows.append(tuple(cur))
        nxt = [_ZERO] + cur
        top = nxt.pop()
        if top:
            nxt = [c - top * m for c, m in zip(nxt, mod)]
        cur = nxt
    return tuple(rows)


def cyclo_from_poly(order: int, poly) -> Cyclo:
    """sum poly[k] zeta^k by the power table, in Fractions."""
    table = power_table(order)
    acc = [_ZERO] * euler_phi(order)
    for k, c in enumerate(poly):
        if c:
            row = table[k % order]
            acc = [x + Fraction(c) * r for x, r in zip(acc, row)]
    return Cyclo(order, acc)


def cyclo_mul(a: Cyclo, b: Cyclo) -> Cyclo:
    """a * b for equal orders: the Fraction polynomial product, reduced by
    the power table."""
    prod = [_ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return cyclo_from_poly(a.order, prod)


class CycloSeries:
    """A truncated series over Q(zeta), the plain reference for the ring.

    ``terms`` maps w-exponents (w = q^(1/ram)) to nonzero Fraction or Cyclo
    values, all below the w-unit bound ``prec`` (None: exact).  The window
    rules are those of ``QSeries``: the lead is the first nonzero exponent,
    or the bound of a window with no nonzero term (0 when exact), and each
    operation sets ``prec`` as the ``QSeries`` operation of that name does.
    """

    def __init__(self, ram: int, terms: dict, prec):
        self.ram, self.prec = ram, prec
        self.terms = {m: c for m, c in terms.items()
                      if c and (prec is None or m < prec)}

    @staticmethod
    def of(s) -> "CycloSeries":
        """A QSeries, a scalar or a CycloSeries as a CycloSeries."""
        if isinstance(s, CycloSeries):
            return s
        if isinstance(s, QSeries):
            return CycloSeries(s.ram, dict(enumerate(s.coeffs, s.lead)),
                               s.prec)
        return CycloSeries(1, {0: s}, None)

    @property
    def lead(self) -> int:
        if self.terms:
            return min(self.terms)
        return 0 if self.prec is None else self.prec

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Fraction:
        return Fraction(min(self.terms), self.ram)

    def prec_q(self):
        return None if self.prec is None else Fraction(self.prec, self.ram)

    def spread(self, s: int, ram: int) -> "CycloSeries":
        """Each w-exponent times s, read on the 1/ram grid."""
        return CycloSeries(ram, {s * m: c for m, c in self.terms.items()},
                           None if self.prec is None else s * self.prec)

    def to_ram(self, ram: int) -> "CycloSeries":
        if ram % self.ram:
            raise ValueError(f"{self.ram} does not divide {ram}")
        return self.spread(ram // self.ram, ram)

    def _align(self, other) -> tuple:
        other = CycloSeries.of(other)
        ram = lcm(self.ram, other.ram)
        return self.to_ram(ram), other.to_ram(ram)

    def __add__(self, other) -> "CycloSeries":
        """The sum on the joint window: prec the lesser of the two."""
        a, b = self._align(other)
        precs = [p for p in (a.prec, b.prec) if p is not None]
        out = dict(a.terms)
        for m, c in b.terms.items():
            out[m] = out[m] + c if m in out else c
        return CycloSeries(a.ram, out, min(precs) if precs else None)

    __radd__ = __add__

    def __neg__(self) -> "CycloSeries":
        return self * -1

    def __sub__(self, other) -> "CycloSeries":
        return self + -CycloSeries.of(other)

    def __rsub__(self, other) -> "CycloSeries":
        return -self + other

    def __mul__(self, other) -> "CycloSeries":
        """A scalar multiplies each value.  A series product runs over the
        pairs of terms, with lead a.lead + b.lead and prec the lesser of
        a.prec + b.lead and b.prec + a.lead; a known zero factor z gives
        the zero known below z.prec + the other factor's lead."""
        if not isinstance(other, (CycloSeries, QSeries)):
            return CycloSeries(self.ram, {m: c * other
                                          for m, c in self.terms.items()},
                               self.prec)
        a, b = self._align(other)
        if not a.terms or not b.terms:
            precs = [z.prec + s.lead for z, s in ((a, b), (b, a))
                     if not z.terms and z.prec is not None]
            return CycloSeries(a.ram, {}, min(precs) if precs else None)
        lead = a.lead + b.lead
        cands = [p + s.lead for p, s in ((a.prec, b), (b.prec, a))
                 if p is not None]
        prec = min(cands) if cands else None
        if prec is not None and prec <= lead:
            raise InsufficientPrecision("product has an empty known window")
        out = {}
        for i, x in a.terms.items():
            for j, y in b.terms.items():
                if prec is None or i + j < prec:
                    out[i + j] = out[i + j] + x * y if i + j in out else x * y
        return CycloSeries(a.ram, out, prec)

    __rmul__ = __mul__

    def inverse(self, prec=None) -> "CycloSeries":
        """1 / self by the recurrence out_m = -(1/u_0) sum u_k out_(m-k) on
        n terms: the window's n when truncated, else up to the q-exponent
        ``prec``."""
        if not self.terms:
            raise NotInvertible("inverse of a zero series")
        lead = self.lead
        n = self.prec - lead if self.prec is not None \
            else _to_w(prec, self.ram) + lead
        if n <= 0:
            raise InsufficientPrecision("inverse has an empty known window")
        u = sorted((m - lead, c) for m, c in self.terms.items() if m - lead < n)
        u0 = u[0][1]
        inv0 = u0.inverse() if isinstance(u0, Cyclo) else 1 / u0
        out = [inv0] + [0] * (n - 1)
        for m in range(1, n):
            acc = 0
            for k, c in u[1:]:
                if k > m:
                    break
                if out[m - k]:
                    acc = c * out[m - k] + acc
            out[m] = -(inv0 * acc) if acc else 0
        return CycloSeries(self.ram, dict(enumerate(out, -lead)), n - lead)

    def truncate(self, prec) -> "CycloSeries":
        """Known below q^prec only: w-unit bound ceil(prec * ram).  A window
        with no known term is read on the grid of its bound."""
        w = _to_w(prec, self.ram)
        out = self
        if self.prec is None or self.prec > w:
            out = CycloSeries(self.ram, self.terms, w)
        return out if out.terms else out.reduce_ram()

    def shift_exponent(self, delta) -> "CycloSeries":
        """self * q^delta."""
        d = Fraction(delta)
        ram = lcm(self.ram, d.denominator)
        s = self.to_ram(ram)
        off = int(d * ram)
        return CycloSeries(ram, {m + off: c for m, c in s.terms.items()},
                           None if s.prec is None else s.prec + off)

    def reduce_ram(self) -> "CycloSeries":
        """self on the coarsest grid its nonzero exponents and its bound lie
        on, so the bound divides exactly."""
        g = gcd(self.ram, self.prec or 0, *self.terms)
        return CycloSeries(self.ram // g,
                           {m // g: c for m, c in self.terms.items()},
                           None if self.prec is None else self.prec // g)

    def to_rational(self) -> QSeries:
        """The QSeries of these terms; a value outside Q raises
        NotRational."""
        terms = {}
        for m, c in self.terms.items():
            r = c.as_rational() if isinstance(c, Cyclo) else c
            if r is None:
                raise NotRational(f"the term at w^{m} is not rational: {c!r}")
            terms[m] = r
        if not terms:
            return QSeries(self.ram, self.lead, [], self.prec)
        lo = min(terms)
        hi = max(terms) + 1 if self.prec is None else self.prec
        return QSeries(self.ram, lo, [terms.get(m, _ZERO)
                                      for m in range(lo, hi)], self.prec)


def twist(a, k: int) -> CycloSeries:
    """a(tau + k): the w^m term of a series on the 1/ram grid times
    zeta_ram^(k m)."""
    a = CycloSeries.of(a)
    return CycloSeries(a.ram, {m: c * unity(Fraction(k * m, a.ram))
                               for m, c in a.terms.items()}, a.prec)


def is_sign_twist(a: QSeries, k: int) -> bool:
    """Whether tau -> tau + k multiplies every nonzero term of a by 1 or -1:
    exp(2 pi i k e) = +-1 at each exponent e of a nonzero term."""
    return all((2 * k * e).denominator == 1 for e, _ in a.terms())


def schoolbook_mul(a: QSeries, b: QSeries) -> QSeries:
    """a * b by the plain product over pairs of terms."""
    return (CycloSeries.of(a) * b).to_rational()


def schoolbook_inverse(s: QSeries, prec=None) -> QSeries:
    """1 / s by the plain recurrence.  A truncated s is inverted on its own
    window; an exact s is inverted up to the q-exponent ``prec``."""
    return CycloSeries.of(s).inverse(prec).to_rational()


def schoolbook_pow(s: QSeries, k: int) -> QSeries:
    """s ** k by repeated schoolbook products; negative k inverts first."""
    if k < 0:
        s, k = schoolbook_inverse(s), -k
    out = QSeries.one()
    for _ in range(k):
        out = schoolbook_mul(out, s)
    return out


def int_power_schoolbook(u, r: int, n: int) -> list:
    """The first n coefficients of u^r, r < 0, for an integer vector u with
    u_0 != 0, as Fractions: :func:`schoolbook_pow` of u cut or padded to n
    terms."""
    base = list(u[:n]) + [0] * (n - len(u))
    power = schoolbook_pow(QSeries(1, 0, base, n), r)
    return [power.coeff(m) for m in range(n)]


def theta_inverse_lattice(which: int, prec) -> QSeries:
    """1/Theta_which, known below q^prec, by the inverse of the lattice sum
    theta_big built one q-step past its lead at least (the divisor window
    of ``factor_window``)."""
    lead = 1 if which == 2 else 0
    return forms.theta_big(which, factor_window(prec, 0, lead)).inverse()


def euler_product_schoolbook(prec, arg: int) -> QSeries:
    """prod_(n>=1) (1 - q^(arg n)) below q^ceil(prec), one factor at a
    time: multiplying by 1 - q^k subtracts the list shifted by k."""
    top = ceil(prec)
    nums = [1] + [0] * (top - 1)
    for k in range(arg, top, arg):
        for j in range(top - 1, k - 1, -1):
            nums[j] -= nums[j - k]
    return QSeries.from_terms(dict(enumerate(nums[:max(top, 0)])), top)


def _eta_power_lattice(arg: int, exp: int, prec) -> QSeries:
    """eta(arg*tau)^exp, the power of the Euler product shifted by
    q^(arg*exp/24) onto its ramified grid, known to its lattice end: at
    least one q-step past prec."""
    shift = Fraction(arg * exp, 24)
    top = Fraction(prec) - shift
    unit = forms.euler_product(max(top, Fraction(1)) + 1, arg)
    return (unit ** exp).shift_exponent(shift)


def eta_power_per_factor(arg: int, exp: int, prec) -> QSeries:
    """eta(arg*tau)^exp by the per-factor route: read on its coarsest grid
    while known to its lattice end, then truncated and, for an empty
    window, read on the grid of its bound."""
    return _eta_power_lattice(arg, exp, prec).reduce_ram().truncate(prec) \
        .reduce_ram()


def eta_quotient_per_factor(factors, prec) -> QSeries:
    """prod eta(d*tau)^r as the product of the per-factor powers, each known
    to its lattice end with headroom ``pad`` so that the divisions do not
    eat the window; the product is reduced, truncated and reduced as for one
    factor."""
    pad = sum(abs(Fraction(d * r, 24)) for d, r in factors) + 1
    out = QSeries.one()
    for d, r in factors:
        out = out * _eta_power_lattice(d, r, Fraction(prec) + pad)
    return out.reduce_ram().truncate(prec).reduce_ram()


def taylor_exp(a: QSeries) -> QSeries:
    """exp of a series with positive valuation as the Taylor sum of a^s / s!,
    one series product per term.  Its 1 is read on the integer grid, so a
    ramified argument's window is cut to whole powers of q."""
    if a.is_zero():
        return QSeries.one() if a.prec is None else \
            QSeries.from_terms({0: Fraction(1)}, a.prec_q())
    if a.lead < 1:
        raise ValueError("series_exp needs positive valuation")
    p = a.prec_q()
    total = QSeries.from_terms({0: Fraction(1)}, p)
    term = QSeries.from_terms({0: Fraction(1)}, p)
    s = 1
    while True:
        term = (term * a / s).truncate(p)
        if term.is_zero():
            break
        total = total + term
        s += 1
    return total


# ---------------------------------------------------------------------------
# Appell-Lerch mu (Zwegers, arXiv:0807.4834) at rational specializations, as
# CycloSeries in Q(zeta): the generic route to M and to the M part of the
# S-transform

@dataclass(frozen=True)
class LerchSpec:
    """mu(u, v; tau') with u = u_rat + u_tau*tau, v = v_rat + v_tau*tau,
    tau' = tau_mult*tau, all parameters rational."""
    u_rat: Fraction
    u_tau: Fraction
    v_rat: Fraction
    v_tau: Fraction
    tau_mult: Fraction

    def __init__(self, u_rat, u_tau, v_rat, v_tau, tau_mult):
        object.__setattr__(self, "u_rat", Fraction(u_rat))
        object.__setattr__(self, "u_tau", Fraction(u_tau))
        object.__setattr__(self, "v_rat", Fraction(v_rat))
        object.__setattr__(self, "v_tau", Fraction(v_tau))
        object.__setattr__(self, "tau_mult", Fraction(tau_mult))
        if self.tau_mult <= 0:
            raise ValueError("tau multiplier must be positive")


def jacobi_theta(spec: LerchSpec, prec) -> CycloSeries:
    """theta(v; tau') = sum_{nu in Z+1/2} (-1)^(nu-1/2) b^nu q'^(nu^2/2)."""
    vt, tm = spec.v_tau, spec.tau_mult
    top = Fraction(prec)
    ram = lcm(2 * vt.denominator, 8 * tm.denominator)
    terms: dict = {}
    # exponent(m) = vt*(m+1/2) + tm*(m+1/2)^2/2, minimized near the vertex
    vertex = -vt / tm - Fraction(1, 2)
    m0 = int(vertex)
    for direction in (1, -1):
        m = m0 if direction == 1 else m0 - 1
        while True:
            nu = Fraction(2 * m + 1, 2)
            e = vt * nu + tm * nu * nu / 2
            if e >= top and (m - vertex) * direction > 1:
                break
            if e < top:
                c = unity(spec.v_rat * nu)
                if m % 2:
                    c = -c
                w = int(e * ram)
                terms[w] = terms.get(w, Fraction(0)) + c
            m += direction
    series = CycloSeries(ram, terms, _to_w(top, ram, up=False)).reduce_ram()
    if series.is_zero():
        raise ThetaNotInvertible("theta specialization vanishes in the window")
    return series


def lerch_mu(spec: LerchSpec, prec, t: int = 0) -> CycloSeries:
    """Formal expansion of Zwegers' mu(u, v; tau') at the given specialization.

    The bilateral sum is split into two one-sided geometric expansions at the
    index where 1 - a q'^n changes expansion direction.

    ``t`` > 0 applies D_omega^t for u -> u + 2 omega, omega -> 0: the
    a^(1/2 + x) term of the expansion (x >= 0) is weighted by (2x + 1)^t and
    the a^(1/2 - x) term (x >= 1) by (1 - 2x)^t.  theta(v) does not see
    omega.  A term with a q'-free denominator has no such expansion.
    """
    ut, vt, tm = spec.u_tau, spec.v_tau, spec.tau_mult
    ram = 1
    for f in (ut / 2, vt, tm, ut + vt):
        ram = lcm(ram, Fraction(f).denominator)
    ram = lcm(ram, 8 * tm.denominator)
    theta = jacobi_theta(spec, Fraction(prec))
    vtheta = theta.valuation()
    top = Fraction(prec) + max(-vtheta, 0) + 1
    terms: dict = {}
    wram = lcm(ram, theta.ram)

    def add(e: Fraction, c):
        w = int(e * wram)
        prev = terms.get(w, Fraction(0))
        terms[w] = prev + c

    def min_exponent(n: int) -> Fraction:
        """Lowest exponent contributed by the n-th bilateral term."""
        base_e = ut / 2 + vt * n + tm * Fraction(n * (n + 1), 2)
        expo = ut + tm * n
        return base_e if expo >= 0 else base_e - expo

    def emit(n: int) -> None:
        # term_n = (-b)^n q'^(n(n+1)/2) / (1 - a q'^n), a = e(u_rat) q^ut;
        # base_e / base_c carry the a^(1/2) monomial and phase up front
        base_e = ut / 2 + vt * n + tm * Fraction(n * (n + 1), 2)
        expo = ut + tm * n
        base_c = unity(spec.u_rat / 2 + spec.v_rat * n)
        if n % 2:
            base_c = -base_c
        if expo == 0:
            if t:
                raise NonExpandableDenominator(
                    f"1 - a q'^{n} has no weighted geometric expansion")
            z = unity(spec.u_rat)
            if z == 1:
                raise NonExpandableDenominator(
                    f"1 - a q'^{n} degenerates to zero")
            inv = (1 / (1 - z)) if not isinstance(z, Cyclo) \
                else (Cyclo.from_rational(1, z.order) - z).inverse()
            if base_e < top:
                add(base_e, base_c * inv)
        elif expo > 0:
            x = 0
            while base_e + expo * x < top:
                add(base_e + expo * x,
                    base_c * unity(spec.u_rat * x) * (2 * x + 1) ** t)
                x += 1
        else:
            x = 1
            while base_e - expo * x < top:
                add(base_e - expo * x,
                    -(base_c * unity(-spec.u_rat * x)) * (1 - 2 * x) ** t)
                x += 1

    # min_exponent is a positive-leading quadratic in n, hence strictly
    # monotone once |n| clears this bound: two consecutive exceeds past it
    # end the sweep on that side of the bilateral sum.
    n_safe = int((abs(vt) + abs(ut) + 2) / tm) + 3
    for direction in (1, -1):
        n = 0 if direction == 1 else -1
        misses = 0
        while True:
            if min_exponent(n) < top:
                emit(n)
                misses = 0
            else:
                misses += 1
                if misses >= 2 and abs(n) > n_safe:
                    break
            n += direction
    bilateral = CycloSeries(wram, terms, _to_w(top, wram, up=False))
    return (bilateral * theta.inverse()).truncate(prec).reduce_ram()


def mock_m_hypergeometric(prec) -> QSeries:
    """M via the q-hypergeometric sum in the defining display."""
    top = int(Fraction(prec)) + 1
    num_top = top + 1
    total = QSeries.zero(num_top, 1)
    # running products over n of (1 - q^(16k-8)) and (1 + q^(16k-8))^-2
    num = QSeries.one()
    den = QSeries.from_terms({0: Fraction(1)}, num_top)
    n = 0
    while 8 * (n + 1) ** 2 - 1 < top:
        factor = QSeries.from_terms(
            {0: Fraction(1), 16 * (n + 1) - 8: Fraction(1)}, num_top)
        den = den * factor * factor
        if n:
            num = num * QSeries.from_terms(
                {0: Fraction(1), 16 * n - 8: Fraction(-1)}, num_top)
        sign = Fraction(-1) if n % 2 == 0 else Fraction(1)
        term = (num * den.inverse()).shift_exponent(8 * (n + 1) ** 2 - 1)
        total = total + sign * term.truncate(top)
        n += 1
    return total.truncate(prec)


def mock_m_mu(prec) -> QSeries:
    """M via the difference of two mu-specializations at 32 tau.

    Sign convention as in :func:`s_transform_m_lerch`: relative to the
    printed prefactors the literal theta convention flips the overall sign.
    """
    p = Fraction(prec)
    # mu is built to an integer precision: its windows then end on the
    # integer grid that M lives on, also when they hold no nonzero term
    top = -(-p // 1) + 2
    m1 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -24, 32), top)
    m2 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -8, 32), top)
    i = unity(Fraction(1, 4))
    out = (Fraction(1, 2) * i * (m1 - m2)).shift_exponent(-1)
    return out.truncate(p).to_rational()


def s_transform_m_lerch(prec) -> QSeries:
    """M part of :func:`qdonald.mock.s_transform_parts` as the sum of two
    mu-specializations with a zeta8 twist, in Q(zeta8).

    The sign convention for b^nu at half-integer characteristics is fixed
    end-to-end by the printed rational expansion of the transformed series;
    with the literal theta convention used here the mu-prefactors enter with
    a plus sign.
    """
    p = Fraction(prec)
    mu1 = lerch_mu(LerchSpec(Fraction(1, 2), 0, Fraction(1, 4), -1, 2), p + 1)
    mu2 = lerch_mu(LerchSpec(Fraction(1, 2), 0, Fraction(3, 4), -1, 2), p + 1)
    z8 = unity(Fraction(1, 8))
    sM = (Fraction(1, 4) * z8 * mu1
          + Fraction(1, 4) * (1 / z8) * mu2).shift_exponent(Fraction(-1, 4))
    # read on the q^(1/4) grid of theta's q^(-1/4), as the production M is,
    # and, with no known term, on the grid of its bound
    return sM.truncate(Fraction(ceil(4 * p), 4)).reduce_ram().to_ram(4) \
        .truncate(p).to_rational()


def z0_from_mock(prec) -> QSeries:
    """Z0 by the paper's definition calQ + 4 calF0 / Theta4, the mock route
    to :func:`qdonald.invariants.z0_series`."""
    p = Fraction(prec)
    return (mock.cal_q(p) + 4 * mock.cal_f(0, p) * forms.theta_inverse(4, p)
            ).truncate(p)


def _product_wide(prec, factors) -> QSeries:
    """The product of the series that each of *factors*, a function of a
    precision, builds one q-step past prec and past q^0, truncated at prec:
    every factor is known further than the product needs, whatever the
    leads, so no window is sized off a lead."""
    top = max(Fraction(prec), 0) + 1
    out = QSeries.one()
    for factor in factors:
        out = out * factor(top)
    return out.truncate(prec)


def z_bold_wide(prec) -> QSeries:
    """Z = eta^3 Q+ from factors built wider than its window, the
    reference for :func:`qdonald.invariants.z_bold`, which builds eta^3 as
    far as Q+'s lead needs."""
    return _product_wide(prec, [lambda t: forms.eta_quotient([(1, 3)], t),
                                mock.q_plus])


def e_bracket_wide(i: int, j: int, prec) -> QSeries:
    """(-1)^j C(i, j) [Gamma(1/2)/Gamma(1/2+j)] 12^j E2^(i-j) (q d/dq)^j Q+
    from factors built wider than its window, the reference for
    :func:`qdonald.mock.e_bracket`, which builds E2 as far as Q+'s lead
    needs."""
    c = (-1) ** j * comb(i, j) * gamma_half_ratio(j) * 12 ** j
    return _product_wide(prec, [lambda t: forms.eisenstein_e2(t) ** (i - j),
                                lambda t: c * mock.q_plus(t).qdq(j)])


# ---------------------------------------------------------------------------
# The kernel-product route to the invariant tables: every kernel is
# multiplied out to a full series and paired with its slot coefficient by
# coefficient, each cell on its own theta frame.

def pair_constant_term(kernel: QSeries, slot: QSeries, j: int = 0) -> Fraction:
    """Coeff_{q^0}[ kernel * (q d/dq)^j slot ] by coefficient pairing.

    A product kernel * slot is known through q^target when the kernel is
    known through target - val(slot) and the slot through target -
    val(kernel).  A pairing is target = 0: it raises InsufficientPrecision
    unless the kernel is known through -val(slot) and the slot through
    -val(kernel).
    """
    k, s = kernel._align(slot)
    if not k.coeffs or not s.coeffs:
        kp, sp = k.prec, s.prec
        if (kp is not None and not k.coeffs and kp <= -s.lead) or \
           (sp is not None and not s.coeffs and sp <= -k.lead):
            raise InsufficientPrecision("pairing windows do not overlap q^0")
        return Fraction(0)
    if s.prec is not None and s.prec <= -k.lead:
        raise InsufficientPrecision("slot window too short for the pairing")
    if k.prec is not None and k.prec <= -s.lead:
        raise InsufficientPrecision("kernel window too short for the pairing")
    total = Fraction(0)
    ram = s.ram
    hi = min(s.lead + len(s.coeffs) - 1, -k.lead)
    for m in range(s.lead, hi + 1):
        cs = s.coeffs[m - s.lead]
        if not cs:
            continue
        ck = k.coeffs[-m - k.lead] if k.lead <= -m < k.lead + len(k.coeffs) else 0
        if not ck:
            continue
        w = ck * cs
        if j:
            w = w * Fraction(m, ram) ** j
        total += w
    return total


def pair_sum(kernels) -> Fraction:
    """Sum of c * pair_constant_term(kernel, slot, d) over a kernel list
    [(key, c, kernel, slot, d)]."""
    return sum((c * pair_constant_term(kernel, slot, d)
                for _, c, kernel, slot, d in kernels), Fraction(0))


def _windows(target, val_kernel, val_slot, step=Fraction(1, 8),
             loss=Fraction(1, 8)) -> tuple:
    """(pt, slot precision) of a kernel family paired with one slot."""
    return ((target - val_slot - val_kernel + loss) // 1 + 1,
            ((target - val_kernel) // step + 1) * step)


def _theta_val(m: int, n: int) -> Fraction:
    return Fraction(-(2 * m + 2 * n + 3), 8)


def _theta_base_val(family, w: int) -> Fraction:
    """The valuation of the family's weight-w theta base, read off t2 = 2
    q^(1/8) + ..., t2(tau/2) = 2 q^(1/16) + ..., t3 = 1 + ..., t4 = 1 + ...
    and t3^2 - t4^2 = 4 q^(1/2) + ...."""
    return (Fraction(-(4 * w + 7), 16) if family == 2 else
            Fraction(-(8 * w + 15), 8) if family == 3 else _theta_val(w, 0))


def _power_list(series: QSeries, top: int) -> list:
    pows = [QSeries.one()]
    for _ in range(top):
        pows.append(pows[-1] * series)
    return pows


def _theta_frame(m: int, n: int, pt, e2):
    """t4, the Goettsche base t4^8 / (t2 t3)^(2m+2n+3), the ladder
    (t2^4 + t3^4)^k for k <= m + n and the ladder e2(pt)^k for k <= n."""
    t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
    base = t4 ** 8 * ((t2 * t3) ** (2 * m + 2 * n + 3)).inverse()
    return (t4, base, _power_list(t2 ** 4 + t3 ** 4, m + n),
            _power_list(e2(pt), n))


def goettsche_rows(m: int, n: int):
    """Rows ((l, j), c, k, l', t, 0) of the Goettsche double sum for
    p^m S^(2n): kernel c * P_k E_l', k = m + j, l' = l - j, against F_t,
    t = 2(n - l)."""
    for l in range(n + 1):
        for j in range(l + 1):
            c = (Fraction(8 * (-1) ** (n + j), 2 ** l * 3 ** l)
                 * Fraction(factorial(2 * n),
                            factorial(2 * n - 2 * l) * factorial(j)
                            * factorial(l - j)))
            yield (l, j), c, m + j, l - j, 2 * (n - l), 0


def _goettsche_kernels(m: int, n: int, ps, theta) -> list:
    """[((l, j), coeff, kernel, F_(2(n-l)), 0)] of the Goettsche double sum."""
    _, base, p4_pows, e2_pows = theta
    return [(key, c, base * p4_pows[k] * e2_pows[l], mock.f_t(t, ps), d)
            for key, c, k, l, t, d in goettsche_rows(m, n)]


def goettsche_value(m: int, n: int) -> Fraction:
    """The Goettsche double sum for p^m S^(2n) by kernel products."""
    pt, ps = _windows(0, _theta_val(m, n), Fraction(3, 8))
    return pair_sum(_goettsche_kernels(
        m, n, ps, _theta_frame(m, n, pt, forms.eisenstein_e2)))


def row_constants(nf: int, m: int, n: int) -> tuple:
    """(sign, offset, slope) of the D^nf_(m,2n) row coefficients."""
    return {0: (-1, 1 - n, 2), 2: (-1, 2 - n, 3),
            3: (1, 3 * m + 2 * n + 5, 2)}[nf]


def _nf0_frame(n: int, ps, theta):
    t4, base, pows, e2_pows = theta
    return (base * t4, pows, e2_pows, mock.q_plus(ps),
            (Fraction(-1, 8), Fraction(1, 2)), 1, row_constants(0, 0, n))


def uplane_frame(nf: int, m: int, n: int):
    """(base, theta ladder, E2 ladder, slot, slot grid, H-combo sign,
    coefficient row) of D^nf_(m,2n)."""
    if nf == 0:
        pt, ps = _windows(0, _theta_val(m, n), Fraction(-1, 8))
        return _nf0_frame(n, ps, _theta_frame(m, n, pt, forms.eisenstein_e2))
    w = m + n
    if nf == 2:
        pt, ps = _windows(0, _theta_base_val(2, w), Fraction(-1, 16),
                          Fraction(1, 16))
        t4, base, pows, e2_pows = _theta_frame(
            m, n, pt, lambda p: forms.eisenstein_e2(2 * p).rescale(1, 2))
        base = (base * (t4 * t4)
                * forms.vartheta(2, 2 * pt).rescale(1, 2).inverse())
        slot = mock.q_plus(2 * ps).rescale(1, 2)
        return (base, pows, e2_pows, slot, (Fraction(-1, 16), Fraction(1, 4)),
                1, row_constants(2, m, n))
    pt, ps = _windows(0, _theta_base_val(3, w), Fraction(-1, 8),
                      loss=Fraction(1, 2))
    t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
    tt = t3 * t4
    base = t2 ** 9 * ((t3 ** 2 - t4 ** 2) ** (2 * w + 6)).inverse() * tt ** 3
    return (base, _power_list(tt ** 2, w),
            _power_list(forms.eisenstein_e2(pt), n), mock.q_transform_s(ps),
            (Fraction(-1, 8), Fraction(1, 2)), -1, row_constants(3, m, n))


def uplane_rows(m: int, n: int, sign: int, off: int, slope: int):
    """Rows ((i, j), c, k, l, None, j) of D^nf_(m,2n), with the row
    constants of nf: kernel c * P_k E_l, k = m + n - i, l = i - j, against
    (q d/dq)^j of the slot."""
    for i in range(n + 1):
        for j in range(i + 1):
            c = (sign * (-1) ** (i + j) * Fraction(2) ** (off + slope * j)
                 / 3 ** (n - j)
                 * Fraction(factorial(2 * n),
                            factorial(n - i) * factorial(j) * factorial(i - j))
                 * gamma_half_ratio(j))
            yield (i, j), c, m + n - i, i - j, None, j


def uplane_kernels(m: int, n: int, frame) -> list:
    """[((i, j), coeff, kernel, slot, j)] of D^nf_(m,2n) on its frame."""
    base, pows, e2_pows, slot, _, _, constants = frame
    return [(key, c, base * pows[k] * e2_pows[l], slot, j)
            for key, c, k, l, _, j in uplane_rows(m, n, *constants)]


def uplane_cell(nf: int, m: int, n: int) -> tuple:
    """(value, h_combo) of D^nf_(m,2n) by kernel products."""
    frame = uplane_frame(nf, m, n)
    (start, step), combo_sign = frame[4], frame[5]
    kernels = uplane_kernels(m, n, frame)
    weights: dict = {}
    for _, c, kernel, _, j in kernels:
        lead_q = Fraction(kernel.lead, kernel.ram)
        alpha = 0
        while start + alpha * step <= -lead_q:
            e = start + alpha * step
            ck = kernel.coeff(-e)
            if ck:
                weights[alpha] = weights.get(alpha, Fraction(0)) \
                    + combo_sign * c * ck * e ** j
            alpha += 1
    combo = tuple((a, weights[a]) for a in sorted(weights) if weights[a])
    return pair_sum(kernels), combo


def criterion_kernels(m: int, n: int, target) -> tuple:
    """The Goettsche kernels with their F-slots and the nf=0 kernels with
    Q+, on one E2 theta frame, with products known through q^target."""
    pt, ps = _windows(target, _theta_val(m, n), Fraction(-1, 8))
    theta = _theta_frame(m, n, pt, forms.eisenstein_e2)
    return (_goettsche_kernels(m, n, ps, theta),
            uplane_kernels(m, n, _nf0_frame(n, ps, theta)))


def criterion_summands(m: int, n: int, prec) -> tuple:
    """The (k, j) summands of both sides of the renormalized criterion sum,
    as two dicts keyed by (k, j) with 0 <= j <= k <= n.

    Side 1 is the Goettsche kernels times their F-slots (the F-bracket),
    side 2 the nf=0 kernels times (q d/dq)^j Q+ (the bracket with
    derivatives of the mock series).  The products are known through
    q^p0, p0 = prec/8, then cut below q^p0 and renormalized (q -> q^8) to
    integer exponents.
    """
    p0 = Fraction(prec) / 8
    return tuple({key: (c * kernel * slot.qdq(d)).truncate(p0).rescale(8, 1)
                  for key, c, kernel, slot, d in kernels}
                 for kernels in criterion_kernels(m, n, p0))


def criterion_series(m: int, n: int, prec) -> QSeries:
    """Renormalized difference of the two criterion brackets, all (k, j)."""
    side1, side2 = criterion_summands(m, n, prec)
    total = QSeries.zero(Fraction(prec), 1)
    for key in side1:
        total = total + side1[key] - side2[key]
    return total


# ---------------------------------------------------------------------------
# The per-cell route to the invariant tables: one frame of kernel reads per
# weight, in Fractions, and each cell summed over its own rows.

def kernel_frame(family, w: int) -> dict:
    """The family's weight-w kernels P_k E_l, k + l <= w, read on the slot
    grid: {(k, l): the terms of P_k E_l at q^-x for slot-grid points x}.
    Each term is a sum over the two factors; reading a product where it is
    not known raises InsufficientPrecision."""
    t0, dt, ram = inv._FAMILIES[family][:3]
    top = Fraction(t0 + 1, ram)  # one grid step past q^(t0/ram)
    base, pows, e2 = inv._factors(family, w)
    ladder = [e.to_ram(ram) for e in _power_list(e2, w)]
    frame = {}
    for k, pk in enumerate(_power_list(pows, w)):
        p = base * pk
        points = list(range(t0, p.lead - 1, -dt))
        for l, e in enumerate(ladder[:w + 1 - k]):
            if points and (p.prec <= points[0] - e.lead or (
                    e.prec is not None and e.prec <= points[0] - p.lead)):
                raise InsufficientPrecision("kernel window too short to read")
            terms = [(i + p.lead, c)
                     for i, c in enumerate(e.coeffs, e.lead) if c]
            reads = {t: sum(c * p.coeffs[t - j] for j, c in terms
                            if j <= t and p.coeffs[t - j])
                     for t in points}
            frame[k, l] = QSeries.from_terms(reads, top, ram)
    return frame


def pairing(family, w: int, rows, frame) -> tuple:
    """(value, weights) of one cell of weight w from its rows [(key, c, k, l,
    t, d)] on the weight's frame: kernel c * P_k E_l paired with (q d/dq)^d
    of the slot (F_t in the Goettsche family; t is None in the others).
    weights[a] = sum of c * kernel(-x) * x^d over the rows, at the slot-grid
    point x = (a dt - t0) / ram, so that value = sum of weights[a] *
    slot(x)."""
    t0, dt, ram = inv._FAMILIES[family][:3]
    # the slot is known through -val, val the kernels' valuation
    ps = Fraction(1, ram) - inv._factors(family, w)[0].valuation()
    weights = {}  # t: {a: weight}
    for _, c, k, l, t, d in rows:
        read = frame[k, l]
        acc = weights.setdefault(t, {})
        for i, r in enumerate(read.coeffs):
            if r:
                a = (t0 - read.lead - i) // dt
                v = c * r * Fraction(a * dt - t0, ram) ** d if d else c * r
                acc[a] = acc.get(a, 0) + v
    value = Fraction(0)
    for t, acc in weights.items():
        ints, den = inv._slot(family, ps, [a * dt - t0 for a in acc], t)
        for v, c in zip(acc.values(), ints):
            value += v * Fraction(c, den)
    return value, weights.get(None, {})


def pairing_cell(family, m: int, n: int, frame):
    """Cell (m, n) on the frame of its weight: the Goettsche pairing sum,
    or (value, h_combo) of D^nf_(m,2n), the combination against -Q for
    nf=3."""
    if family == "goettsche":
        return pairing(family, m + n, goettsche_rows(m, n), frame)[0]
    rows = uplane_rows(m, n, *row_constants(family, m, n))
    value, weights = pairing(family, m + n, rows, frame)
    sign = -1 if family == 3 else 1
    return value, tuple((a, sign * weights[a]) for a in sorted(weights)
                        if weights[a])


# ---------------------------------------------------------------------------
# The kernels and f_m by theta constants, which the eta quotients in
# invariants._factors and forms.form_fm replaced.

# the valuation of the theta factor each family's base divides by: t2 t3,
# or t3^2 - t4^2 for nf=3
_THETA_LOSS = {"goettsche": Fraction(1, 8), 0: Fraction(1, 8),
               2: Fraction(1, 8), 3: Fraction(1, 2)}


def kernel_factors_theta(family, w: int) -> tuple:
    """(base, pows, e2) of the family's weight-w kernels base * pows^k *
    e2^l from theta constants and E2 known below q^pt, the least integer at
    which the kernels are known below q^top, one grid step past their
    highest read q^(t0/ram): the base is t4^8 / (t2 t3)^(2w+3) times t4
    (nf=0) or t4^2 / t2(tau/2) (nf=2), pows = t2^4 + t3^4, or t2^9 (t3
    t4)^3 / (t3^2 - t4^2)^(2w+6) and pows = (t3 t4)^2 for nf=3; E2 is read
    at tau/2 for nf=2."""
    t0, _, ram = inv._FAMILIES[family][:3]
    val = _theta_base_val(family, w) - _THETA_LOSS[family]
    pt = -((val - Fraction(t0 + 1, ram)) // 1)
    if family == 2:
        t2_half = forms.vartheta(2, 2 * pt).rescale(1, 2)
        e2 = forms.eisenstein_e2(2 * pt).rescale(1, 2)
    else:
        e2 = forms.eisenstein_e2(pt)
    t2, t3, t4 = (forms.vartheta(i, pt) for i in (2, 3, 4))
    if family == 3:
        tt = t3 * t4
        base = (t2 ** 9 * ((t3 ** 2 - t4 ** 2) ** (2 * w + 6)).inverse()
                * tt ** 3)
        return base, tt ** 2, e2
    base = t4 ** 8 * ((t2 * t3) ** (2 * w + 3)).inverse()
    if family == 0:
        base = base * t4
    elif family == 2:
        base = base * (t4 * t4) * t2_half.inverse()
    return base, t2 ** 4 + t3 ** 4, e2


def form_fm_theta(m: int, prec) -> QSeries:
    """f_m = Theta4^9 (16 Theta2^4 + Theta3^4)^m / (Theta2 Theta3)^(2m+3)."""
    k = 2 * m + 3  # the thetas are built as far as their divisor q^k + ...
    t2, t3, t4 = (forms.theta_big(i, factor_window(prec, 0, k))
                  for i in (2, 3, 4))
    num = t4 ** 9 * (16 * t2 ** 4 + t3 ** 4) ** m
    return (num * ((t2 * t3) ** k).inverse()).truncate(prec)


# ---------------------------------------------------------------------------
# The index-bundle Chern table and the monopole-obstruction sums.  These
# paper objects are not confirmed: no printed value exists to check them
# against, and on the 37 cells where both are defined they stand in no
# fixed ratio to the u-plane values D^nf_(m,2n) (CHANGES.md records the
# table).  No command computes them; the tests below them and
# phi_euler_convolution check only that the routes agree.

def series_exp(a: QSeries) -> QSeries:
    """exp of a series with positive valuation, to its precision, by the
    recurrence m b_m = sum_(k=1..m) k a_k b_(m-k) in w = q^(1/ram)."""
    if a.prec is None:
        if a.is_zero():
            return QSeries.one()
        raise ValueError("series_exp needs a truncated series")
    if a.nums and a.lead < 1:
        raise ValueError("series_exp needs positive valuation")
    ka = [(k, Fraction(k * v, a.den))
          for k, v in enumerate(a.nums, a.lead) if v]
    b = [Fraction(1)]
    for m in range(1, a.prec):
        b.append(sum((c * b[m - k] for k, c in ka if k <= m), Fraction(0)) / m)
    return QSeries(a.ram, 0, b[:a.prec], a.prec)  # empty when prec <= 0


def _chern_series(k, r: int, top: int) -> tuple:
    """(J1, J2, J3) of the index-bundle Chern generating function to w^top,
    w = z^2: J1 = arctan(z)/z, J2 = (z - arctan z)/z^3 and J3 = -(r^2 -
    k)/2 log(1 + w) + (4k - 1)/4 (J1 - 1)."""
    j1 = QSeries.from_terms(
        {l: Fraction((-1) ** l, 2 * l + 1) for l in range(top)}, top)
    j2 = QSeries.from_terms(
        {l: Fraction((-1) ** l, 2 * l + 3) for l in range(top)}, top)
    log_part = QSeries.from_terms(
        {s: Fraction((-1) ** (s + 1), s) for s in range(1, top)}, top)
    return j1, j2, (Fraction(-(r * r - k), 2) * log_part
                    + Fraction(4 * k - 1, 4) * (j1 - 1))


def index_chern_coeffs(k: int, r: int, imax: int, jmax: int, lmax: int
                       ) -> dict:
    """Taylor coefficients f_(i,2j,2l) of the index-bundle Chern generating
    function exp(x J1(z)/2 + y^2 J2(z)/4 + J3(z)), for every i <= imax, j <=
    jmax and l <= lmax, zeros included; the series are even in z and run
    in w = z^2."""
    top = lmax + 1
    j1, j2, j3 = _chern_series(k, r, top)
    xi = series_exp(j3)
    table = {}
    for i in range(imax + 1):
        yj = xi  # at x^i y^(2j): (J1/2)^i / i! (J2/4)^j / j! exp(J3)
        for j in range(jmax + 1):
            for l in range(top):
                table[i, 2 * j, 2 * l] = yj.coeff(l)
            yj = yj * j2 / (4 * (j + 1))
        xi = xi * j1 / (2 * (i + 1))
    return table


def phi_euler_combo(nf: int, k: int, m: int, n: int) -> Fraction:
    """Monopole-obstruction invariant: the sum over j + l = big of the
    y^(2j) w^l coefficient of exp(nf (y^2 J2/4 + J3)) times the Goettsche
    value at p^(m+l) S^(2(n+j)); the y^(2j) term of that exponential is
    (nf J2/4)^j / j! exp(nf J3)."""
    if m < 0 or n < 0:
        raise BadParameter("m, n must be non-negative")
    if nf == 2:
        if k % 2 or m + n + 2 != k:
            raise BadParameter("nf=2 needs k even and m+n+2=k")
        big = k
    elif nf == 3:
        if k % 2 or 2 * m + 2 * n + 4 != k:
            raise BadParameter("nf=3 needs k even and 2m+2n+4=k")
        big = 3 * k // 2
    else:
        raise BadParameter("nf must be 2 or 3")
    _, j2, j3 = _chern_series(k, 0, big + 1)
    yj = series_exp(nf * j3)
    phi = inv.goettsche_weight(2 * k - 2)  # m + n + big = 2(k - 1)
    total = Fraction(0)
    for j in range(big + 1):
        total += yj.coeff(big - j) * phi[m + big - j]
        yj = yj * j2 * Fraction(nf, 4 * (j + 1))
    return total


# ---------------------------------------------------------------------------
# The monopole sum by convolving the Chern table, which the series
# exponential in phi_euler_combo replaced.

def phi_euler_convolution(nf: int, k: int, m: int, n: int) -> Fraction:
    """phi_euler_combo as the copies-fold (copies = nf) convolution of the
    y^(2j) w^l cells of the Chern table f_(0,2j,2l), j + l <= big, paired
    with the Goettsche values at p^(m+l) S^(2(n+j)) where j + l = big; m,
    n and k as phi_euler_combo accepts them."""
    big = k if nf == 2 else 3 * k // 2
    f = index_chern_coeffs(k, 0, 0, big, big)
    conv = {(0, 0): Fraction(1)}
    for _ in range(nf):
        nxt = {}
        for (j1, l1), w1 in conv.items():
            for j2 in range(big + 1 - j1):
                for l2 in range(big + 1 - l1 - j2):
                    w2 = f[(0, 2 * j2, 2 * l2)]
                    if w2:
                        key = (j1 + j2, l1 + l2)
                        nxt[key] = nxt.get(key, Fraction(0)) + w1 * w2
        conv = nxt
    phi = inv.goettsche_weight(2 * k - 2)  # m + n + big = 2(k - 1)
    return sum((w * phi[m + l] for (j, l), w in conv.items() if j + l == big),
               Fraction(0))


# ---------------------------------------------------------------------------
# The nf = 4 partition function by the theta polynomial, which the modular
# differential operator on E4 in invariants.nf4_partition replaced.

def nf4_partition_theta(prec) -> QSeries:
    """Z4 = (1/2) D(D(F) eta^-4) eta^-4 + g F, F = Q+/eta, D = q d/dq, with
    g = -(r2^8 - r2^4 r3^4 + r3^8)/36, r2 = vartheta2/eta, r3 =
    vartheta3/eta, at the windows of nf4_partition."""
    top = factor_window(prec, Fraction(-1, 2))
    qp = mock.q_plus(top)
    eta_inv = forms.eta_quotient([(1, -1)], top)
    q_over_eta = qp * eta_inv
    eta4inv = forms.eta_quotient([(1, -4)], top)
    r2 = forms.vartheta(2, top) * eta_inv
    r3 = forms.vartheta(3, top) * eta_inv
    g = Fraction(-1, 36) * (r2 ** 8 - r2 ** 4 * r3 ** 4 + r3 ** 8)
    dd = (q_over_eta.qdq(1) * eta4inv).qdq(1) * eta4inv
    return (Fraction(1, 2) * dd + g * q_over_eta).truncate(prec)


# ---------------------------------------------------------------------------
# The Seiberg-Witten charts by theta constants, which the level-4 eta
# quotients in sw.sw_family replaced.

def sw_chart_theta(nf: int, p) -> tuple:
    """(u, W, 1/W), W = (omega/pi)^2, of one family with u known below q^p:
    nf=0 is u = (t2^4 + t3^4) / W, W = 2 (t2 t3)^2; nf=2 the nf=0 chart at
    2 tau; nf=3, at the I*_1 cusp, u = (t3 t4)^2 / W - 1/2 with W =
    -(t3^2 - t4^2)^2 / 4, whose sign the transport through the inversion
    leaves and T = O(1/u) pins."""
    if nf == 0:
        t2, t3 = (forms.vartheta(i, factor_window(p, 0, Fraction(1, 4)))
                  for i in (2, 3))
        omega2 = 2 * (t2 * t3) ** 2
        inverse = omega2.inverse()
        return (t2 ** 4 + t3 ** 4) * inverse, omega2, inverse
    if nf == 2:
        return tuple(s.rescale(2, 1)
                     for s in sw_chart_theta(0, Fraction(p) / 2))
    t3, t4 = (forms.vartheta(i, factor_window(p, 0, 1)) for i in (3, 4))
    omega2 = -((t3 ** 2 - t4 ** 2) ** 2) / 4
    inverse = omega2.inverse()
    return (t3 * t4) ** 2 * inverse - Fraction(1, 2), omega2, inverse


# sw.sw_family as three eta quotients, before u was read off forms.form_h:
# (c, s, w) of the nf=0 and nf=3 rows; nf=2 is the nf=0 chart at 2 tau
_SW_CURVE = {0: (4, Fraction(1, 8), 8), 3: (1, Fraction(-1, 16), -16)}


def sw_chart_quotient(nf: int, p) -> tuple:
    """(u, W, 1/W) of one family, each known below q^p, read at tau/c off
    h = 8 + eta^8/eta(4t)^8, g = eta(4t)^8/eta(2t)^4 and 1/g as u = s h,
    W = w g and 1/W = 1/(w g)."""
    if nf == 2:
        return tuple(s.rescale(2, 1)
                     for s in sw_chart_quotient(0, Fraction(p) / 2))
    c, s, w = _SW_CURVE[nf]
    h, inv, g = (forms.eta_quotient(f, c * p).rescale(1, c) for f in
                 ([(1, 8), (4, -8)], [(2, 4), (4, -8)], [(2, -4), (4, 8)]))
    return s * (h + 8), w * g, inv / w


# The Seiberg-Witten checks in division form, which sw.check_family replaced
# by cross-multiplied residuals: each returns the series whose difference
# with the chart the check read.

def u3_from_u0(prec) -> QSeries:
    """The table relation u3 = -2/(u0 - 1) - 1/2 applied to the u0 series.

    This is the expansion of the nf=3 coordinate at the nf=0 cusp; it equals
    the theta realization of sw_family(3) with theta_2 and theta_4 exchanged.
    """
    u0 = sw.sw_family(0, factor_window(prec, 0, sw._U_VALUATION[0])).u
    return (-2 * (u0 - 1).inverse() - Fraction(1, 2)).truncate(prec)


def sw_family_swapped_u3(prec) -> QSeries:
    """nf=3 u in the S-dual chart, by theta constants: u = (t3 t2)^2 / W - 1/2
    with W = (omega/pi)^2 = -(t3^2 - t2^2)^2 / 4 = -1/4 + ..."""
    t3, t2 = (forms.vartheta(i, factor_window(prec, 0, 0)) for i in (3, 2))
    u = -4 * (t3 * t2) ** 2 * (t3 ** 2 - t2 ** 2) ** -2
    return (u - Fraction(1, 2)).truncate(prec)


def sw_duplication_u2(prec) -> QSeries:
    """u0(tau/2) = (t3^4 + t4^4) / t2^4 by theta constants, known below
    q^prec: t2 = 2 q^(1/8) + ... is built below prec + 5/8, and past its
    lead, as t2^-4 keeps t2's window length from its lead -1/2."""
    window = max(Fraction(prec) + Fraction(5, 8), Fraction(9, 8))
    t2, t3, t4 = (forms.vartheta(i, window) for i in (2, 3, 4))
    return ((t3 ** 4 + t4 ** 4) * t2 ** -4).truncate(prec)


def sw_period_a(fam) -> QSeries:
    """The normalized A-period of a ``sw`` family written out, a = (nf +
    2)/3 u + (4 - nf)/3 E2/W - [nf = 3]/2, with W = (omega/pi)^2 inverted
    directly: ``sw`` reads it off the contact term as 2u - (4 - nf) T."""
    inv = fam.omega2.inverse()
    e2 = forms.eisenstein_e2(factor_window(inv.prec_q(), inv.valuation()))
    a = Fraction(fam.nf + 2, 3) * fam.u + Fraction(4 - fam.nf, 3) * e2 * inv
    return a - Fraction(1, 2) if fam.nf == 3 else a
