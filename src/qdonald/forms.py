"""Named q-expansions of the classical modular forms used downstream.

All constructors take a target precision in q-units and return a QSeries
whose known window reaches at least that far.  Results are memoized by
(parameters, precision) with :func:`~qdonald.series.memo`.
"""

from __future__ import annotations

from fractions import Fraction

from .series import QSeries, memo


# ---------------------------------------------------------------------------
# Dedekind eta and eta quotients

def euler_product(prec, arg: int = 1) -> QSeries:
    """prod_{n>=1} (1 - q^(arg*n)) via the pentagonal number recursion."""
    return _euler_product(arg, prec)


@memo
def _euler_product(arg: int, prec) -> QSeries:
    top = int(Fraction(prec))
    terms = {}
    k = 1
    terms[0] = Fraction(1)
    while True:
        e1 = arg * k * (3 * k - 1) // 2
        e2 = arg * k * (3 * k + 1) // 2
        if e1 >= top and e2 >= top:
            break
        s = Fraction(-1) if k % 2 else Fraction(1)
        if e1 < top:
            terms[e1] = s
        if e2 < top:
            terms[e2] = s
        k += 1
    return QSeries.from_terms(terms, top)


@memo
def eta_power(arg: int, exp: int, prec) -> QSeries:
    """eta(arg*tau)^exp as an exact-exponent ramified series."""
    shift = Fraction(arg * exp, 24)
    top = Fraction(prec) - shift
    unit = euler_product(max(top, Fraction(1)) + 1, arg)
    if exp >= 0:
        u = unit ** exp
    else:
        u = unit.inverse() ** (-exp)
    return u.shift_exponent(shift).truncate(prec).reduce_ram()


def eta(prec) -> QSeries:
    """eta(tau) = q^(1/24) prod (1 - q^n)."""
    return eta_power(1, 1, prec)


def eta_quotient(factors, prec) -> QSeries:
    """prod eta(d*tau)^r for factors = [(d, r), ...]."""
    factors = tuple(sorted(tuple(f) for f in factors))
    if not factors:
        raise ValueError("eta quotient needs at least one factor")
    return _eta_quotient(factors, prec)


@memo
def _eta_quotient(factors: tuple, prec) -> QSeries:
    # feed enough headroom that the divisions do not eat the window
    pad = sum(abs(Fraction(d * r, 24)) for d, r in factors) + 1
    out = QSeries.one()
    for d, r in factors:
        out = out * eta_power(d, r, Fraction(prec) + pad)
    return out.truncate(prec).reduce_ram()


def delta(prec) -> QSeries:
    """Discriminant form eta(tau)^24."""
    return eta_power(1, 24, prec)


# ---------------------------------------------------------------------------
# Theta constants

@memo
def theta_big(which: int, prec) -> QSeries:
    """Theta_2/3/4 by direct lattice sum (integer exponents)."""
    top = int(Fraction(prec))
    terms = {}
    if which == 2:
        n = 0
        while (2 * n + 1) ** 2 < top:
            terms[(2 * n + 1) ** 2] = Fraction(1)
            n += 1
    elif which in (3, 4):
        terms[0] = Fraction(1)
        n = 1
        while 4 * n * n < top:
            c = Fraction(2) if which == 3 else Fraction(2 if n % 2 == 0 else -2)
            terms[4 * n * n] = c
            n += 1
    else:
        raise ValueError("which must be 2, 3 or 4")
    return QSeries.from_terms(terms, top)


@memo
def vartheta(which: int, prec) -> QSeries:
    """Jacobi theta constants: 2*Theta2(tau/8), Theta3(tau/8), Theta4(tau/8)."""
    base = theta_big(which, Fraction(prec) * 8).rescale(1, 8)
    return (2 * base if which == 2 else base).truncate(prec)


# ---------------------------------------------------------------------------
# Eisenstein series

def _sigma1_table(top: int) -> list:
    sig = [0] * max(top, 1)
    for d in range(1, top):
        for m in range(d, top, d):
            sig[m] += d
    return sig


@memo
def eisenstein_e2(prec) -> QSeries:
    """E_2 = 1 - 24 sum sigma_1(n) q^n."""
    top = int(Fraction(prec))
    sig = _sigma1_table(top)
    terms = {0: Fraction(1)}
    for n in range(1, top):
        terms[n] = Fraction(-24 * sig[n])
    return QSeries.from_terms(terms, top)


@memo
def eisenstein_estar(prec) -> QSeries:
    """E* = 1 + 24 sum sigma_odd(n) q^n (sum over positive odd divisors)."""
    top = int(Fraction(prec))
    sig = [0] * max(top, 1)
    for d in range(1, top, 2):
        for m in range(d, top, d):
            sig[m] += d
    terms = {0: Fraction(1)}
    for n in range(1, top):
        terms[n] = Fraction(24 * sig[n])
    return QSeries.from_terms(terms, top)


@memo
def eisenstein_eodd(prec) -> QSeries:
    """E_odd = sum sigma_1(2n+1) q^(2n+1)."""
    top = int(Fraction(prec))
    sig = _sigma1_table(top)
    terms = {n: Fraction(sig[n]) for n in range(1, top, 2)}
    return QSeries.from_terms(terms, top)


# ---------------------------------------------------------------------------
# The weight 1/2 weakly holomorphic forms feeding the mock-theta identities

def form_a(prec) -> QSeries:
    """A = eta(4 tau)^8 / eta(8 tau)^7 = q^-1 - 8 q^3 + 27 q^7 - ..."""
    return eta_quotient([(4, 8), (8, -7)], prec)


def form_b(prec) -> QSeries:
    """B = eta(8 tau)^5 / eta(16 tau)^4 = q^-1 - 5 q^7 + 9 q^15 - ..."""
    return eta_quotient([(8, 5), (16, -4)], prec)


def _sieve(series: QSeries, residue: int, modulus: int) -> QSeries:
    terms = {}
    r = series.reduce_ram()
    if r.ram != 1:
        raise ValueError("sieving expects integer exponents")
    for e, c in r.terms():
        if e.numerator % modulus == residue:
            terms[e.numerator] = c
    return QSeries.from_terms(terms, r.prec_q())


@memo
def form_a38(prec) -> QSeries:
    """Exponents of A congruent to 3 mod 8; equals -8 eta(16t)^8/eta(8t)^7."""
    return _sieve(form_a(prec), 3, 8)


@memo
def form_a78(prec) -> QSeries:
    """Exponents of A congruent to 7 mod 8 (the q^-1 term included)."""
    return _sieve(form_a(prec), 7, 8)


@memo
def form_h(prec) -> QSeries:
    """h = eta(2t)^4/eta(4t)^8 * E*(2t) = q^-1 + 20q - 62q^3 + ..."""
    p = Fraction(prec)
    quot = eta_quotient([(2, 4), (4, -8)], p)
    est = eisenstein_estar((p + 1) // 2 + 1).rescale(2, 1)
    return (quot * est).truncate(p)


@memo
def form_fm(m: int, prec) -> QSeries:
    """f_m = Theta4^9 (16 Theta2^4 + Theta3^4)^m / (Theta2 Theta3)^(2m+3)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    p = Fraction(prec) + 2 * (2 * m + 3) + 2
    t2, t3, t4 = theta_big(2, p), theta_big(3, p), theta_big(4, p)
    num = t4 ** 9 * (16 * t2 ** 4 + t3 ** 4) ** m
    den = (t2 * t3) ** (2 * m + 3)
    return (num * den.inverse()).truncate(prec)


# ---------------------------------------------------------------------------
# CLI name registry

def _plain_forms() -> dict:
    """Parameter-free CLI form names and their constructors."""
    return {
        "eta": eta, "Delta": delta,
        "theta2": lambda p: theta_big(2, p),
        "theta3": lambda p: theta_big(3, p),
        "theta4": lambda p: theta_big(4, p),
        "vtheta2": lambda p: vartheta(2, p),
        "vtheta3": lambda p: vartheta(3, p),
        "vtheta4": lambda p: vartheta(4, p),
        "E2": eisenstein_e2, "Estar": eisenstein_estar, "Eodd": eisenstein_eodd,
        "A": form_a, "B": form_b, "A38": form_a38, "A78": form_a78,
        "h": form_h,
    }


FORM_NAMES = frozenset(_plain_forms())


def by_name(name: str, prec) -> QSeries:
    """Resolve a CLI-facing form name (eta, theta2, vtheta3, fm:2, ...)."""
    plain = _plain_forms()
    if name in plain:
        return plain[name](prec)
    if name.startswith("fm:"):
        return form_fm(int(name.split(":", 1)[1]), prec)
    raise KeyError(f"unknown form name {name!r}")
