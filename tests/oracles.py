"""Reference implementations that tests compare the production code with.

Each oracle computes the same object as a production function by an
independent route, or by the plain ``Fraction`` loop that a fast path
replaced; it is kept only to cross-check, never called by ``qdonald`` itself.
"""

from fractions import Fraction

from qdonald.exact import Cyclo, cyclotomic_polynomial, euler_phi, unity
from qdonald.mock import LerchSpec, lerch_mu
from qdonald.series import PrecisionUnderflow, QSeries, _to_w

_ZERO = Fraction(0)


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


def schoolbook_mul(a: QSeries, b: QSeries) -> QSeries:
    """a * b by the plain coefficient loop, with the product window rule:
    lead a.lead + b.lead, prec min(a.prec + b.lead, b.prec + a.lead)."""
    a, b = a._align(b)
    if not a.coeffs or not b.coeffs:
        return a * b  # a known-zero operand: no coefficient loop to check
    lead = a.lead + b.lead
    cands = [p + s.lead for p, s in ((a.prec, b), (b.prec, a)) if p is not None]
    prec = min(cands) if cands else None
    if prec is not None and prec <= lead:
        raise PrecisionUnderflow("product has an empty known window")
    hi = prec if prec is not None else lead + len(a.coeffs) + len(b.coeffs) - 1
    out = [_ZERO] * (hi - lead)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            if i + j < hi - lead and ca and cb:
                out[i + j] = out[i + j] + ca * cb
    return QSeries(a.ram, lead, out, prec)


def schoolbook_inverse(s: QSeries, prec=None) -> QSeries:
    """1 / s by the plain recurrence out_n = -(1/u_0) sum u_k out_(n-k).

    A truncated s is inverted on its own window; an exact s is inverted
    up to the q-exponent ``prec``.
    """
    n = s.prec - s.lead if s.prec is not None else _to_w(prec, s.ram) + s.lead
    if n <= 0:
        raise PrecisionUnderflow("inverse has an empty known window")
    u = list(s.coeffs[:n]) + [_ZERO] * (n - len(s.coeffs))
    inv0 = u[0].inverse() if isinstance(u[0], Cyclo) else 1 / u[0]
    out = [_ZERO] * n
    out[0] = inv0
    for m in range(1, n):
        acc = _ZERO
        for k in range(1, m + 1):
            if u[k] and out[m - k]:
                acc = acc + u[k] * out[m - k]
        if acc:
            out[m] = -(inv0 * acc)
    return QSeries(s.ram, -s.lead, out, n - s.lead)


def schoolbook_pow(s: QSeries, k: int) -> QSeries:
    """s ** k by repeated schoolbook products; negative k inverts first."""
    if k < 0:
        s, k = schoolbook_inverse(s), -k
    out = QSeries.one()
    for _ in range(k):
        out = schoolbook_mul(out, s)
    return out


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

    Sign convention as in :func:`qdonald.mock.s_transform_parts`: relative
    to the printed prefactors the literal theta convention flips the overall
    sign.
    """
    p = Fraction(prec)
    m1 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -24, 32), p + 2)
    m2 = lerch_mu(LerchSpec(0, -16, Fraction(-1, 2), -8, 32), p + 2)
    i = unity(Fraction(1, 4))
    out = (Fraction(1, 2) * i * (m1 - m2)).shift_exponent(-1)
    return out.truncate(p).demote()
