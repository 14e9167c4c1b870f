"""Reference implementations that tests compare the production code with.

Each oracle computes the same object as a production function by an
independent route; it is kept only to cross-check, never called by
``qdonald`` itself.
"""

from fractions import Fraction

from qdonald.exact import unity
from qdonald.mock import LerchSpec, lerch_mu
from qdonald.series import QSeries


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
