"""Exact q-series engine for mock theta functions and Donaldson invariants."""

from .series import (BadParameter, InsufficientPrecision,
                     IrrepresentableExponent, NotInvertible, NotRational,
                     QSeries)

__all__ = [
    "QSeries",
    "NotInvertible", "NotRational", "InsufficientPrecision",
    "IrrepresentableExponent", "BadParameter",
]

__version__ = "0.1.0"
