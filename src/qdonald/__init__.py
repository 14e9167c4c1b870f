"""Exact q-series engine for mock theta functions and Donaldson invariants."""

from .series import (InsufficientPrecision, IrrepresentableExponent,
                     NotInvertible, NotRational, PrecisionUnderflow,
                     QSeries)

__all__ = [
    "QSeries",
    "NotInvertible", "NotRational", "PrecisionUnderflow",
    "InsufficientPrecision", "IrrepresentableExponent",
]

__version__ = "0.1.0"
