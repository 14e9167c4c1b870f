"""Exact q-series engine for mock theta functions and Donaldson invariants."""

from .exact import (Cyclo, DivisionByZero, IncompatibleOrder, root_of_unity,
                    unity)
from .series import (InsufficientPrecision, IrrepresentableExponent,
                     NotInvertible, NotRational, PrecisionUnderflow,
                     QSeries)

__all__ = [
    "Cyclo", "QSeries",
    "DivisionByZero", "IncompatibleOrder",
    "NotInvertible", "NotRational", "PrecisionUnderflow",
    "InsufficientPrecision", "IrrepresentableExponent",
    "root_of_unity", "unity",
]

__version__ = "0.1.0"
