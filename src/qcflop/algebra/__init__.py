"""Exact coefficient arithmetic: cyclotomic numbers, polynomials, rational
functions in a chosen root of the Novikov variable, Laurent scalars in the
equivariant weight, and truncated fractional-exponent series."""

from qcflop.algebra.cyclotomic import (
    CycField,
    CycNumber,
    cyclotomic_polynomial,
    elementary_symmetric,
    elementary_symmetric_omitting,
)
from qcflop.algebra.poly import Poly
from qcflop.algebra.ratfunc import ExpansionError, NonIntegrableError, RatFunc
from qcflop.algebra.equivariant import EquivScalar, LimitError
from qcflop.algebra.fracseries import FracSeries

__all__ = [
    "CycField",
    "CycNumber",
    "Poly",
    "RatFunc",
    "EquivScalar",
    "FracSeries",
    "cyclotomic_polynomial",
    "elementary_symmetric",
    "elementary_symmetric_omitting",
    "ExpansionError",
    "NonIntegrableError",
    "LimitError",
]
