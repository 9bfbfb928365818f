"""Exact coefficient arithmetic: cyclotomic numbers, polynomials, rational
functions in a chosen root of the Novikov variable, homogeneous values in the
equivariant weight (a weight and a rational function), and truncated
fractional-exponent series."""

from qcflop.algebra.cyclotomic import (
    CycField,
    CycNumber,
    cyclotomic_polynomial,
    elementary_symmetric,
)
from qcflop.algebra.poly import Poly
from qcflop.algebra.ratfunc import ExpansionError, RatFunc
from qcflop.algebra.equivariant import EquivScalar, InhomogeneousError, LimitError
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
    "ExpansionError",
    "InhomogeneousError",
    "LimitError",
]
