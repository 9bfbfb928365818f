"""Exact coefficient arithmetic: cyclotomic numbers, polynomials, rational
functions in a chosen root of the Novikov variable, homogeneous values in the
equivariant weight (a weight and an unreduced fraction of polynomials), and
truncated fractional-exponent series, one polynomial per power of
q2^(1/(r+2)).  Poly is the one integer-row kernel under the polynomial
types."""

from qcflop.algebra.cyclotomic import (
    CycField,
    CycNumber,
    cyclotomic_polynomial,
    elementary_symmetric,
)
from qcflop.algebra.poly import Poly
from qcflop.algebra.ratfunc import ExpansionError, RatFunc
from qcflop.algebra.equivariant import EquivScalar, FlatnessError, InhomogeneousError, LimitError
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
    "FlatnessError",
    "InhomogeneousError",
    "LimitError",
]
