"""Homogeneous values in the equivariant weight with a RatFunc coefficient.

An EquivScalar is lam^weight times a rational function of w, where lam is
the single torus weight.  This is the value type of the canonical-coordinate
pipeline, and every quantity it builds is homogeneous: the quantum spectrum
roots have weight 1, the idempotent pairings weight -(2r+1), R_n weight -n
and the connection weight 0.  Zero has weight 0 and adds to a value of any
weight; a sum of two nonzero values of different weights can only come from
a wrong derivation and raises InhomogeneousError.
"""

from __future__ import annotations

from fractions import Fraction

from qcflop.algebra.cyclotomic import CycField, CycNumber
from qcflop.algebra.ratfunc import RatFunc


class LimitError(ValueError):
    """Raised when the nonequivariant limit meets a negative weight."""


class InhomogeneousError(ValueError):
    """Raised when two nonzero values of different weights are added."""


class EquivScalar:
    __slots__ = ("field", "root_order", "weight", "value")

    def __init__(self, field: CycField, root_order: int, weight: int, value: RatFunc):
        self.field = field
        self.root_order = root_order
        self.weight = 0 if value.is_zero() else weight
        self.value = value

    @classmethod
    def zero(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls(field, root_order, 0, RatFunc.zero(field, root_order))

    @classmethod
    def one(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls(field, root_order, 0, RatFunc.one(field, root_order))

    @classmethod
    def from_ratfunc(cls, f: RatFunc, weight: int = 0) -> "EquivScalar":
        return cls(f.field, f.root_order, weight, f)

    @classmethod
    def lam_power(cls, field: CycField, root_order: int, exp: int, coeff=1) -> "EquivScalar":
        return cls(field, root_order, exp, RatFunc.constant(field, root_order, coeff))

    def _lift(self, other) -> "EquivScalar | None":
        if isinstance(other, EquivScalar):
            return other
        if isinstance(other, RatFunc):
            return EquivScalar.from_ratfunc(other)
        if isinstance(other, (int, Fraction, CycNumber)):
            return EquivScalar.lam_power(self.field, self.root_order, 0, other)
        return None

    def __add__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        weight = o.weight if self.is_zero() else self.weight
        if weight != o.weight and not o.is_zero():
            raise InhomogeneousError(f"adding weights lam^{self.weight} and lam^{o.weight}")
        return EquivScalar(self.field, self.root_order, weight, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "EquivScalar":
        return (-self) + other

    def __neg__(self) -> "EquivScalar":
        return EquivScalar(self.field, self.root_order, self.weight, -self.value)

    def __mul__(self, other) -> "EquivScalar":
        if isinstance(other, (int, Fraction, CycNumber)):
            return EquivScalar(self.field, self.root_order, self.weight, self.value * other)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return EquivScalar(self.field, self.root_order, self.weight + o.weight, self.value * o.value)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EquivScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return EquivScalar(self.field, self.root_order, self.weight * n, self.value ** n)

    def inverse(self) -> "EquivScalar":
        """lam^-weight / value; raises ZeroDivisionError on zero."""
        return EquivScalar(self.field, self.root_order, -self.weight, self.value.inverse())

    def __truediv__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (EquivScalar, RatFunc)):
            o = self._lift(other)
            if o.root_order != self.root_order:
                return NotImplemented
            # RatFunc values compare across fields
            return self.weight == o.weight and self.value == o.value
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.weight == 0 and self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        # a weight-0 value hashes like its RatFunc, so like its constant
        if self.weight == 0:
            return hash(self.value)
        return hash((self.weight, self.value))

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def delta(self) -> "EquivScalar":
        return EquivScalar(self.field, self.root_order, self.weight, self.value.delta())

    def rotate(self, i: int) -> "EquivScalar":
        """sigma^i of the value (see ``RatFunc.rotate``); the weight is fixed."""
        return EquivScalar(self.field, self.root_order, self.weight, self.value.rotate(i))

    def nonequivariant_limit(self) -> RatFunc:
        """Value at lam -> 0: the value at weight 0, zero at a positive weight;
        a negative weight has no limit and raises LimitError."""
        if self.weight < 0:
            raise LimitError(f"surviving negative weight power {self.weight}")
        return self.value if self.weight == 0 else RatFunc.zero(self.field, self.root_order)

    def __repr__(self) -> str:
        if self.weight == 0:
            return f"{self.value}"
        return f"{self.value}*lam^{self.weight}"
