"""Finite Laurent polynomials in the equivariant weight with RatFunc coefficients.

An EquivScalar maps integer exponents of the weight (written lam) to nonzero
RatFunc values.  This is the value type of the canonical-coordinate pipeline:
e.g. the quantum spectrum roots are lam^1 times a rational function of w.
"""

from __future__ import annotations

from fractions import Fraction

from qcflop.algebra.cyclotomic import CycField, CycNumber
from qcflop.algebra.power import binary_power
from qcflop.algebra.ratfunc import RatFunc


class LimitError(ValueError):
    """Raised when the nonequivariant limit hits surviving negative powers."""


class EquivScalar:
    __slots__ = ("field", "root_order", "terms")

    def __init__(self, field: CycField, root_order: int, terms: dict[int, RatFunc]):
        self.field = field
        self.root_order = root_order
        self.terms = {e: f for e, f in terms.items() if not f.is_zero()}

    @classmethod
    def zero(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls(field, root_order, {})

    @classmethod
    def one(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls(field, root_order, {0: RatFunc.one(field, root_order)})

    @classmethod
    def from_ratfunc(cls, f: RatFunc, lam_exp: int = 0) -> "EquivScalar":
        return cls(f.field, f.root_order, {lam_exp: f})

    @classmethod
    def lam_power(cls, field: CycField, root_order: int, exp: int, coeff=1) -> "EquivScalar":
        return cls(field, root_order, {exp: RatFunc.constant(field, root_order, coeff)})

    def _lift(self, other) -> "EquivScalar | None":
        if isinstance(other, EquivScalar):
            return other
        if isinstance(other, RatFunc):
            return EquivScalar.from_ratfunc(other)
        if isinstance(other, (int, Fraction, CycNumber)):
            return EquivScalar(self.field, self.root_order,
                               {0: RatFunc.constant(self.field, self.root_order, other)})
        return None

    def __add__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, f in o.terms.items():
            out[e] = out[e] + f if e in out else f
        return EquivScalar(self.field, self.root_order, out)

    __radd__ = __add__

    def __sub__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "EquivScalar":
        return (-self) + other

    def __neg__(self) -> "EquivScalar":
        return EquivScalar(self.field, self.root_order, {e: -f for e, f in self.terms.items()})

    def __mul__(self, other) -> "EquivScalar":
        if isinstance(other, (int, Fraction, CycNumber)):
            return EquivScalar(self.field, self.root_order, {e: f * other for e, f in self.terms.items()})
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out: dict[int, RatFunc] = {}
        for e1, f1 in self.terms.items():
            for e2, f2 in o.terms.items():
                e = e1 + e2
                prod = f1 * f2
                out[e] = out[e] + prod if e in out else prod
        return EquivScalar(self.field, self.root_order, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EquivScalar":
        if n < 0:
            return self.inverse_simple() ** (-n)
        return binary_power(self, n, EquivScalar.one(self.field, self.root_order))

    def is_simple(self) -> bool:
        """A single lam-power times a rational function (hence invertible)."""
        return len(self.terms) == 1

    def inverse_simple(self) -> "EquivScalar":
        if not self.is_simple():
            raise ValueError("only single-term scalars are invertible here")
        ((e, f),) = self.terms.items()
        return EquivScalar(self.field, self.root_order, {-e: f.inverse()})

    def __truediv__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse_simple()

    def __eq__(self, other) -> bool:
        if isinstance(other, (EquivScalar, RatFunc)):
            o = self._lift(other)
            if o.root_order != self.root_order:
                return NotImplemented
            # RatFunc values compare across fields
            return self.terms == o.terms
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.terms.keys() <= {0} and self.coefficient(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # a scalar with only a lam^0 term hashes like that RatFunc, so like its constant
        if self.terms.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash(tuple(sorted((e, hash(f)) for e, f in self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam_exp: int) -> RatFunc:
        return self.terms.get(lam_exp, RatFunc.zero(self.field, self.root_order))

    def lam_degrees(self) -> tuple[int, int]:
        if not self.terms:
            return (0, 0)
        exps = sorted(self.terms)
        return (exps[0], exps[-1])

    def delta(self) -> "EquivScalar":
        return EquivScalar(self.field, self.root_order, {e: f.delta() for e, f in self.terms.items()})

    def nonequivariant_limit(self) -> RatFunc:
        """Value at lam -> 0; errors if a negative lam-power survives."""
        negatives = [e for e in self.terms if e < 0]
        if negatives:
            raise LimitError(f"surviving negative weight powers {sorted(negatives)}")
        return self.coefficient(0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            f = self.terms[e]
            if e == 0:
                parts.append(f"{f}")
            else:
                parts.append(f"{f}*lam^{e}")
        return " + ".join(parts)
