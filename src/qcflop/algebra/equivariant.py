"""Homogeneous values in the equivariant weight, held as unreduced fractions.

An EquivScalar is lam^weight num / (w^low den), lam the single torus weight
and num, den polynomials in w (``Poly``); den is one for a Laurent value.
It is the value type of the canonical-coordinate pipeline, whose
denominators are known in advance, so no operation reduces or takes a gcd:
a product multiplies numerators and dens and adds weights and lows; a sum
over equal dens shifts and adds the numerators, and any other sum, like an
equality, cross-multiplies; delta, the integration in t and the constant
act row by row on a Laurent value, and the deck rotation also twists den.
``value`` is the reduced RatFunc, formed on each read by one reducing
construction; a hash, and an equality across fields, read it.

Every quantity the pipeline builds is homogeneous: the quantum spectrum
roots have weight 1, the idempotent pairings weight -(2r+1), R_n weight -n
and the connection weight 0.  Zero has weight 0 and adds to a value of any
weight; a sum of two nonzero values of different weights can only come from
a wrong derivation and raises InhomogeneousError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from qcflop.algebra.cyclotomic import CycField, CycNumber
from qcflop.algebra.poly import Poly
from qcflop.algebra.ratfunc import RatFunc


class LimitError(ValueError):
    """Raised when the nonequivariant limit meets a negative weight."""


class InhomogeneousError(ValueError):
    """Raised when two nonzero values of different weights are added."""


class FlatnessError(ValueError):
    """Raised when a diagonal integrand carries a non-integrable constant."""


def _is_one(p: Poly) -> bool:
    return p.den == 1 and len(p.rows) == 1 and p.rows[0] == p.field.one.nums


class EquivScalar:
    __slots__ = ("field", "root_order", "weight", "num", "low", "den")

    def __init__(self, field: CycField, root_order: int, weight: int, value: RatFunc):
        """lam^weight value, with the power of w in value.den held as ``low``."""
        low = value.den.monomial_exponent()
        self.field, self.root_order = field, root_order
        self.weight = weight if value.num.rows else 0
        self.num, self.low, self.den = value.num, low, value.den.shift(-low)

    @classmethod
    def fraction(cls, field: CycField, root_order: int, weight: int, num: Poly, low: int = 0,
                 den: Poly | None = None) -> "EquivScalar":
        """lam^weight num / (w^low den) as written, low >= 0 and den one by default."""
        x = object.__new__(cls)
        x.field, x.root_order = field, root_order
        x.weight = weight if num.rows else 0
        x.num, x.low, x.den = num, low, Poly.one(field) if den is None else den
        return x

    @classmethod
    def zero(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls.fraction(field, root_order, 0, Poly.zero(field))

    @classmethod
    def one(cls, field: CycField, root_order: int) -> "EquivScalar":
        return cls.fraction(field, root_order, 0, Poly.one(field))

    @classmethod
    def lam_power(cls, field: CycField, root_order: int, exp: int, coeff=1) -> "EquivScalar":
        return cls.fraction(field, root_order, exp, Poly(field, [coeff]))

    def _new(self, weight: int, num: Poly, low: int, den: Poly) -> "EquivScalar":
        return EquivScalar.fraction(self.field, self.root_order, weight, num, low, den)

    def _lift(self, other, across: bool = False) -> "EquivScalar | None":
        """other as an EquivScalar, None when it is no value; a value over
        another setting raises, unless ``across`` lets an equality read it."""
        if isinstance(other, (int, Fraction)):
            other = EquivScalar.lam_power(self.field, self.root_order, 0, other)
        elif isinstance(other, CycNumber):
            other = EquivScalar.lam_power(other.field, self.root_order, 0, other)
        elif isinstance(other, RatFunc):
            other = EquivScalar(other.field, other.root_order, 0, other)
        elif not isinstance(other, EquivScalar):
            return None
        if not across and (other.field is not self.field or other.root_order != self.root_order):
            raise ValueError("mixing values over different settings")
        return other

    def _aligned(self, o: "EquivScalar") -> tuple[Poly, Poly, int, bool]:
        """(x, y, low, same): self = x / (w^low D) and o = y / (w^low D), with
        D the one den when ``same`` and the product of the dens otherwise."""
        x, y, shift = self.num, o.num, self.low - o.low
        same = self.den is o.den or self.den == o.den
        if not same:
            x, y = x * o.den, y * self.den
        if shift >= 0:
            return x, y.shift(shift), self.low, same
        return x.shift(-shift), y, o.low, same

    @property
    def value(self) -> RatFunc:
        """The reduced rational function num / (w^low den), formed on each read."""
        return RatFunc(self.field, self.root_order, self.num, self.den.shift(self.low))

    def __add__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num.rows:
            return self
        if not self.num.rows:
            return o
        if self.weight != o.weight:
            raise InhomogeneousError(f"adding weights lam^{self.weight} and lam^{o.weight}")
        x, y, low, same = self._aligned(o)
        return self._new(self.weight, x + y, low, self.den if same else self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "EquivScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "EquivScalar":
        return (-self) + other

    def __neg__(self) -> "EquivScalar":
        return self._new(self.weight, -self.num, self.low, self.den)

    def __mul__(self, other) -> "EquivScalar":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._new(self.weight, self.num.scale(other), self.low, self.den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._new(self.weight + o.weight, self.num * o.num, self.low + o.low, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EquivScalar":
        """A nonnegative power, of the numerator and the denominator apart."""
        return self._new(self.weight * n, self.num ** n, self.low * n, self.den ** n)

    def __eq__(self, other) -> bool:
        o = self._lift(other, across=True)
        if o is None or o.root_order != self.root_order:
            return NotImplemented
        if self.weight != o.weight:
            return False
        if o.field is not self.field:
            # values over two fields compare as reduced rational functions
            return self.value == o.value
        # equal dens compare shifted numerators; any other pair cross-multiplies
        x, y, _, _ = self._aligned(o)
        return x == y

    def __hash__(self) -> int:
        # a weight-0 value hashes like its RatFunc, so like its constant
        value = self.value
        return hash(value) if self.weight == 0 else hash((self.weight, value))

    def is_zero(self) -> bool:
        return not self.num.rows

    def _laurent(self) -> tuple[Poly, int]:
        """(num, low) of a Laurent value, which the row-by-row operations read."""
        if not _is_one(self.den):
            raise ValueError("only a Laurent value acts row by row")
        return self.num, self.low

    def constant(self) -> CycNumber | None:
        """The coefficient of w^0 when the value is constant in w, else None;
        the weight is the caller's to check."""
        num, low = self._laurent()
        if any(any(row) for k, row in enumerate(num.rows) if k != low):
            return None
        return num.coefficient(low)

    def delta(self) -> "EquivScalar":
        """q d/dq = (w/u) d/dw, u the root order: the coefficient of w^e times e/u."""
        num, low = self._laurent()
        rows = [[x * (k - low) for x in row] for k, row in enumerate(num.rows)]
        return self._new(self.weight, Poly._of(self.field, rows, num.den * self.root_order),
                         low, self.den)

    def integrate(self, constant_error: str) -> "EquivScalar":
        """The inverse of delta: the coefficient of w^e times u/e.  A nonzero
        w^0 term has no preimage and raises FlatnessError with
        ``constant_error`` formatted at the weight ``e``."""
        num, low = self._laurent()
        if low < len(num.rows) and any(num.rows[low]):
            raise FlatnessError(constant_error.format(e=self.weight))
        # over m = lcm of the exponents e, the factor u/e is the int u m/e
        m = lcm(*(k - low for k, row in enumerate(num.rows) if any(row))) if num.rows else 1
        um = self.root_order * m
        rows = [[x * (um // (k - low)) for x in row] if k != low else row
                for k, row in enumerate(num.rows)]
        return self._new(self.weight, Poly._of(self.field, rows, num.den * m), low, self.den)

    def rotate(self, i: int) -> "EquivScalar":
        """sigma^i, w -> xi^(-i) w with xi = zeta^2, over Q(zeta_(2u)): a
        root shift per row (``Poly.twist``).  den keeps its top coefficient,
        so a monic den stays monic, and num twists about low + deg den."""
        if self.field.order != 2 * self.root_order:
            raise ValueError("the deck rotation needs the field Q(zeta_(2u))")
        top = self.den.degree
        return self._new(self.weight, self.num.twist(-2 * i, self.low + top), self.low,
                         self.den.twist(-2 * i, top))

    def nonequivariant_limit(self) -> RatFunc:
        """Value at lam -> 0: the value at weight 0, zero at a positive weight;
        a negative weight has no limit and raises LimitError."""
        if self.weight < 0:
            raise LimitError(f"surviving negative weight power {self.weight}")
        return self.value if self.weight == 0 else RatFunc.zero(self.field, self.root_order)

    def __repr__(self) -> str:
        return f"{self.value}" if self.weight == 0 else f"{self.value}*lam^{self.weight}"
