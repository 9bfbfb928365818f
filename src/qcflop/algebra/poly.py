"""Dense univariate polynomials over a cyclotomic field.

Coefficients are stored ascending with trailing zeros trimmed; the zero
polynomial has an empty coefficient tuple and degree -1.

``gcd`` returns the monic greatest common divisor (zero only for two zeros).
It first splits off the power of w dividing each side by shifting
coefficients: the common factor w^min(v_a, v_b) needs no division, and when
either w-free part is a constant that power of w is the whole answer.  Only
two w-free parts of positive degree go through Euclid's algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from qcflop.algebra.cyclotomic import CycField, CycNumber
from qcflop.algebra.power import binary_power


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycField, coeffs: Iterable):
        vec = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = field.from_rational(c)
            elif c.field is not field:
                c = field.embed(c)
            vec.append(c)
        while vec and vec[-1].is_zero():
            vec.pop()
        self.field = field
        self.coeffs = tuple(vec)

    @classmethod
    def zero(cls, field: CycField) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: CycField) -> "Poly":
        return cls(field, [field.one])

    @classmethod
    def monomial(cls, field: CycField, exp: int, coeff=1) -> "Poly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls(field, [0] * exp + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant(self) -> CycNumber:
        return self.coeffs[0] if self.coeffs else self.field.zero

    def lead(self) -> CycNumber:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.field.zero
            b = other.coeffs[i] if i < len(other.coeffs) else self.field.zero
            out.append(a + b)
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        if other.degree == 0:
            return self.scale(other.coeffs[0])
        if self.degree == 0:
            return other.scale(self.coeffs[0])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if c == 1:
            return self
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n, Poly.one(self.field))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead_inv = other.lead().inverse()
        dd = other.degree
        q = [self.field.zero] * max(1, len(rem) - dd)
        while len(rem) - 1 >= dd:
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) - 1 < dd:
                break
            factor = rem[-1] * dlead_inv
            shift = len(rem) - 1 - dd
            q[shift] = q[shift] + factor
            for i, d in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * d
            rem.pop()
        return Poly(self.field, q), Poly(self.field, rem)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        return self.divmod(other)

    def gcd(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            g = other if self.is_zero() else self
            return g if g.is_zero() else g._monic()
        va, a = self._split_w()
        vb, b = other._split_w()
        if a.degree >= 1 and b.degree >= 1:
            while not b.is_zero():
                _, r = a.divmod(b)
                a, b = b, r
            a = a._monic()
        else:
            a = Poly.one(self.field)
        v = min(va, vb)
        return Poly(self.field, (self.field.zero,) * v + a.coeffs) if v else a

    def _monic(self) -> "Poly":
        return self.scale(self.lead().inverse())

    def _split_w(self) -> tuple[int, "Poly"]:
        """(v, self / w^v) for the largest v with w^v dividing self, which is nonzero."""
        v = self.monomial_exponent()
        return v, (Poly(self.field, self.coeffs[v:]) if v else self)

    def _exquo(self, divisor: "Poly") -> "Poly":
        """The quotient self / divisor, for a monic divisor known to divide self."""
        if divisor.degree <= 0:
            return self
        if divisor.is_monomial():
            return Poly(self.field, self.coeffs[divisor.degree:])
        return self.divmod(divisor)[0]

    def derivative(self) -> "Poly":
        return Poly(self.field, [c * k for k, c in enumerate(self.coeffs) if k >= 1])

    def eval(self, x):
        """Evaluate by Horner at x (any ring element supporting * and +)."""
        if not self.coeffs:
            return self.field.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def reversed_coeffs(self, upto: int) -> "Poly":
        """The polynomial w^upto * p(1/w); requires upto >= degree."""
        if upto < self.degree:
            raise ValueError("reversal bound below degree")
        out = [self.field.zero] * (upto + 1)
        for k, c in enumerate(self.coeffs):
            out[upto - k] = c
        return Poly(self.field, out)

    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if not c.is_zero()) == 1

    def monomial_exponent(self) -> int:
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        raise ValueError("zero polynomial")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = f"({c})" if not c.is_rational() else str(c)
            if k == 1:
                term += "*w"
            elif k > 1:
                term += f"*w^{k}"
            parts.append(term)
        return " + ".join(parts)
