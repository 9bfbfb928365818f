"""Truncated series in two fractional-exponent Novikov variables.

Terms are indexed by integer pairs (n1, n2) standing for
q1^(n1/den1) * q2^(n2/den2) with den1 = r+1 and den2 = r+2; exponents are
nonnegative.  Truncation keeps n1 <= trunc (n2 stays bounded naturally in all
uses, so only the first direction is truncated); arithmetic respects the
truncation order.
"""

from __future__ import annotations

from fractions import Fraction

from qcflop.algebra.cyclotomic import CycField, CycNumber
from qcflop.algebra.power import binary_power


class FracSeries:
    __slots__ = ("field", "den1", "den2", "trunc", "terms")

    def __init__(self, field: CycField, den1: int, den2: int, trunc: int,
                 terms: dict[tuple[int, int], CycNumber]):
        self.field = field
        self.den1 = den1
        self.den2 = den2
        self.trunc = trunc
        clean = {}
        for (n1, n2), c in terms.items():
            if n1 < 0 or n2 < 0:
                raise ValueError("fractional exponents must be nonnegative")
            if n1 <= trunc and not c.is_zero():
                clean[(n1, n2)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field: CycField, den1: int, den2: int, trunc: int) -> "FracSeries":
        return cls(field, den1, den2, trunc, {})

    @classmethod
    def one(cls, field: CycField, den1: int, den2: int, trunc: int) -> "FracSeries":
        return cls(field, den1, den2, trunc, {(0, 0): field.one})

    @classmethod
    def monomial(cls, field: CycField, den1: int, den2: int, trunc: int,
                 n1: int, n2: int, coeff=1) -> "FracSeries":
        if isinstance(coeff, (int, Fraction)):
            coeff = field.from_rational(coeff)
        return cls(field, den1, den2, trunc, {(n1, n2): coeff})

    def _check(self, other: "FracSeries") -> None:
        if (other.field is not self.field or other.den1 != self.den1
                or other.den2 != self.den2 or other.trunc != self.trunc):
            raise ValueError("mixing series with different settings")

    def _lift(self, other) -> "FracSeries | None":
        if isinstance(other, FracSeries):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            if isinstance(other, (int, Fraction)):
                other = self.field.from_rational(other)
            return FracSeries(self.field, self.den1, self.den2, self.trunc, {(0, 0): other})
        return None

    def __add__(self, other) -> "FracSeries":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in o.terms.items():
            out[key] = out[key] + c if key in out else c
        return FracSeries(self.field, self.den1, self.den2, self.trunc, out)

    __radd__ = __add__

    def __sub__(self, other) -> "FracSeries":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FracSeries":
        return (-self) + other

    def __neg__(self) -> "FracSeries":
        return FracSeries(self.field, self.den1, self.den2, self.trunc,
                          {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._scale(other)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], CycNumber] = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in o.terms.items():
                n1 = a1 + b1
                if n1 > self.trunc:
                    continue
                key = (n1, a2 + b2)
                prod = c * d
                out[key] = out[key] + prod if key in out else prod
        return FracSeries(self.field, self.den1, self.den2, self.trunc, out)

    __rmul__ = __mul__

    def _scale(self, c) -> "FracSeries":
        """self * c for a scalar c: each term times c, with the same support
        unless c is zero."""
        if c == 0:
            return FracSeries.zero(self.field, self.den1, self.den2, self.trunc)
        if isinstance(c, CycNumber) and c.field is not self.field:
            c = self.field.embed(c)
        return self._with_terms({k: v * c for k, v in self.terms.items()})

    def copy(self) -> "FracSeries":
        """The same series with its own term dict."""
        return self._with_terms(dict(self.terms))

    def _with_terms(self, terms: dict[tuple[int, int], CycNumber]) -> "FracSeries":
        """A series in this setting over terms already nonzero and in range."""
        out = object.__new__(FracSeries)
        out.field, out.den1, out.den2, out.trunc = self.field, self.den1, self.den2, self.trunc
        out.terms = terms
        return out

    def __pow__(self, n: int) -> "FracSeries":
        if n < 0:
            raise ValueError("negative powers of a truncated series")
        return binary_power(self, n, FracSeries.one(self.field, self.den1, self.den2, self.trunc))

    def __eq__(self, other) -> bool:
        if isinstance(other, FracSeries):
            if (other.den1, other.den2, other.trunc) != (self.den1, self.den2, self.trunc):
                return NotImplemented
            o = other
        else:
            o = self._lift(other)
            if o is None:
                return NotImplemented
        # zero terms are dropped and CycNumbers compare across fields, so
        # equal series have equal term dicts
        return self.terms == o.terms

    def __hash__(self) -> int:
        # a constant series equals (and so hashes like) its CycNumber, and
        # a CycNumber hashes alike in every field that holds it
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash(tuple(sorted((k, hash(v)) for k, v in self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> CycNumber:
        return self.terms.get((0, 0), self.field.zero)

    def binomial_power(self, alpha: Fraction) -> "FracSeries":
        """(1 + x)^alpha for self = 1 + x with x = 0 or one term c q1^(a/den1) q2^(b/den2), a > 0.

        That is the base 1 + omega^i q1^(1/(r+1)) of the closed-form
        eigenvalues.  The binomial recurrence C(alpha, k) = C(alpha, k-1)
        (alpha - k + 1)/k gives the coefficient of x^k = c^k q1^(ka/den1)
        q2^(kb/den2), so no series product is formed; the expansion stops at
        the truncation order, or where C(alpha, k) reaches zero for a
        nonnegative integer alpha.
        """
        if not (self.constant_term() == self.field.one):
            raise ValueError("binomial power needs a unit constant term")
        x = self - 1
        if len(x.terms) > 1:
            raise ValueError("binomial power needs self - 1 to be a single term")
        out = {(0, 0): self.field.one}
        if not x.terms:
            return FracSeries(self.field, self.den1, self.den2, self.trunc, out)
        ((a, b), c), = x.terms.items()
        if a == 0:
            raise ValueError("binomial power requires the q1-direction to carry the expansion")
        coeff = Fraction(1)
        power = self.field.one
        k = 1
        while k * a <= self.trunc:
            coeff = coeff * Fraction(alpha - k + 1, k)
            if coeff == 0:
                break
            power = power * c
            out[(k * a, k * b)] = power * coeff
            k += 1
        return FracSeries(self.field, self.den1, self.den2, self.trunc, out)

    def to_complex(self, q1: complex, q2: complex) -> complex:
        """Numeric evaluation with principal fractional powers."""
        r1 = q1 ** (1.0 / self.den1)
        r2 = q2 ** (1.0 / self.den2)
        return sum(c.to_complex() * r1**n1 * r2**n2 for (n1, n2), c in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (n1, n2) in sorted(self.terms):
            c = self.terms[(n1, n2)]
            factors = []
            if n1:
                factors.append(f"q1^({n1}/{self.den1})")
            if n2:
                factors.append(f"q2^({n2}/{self.den2})")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts) + f" + O(q1^({self.trunc + 1}/{self.den1}))"
