"""Truncated series in two fractional-exponent Novikov variables, as one
polynomial in x = q1^(1/den1) for each power of q2^(1/den2).

A FracSeries over Q(zeta_N) holds ``parts``, a dict from n2 to a nonzero
canonical Poly in x (see ``algebra.poly``):

    s = sum_n2 parts[n2](x) q2^(n2/den2),

with den1 = r+1, den2 = r+2 and nonnegative exponents.  Truncation keeps
x^n1 for n1 <= trunc (n2 stays bounded in all uses).  Every series of the
batyrev suite has one power of q2, so it is one Poly.  Two series over one
field are equal exactly when their parts are; ``terms`` and ``coefficient``
build CycNumbers on each read.  All arithmetic is Poly's: products of parts
cut at the truncation (``Poly.mul_upto``), sums of parts, and scalars and
``Poly.twist`` on each part.  Coefficients from a subfield Q(zeta_M),
M | N, are embedded on the way in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from qcflop.algebra.cyclotomic import CycField, CycNumber, _mul_vec
from qcflop.algebra.poly import Poly
from qcflop.algebra.power import binary_power


class FracSeries:
    __slots__ = ("field", "den1", "den2", "trunc", "parts")

    def __init__(self, field: CycField, den1: int, den2: int, trunc: int, terms: dict):
        """The series sum terms[(n1, n2)] q1^(n1/den1) q2^(n2/den2), without
        the terms beyond the truncation; coefficients may be ints, Fractions
        or CycNumbers of this field or of a subfield."""
        coeffs: dict[int, list] = {}
        for (n1, n2), c in terms.items():
            if n1 < 0 or n2 < 0:
                raise ValueError("fractional exponents must be nonnegative")
            if n1 <= trunc:
                coeffs.setdefault(n2, [0] * (trunc + 1))[n1] = c
        self.field, self.den1, self.den2, self.trunc = field, den1, den2, trunc
        self.parts = {n2: p for n2, cs in coeffs.items() if not (p := Poly(field, cs)).is_zero()}

    @classmethod
    def zero(cls, field: CycField, den1: int, den2: int, trunc: int) -> "FracSeries":
        return cls(field, den1, den2, trunc, {})

    @classmethod
    def one(cls, field: CycField, den1: int, den2: int, trunc: int) -> "FracSeries":
        return cls(field, den1, den2, trunc, {(0, 0): 1})

    @classmethod
    def monomial(cls, field: CycField, den1: int, den2: int, trunc: int,
                 n1: int, n2: int, coeff=1) -> "FracSeries":
        return cls(field, den1, den2, trunc, {(n1, n2): coeff})

    def _new(self, parts: dict, trunc: int | None = None) -> "FracSeries":
        """A series in this setting, at ``trunc`` when given, with these
        parts within the truncation, zero parts dropped."""
        out = object.__new__(FracSeries)
        out.field, out.den1, out.den2 = self.field, self.den1, self.den2
        out.trunc = self.trunc if trunc is None else trunc
        out.parts = {n2: p for n2, p in parts.items() if not p.is_zero()}
        return out

    @property
    def terms(self) -> dict[tuple[int, int], CycNumber]:
        """The nonzero coefficients as CycNumbers by exponent pair; built on each read."""
        return {(n1, n2): c for n2, p in self.parts.items() for n1, c in enumerate(p.coeffs) if c}

    def coefficient(self, n1: int, n2: int) -> CycNumber:
        """The coefficient of q1^(n1/den1) q2^(n2/den2), built alone."""
        p = self.parts.get(n2)
        return self.field.zero if p is None else p.coefficient(n1)

    def leading_exponent(self) -> tuple[int, int]:
        """The least (n1, n2) of a nonzero term, by n1 first."""
        return min((p.monomial_exponent(), n2) for n2, p in self.parts.items())

    def _lift(self, other) -> "FracSeries | None":
        """other as a series in this setting; None for a foreign type."""
        if isinstance(other, FracSeries):
            if (other.field, other.den1, other.den2, other.trunc) != (
                    self.field, self.den1, self.den2, self.trunc):
                raise ValueError("mixing series with different settings")
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._new({0: Poly(self.field, [other])})
        return None

    def _combine(self, other, sign: int) -> "FracSeries":
        """self + sign * other, part by part."""
        o = self._lift(other)
        if o is None:
            return NotImplemented
        parts = dict(self.parts)
        for n2, p in o.parts.items():
            p = p if sign == 1 else -p
            parts[n2] = parts[n2] + p if n2 in parts else p
        return self._new(parts)

    def __add__(self, other) -> "FracSeries":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "FracSeries":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "FracSeries":
        return (-self) + other

    def __neg__(self) -> "FracSeries":
        return self._new({n2: -p for n2, p in self.parts.items()})

    def __mul__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._new({n2: p.scale(other) for n2, p in self.parts.items()})
        o = self._lift(other)
        if o is None:
            return NotImplemented
        parts: dict[int, Poly] = {}
        for a2, a in self.parts.items():
            for b2, b in o.parts.items():
                p = a.mul_upto(b, self.trunc)
                parts[a2 + b2] = parts[a2 + b2] + p if a2 + b2 in parts else p
        return self._new(parts)

    __rmul__ = __mul__

    def twist_q1(self, m: int) -> "FracSeries":
        """The series with q1^(1/den1) replaced by zeta^m q1^(1/den1): the
        term of key (n1, n2) times zeta^(m n1), ``Poly.twist`` of each part."""
        return self._new({n2: p.twist(m) for n2, p in self.parts.items()})

    def __pow__(self, n: int) -> "FracSeries":
        if n < 0:
            raise ValueError("negative powers of a truncated series")
        return binary_power(self, n, FracSeries.one(self.field, self.den1, self.den2, self.trunc))

    def _is_constant(self) -> bool:
        return self.parts.keys() <= {0} and all(p.is_constant() for p in self.parts.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycNumber)):
            # CycNumbers compare across fields
            return self._is_constant() and self.constant_term() == other
        if not isinstance(other, FracSeries):
            return NotImplemented
        if (other.den1, other.den2, other.trunc) != (self.den1, self.den2, self.trunc):
            return NotImplemented
        # Polys over nested fields compare in the larger field
        return self.parts == other.parts

    def __hash__(self) -> int:
        # a constant series equals (and so hashes like) its CycNumber, and
        # CycNumbers and Polys hash alike in every field that holds them
        if self._is_constant():
            return hash(self.constant_term())
        return hash(tuple(sorted((n2, hash(p)) for n2, p in self.parts.items())))

    def is_zero(self) -> bool:
        return not self.parts

    def constant_term(self) -> CycNumber:
        return self.coefficient(0, 0)

    def truncate(self, trunc: int) -> "FracSeries":
        """The series at the lower truncation order ``trunc``, without the
        terms beyond it."""
        if trunc > self.trunc:
            raise ValueError(f"cannot raise the truncation order {self.trunc} to {trunc}")
        return self._new({n2: p.truncate(trunc) for n2, p in self.parts.items()}, trunc)

    def divide_monomial(self, n1: int, n2: int) -> "FracSeries | None":
        """self / (q1^(n1/den1) q2^(n2/den2)), truncated at trunc - n1, or
        None when the monomial does not divide some term.  Each part loses
        its first n1 rows, all zero (``Poly.shift``)."""
        parts = {}
        for b, p in self.parts.items():
            if b < n2 or p.monomial_exponent() < n1:
                return None
            parts[b - n2] = p.shift(-n1)
        return self._new(parts, self.trunc - n1)

    def binomial_power(self, alpha: Fraction) -> "FracSeries":
        """(1 + x)^alpha for self = 1 + x with x = 0 or one term c q1^(a/den1) q2^(b/den2), a > 0.

        That is the base 1 + omega^i q1^(1/(r+1)) of the closed-form
        eigenvalues.  C(alpha, k) = C(alpha, k-1) (alpha - k + 1)/k gives the
        coefficient of x^k, so no series product is formed; the expansion
        stops at the truncation, or where C(alpha, k) reaches zero.  The
        integer vectors of C(alpha, k) c^k go straight into the rows of the
        parts, and one gcd per part ends the expansion.
        """
        f = self.field
        if not (self.constant_term() == f.one):
            raise ValueError("binomial power needs a unit constant term")
        x = (self - 1).parts
        if len(x) > 1 or any(not p.is_monomial() for p in x.values()):
            raise ValueError("binomial power needs self - 1 to be a single term")
        if not x:
            return FracSeries.one(f, self.den1, self.den2, self.trunc)
        (b, p), = x.items()
        a = p.monomial_exponent()
        if a == 0:
            raise ValueError("binomial power requires the q1-direction to carry the expansion")
        c = p.rows[a]
        # (numerators, denominator) of C(alpha, k) c^k for k = 0, 1, ...
        vecs = [(f.one.nums, 1)]
        coeff = Fraction(1)
        power, pden = f.one.nums, 1
        for k in range(1, self.trunc // a + 1):
            coeff = coeff * Fraction(alpha - k + 1, k)
            if coeff == 0:
                break
            power, pden = _mul_vec(power, c, f._rows, f.degree), pden * p.den
            vecs.append(([y * coeff.numerator for y in power], pden * coeff.denominator))
        den = lcm(*(q for _, q in vecs))
        zero = f.zero.nums
        rows: dict[int, list] = {}
        for k, (nums, q) in enumerate(vecs):
            part = rows.setdefault(k * b, [])
            part += [zero] * (k * a - len(part))
            part.append([y * (den // q) for y in nums])
        return self._new({n2: Poly._of(f, part, den) for n2, part in rows.items()})

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        parts = []
        for (n1, n2), c in sorted(self.terms.items()):
            mono = "*".join(f"q{v}^({n}/{d})" for v, n, d in ((1, n1, self.den1), (2, n2, self.den2))
                            if n)
            parts.append(f"({c})*{mono or 1}")
        return " + ".join(parts) + f" + O(q1^({self.trunc + 1}/{self.den1}))"
