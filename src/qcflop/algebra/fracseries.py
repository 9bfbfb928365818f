"""Truncated series in two fractional-exponent Novikov variables, as one
integer matrix over one denominator.

A FracSeries over Q(zeta_N) with d = phi(N) holds ``rows``, one tuple of d
ints per exponent pair (n1, n2), and one common denominator ``den``:

    s = sum_(n1, n2) (rows[n1, n2][0] + ... + rows[n1, n2][d-1]*zeta^(d-1))
                     q1^(n1/den1) q2^(n2/den2) / den,

with den1 = r+1, den2 = r+2 and nonnegative exponents.  Truncation keeps
n1 <= trunc (n2 stays bounded naturally in all uses, so only the first
direction is truncated); arithmetic respects the truncation order.

The form is canonical: no row is zero, no key lies beyond ``trunc``, den > 0
and gcd(den, every int of every row) == 1, and zero is no rows over den 1.
So two series over one field are equal exactly when their (rows, den) pairs
are.  Every result is brought to this form by one multi-argument gcd, never
one gcd per term; ``terms`` builds the CycNumber coefficients on each read.

* A product accumulates one integer convolution of length 2d - 1 per output
  key, over every pair of terms within the truncation, and reduces each key
  once through the field's table ``_rows`` of the powers of zeta.
* A sum works row by row over the lcm of the two denominators.
* A rational scalar is an integer multiply.  A root of unity times a
  rational, y zeta^m, sends each zeta^p to the reduced row of
  zeta^((p+m) mod N), so it needs no convolution; any other scalar is one
  convolution per row.  The substitution q1^(1/den1) -> zeta^m q1^(1/den1)
  (``twist_q1``) is such a root per row.

Coefficients from a subfield Q(zeta_M), M | N, are embedded on the way in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from qcflop.algebra.cyclotomic import (CycField, CycNumber, _lowest_terms, _mul_vec, _reduce,
                                       _times_root, _vector)
from qcflop.algebra.power import binary_power


class FracSeries:
    __slots__ = ("field", "den1", "den2", "trunc", "rows", "den")

    def __init__(self, field: CycField, den1: int, den2: int, trunc: int, terms: dict):
        """The series sum terms[(n1, n2)] q1^(n1/den1) q2^(n2/den2), without
        the terms beyond the truncation; coefficients may be ints, Fractions
        or CycNumbers of this field or of a subfield."""
        vecs = {}
        for (n1, n2), c in terms.items():
            if n1 < 0 or n2 < 0:
                raise ValueError("fractional exponents must be nonnegative")
            if n1 <= trunc:
                vecs[n1, n2] = _vector(field, c)
        den = lcm(*(q for _, q in vecs.values()))
        rows = {k: nums if q == den else [x * (den // q) for x in nums]
                for k, (nums, q) in vecs.items()}
        self.field, self.den1, self.den2, self.trunc = field, den1, den2, trunc
        self.rows, self.den = _canonical(rows, den)

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

    def _raw(self, rows: dict, den: int) -> "FracSeries":
        """A series in this setting from rows and den already in canonical form."""
        out = object.__new__(FracSeries)
        out.field, out.den1, out.den2, out.trunc = self.field, self.den1, self.den2, self.trunc
        out.rows, out.den = rows, den
        return out

    def _of(self, rows: dict, den: int) -> "FracSeries":
        """A series in this setting from integer rows within the truncation
        over den > 0, made canonical."""
        return self._raw(*_canonical(rows, den))

    @property
    def terms(self) -> dict[tuple[int, int], CycNumber]:
        """The coefficients as CycNumbers by exponent pair; built on each read."""
        f, den = self.field, self.den
        return {k: CycNumber(f, row, den) for k, row in self.rows.items()}

    def _check(self, other: "FracSeries") -> None:
        if (other.field is not self.field or other.den1 != self.den1
                or other.den2 != self.den2 or other.trunc != self.trunc):
            raise ValueError("mixing series with different settings")

    def _lift(self, other) -> "FracSeries | None":
        if isinstance(other, FracSeries):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            nums, den = _vector(self.field, other)
            return self._of({(0, 0): nums}, den)
        return None

    def _combine(self, other, sign: int) -> "FracSeries":
        """self + sign * other, row by row over the lcm of the denominators."""
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        den = da if da == db else lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        out = dict(self.rows) if ma == 1 else {k: [x * ma for x in row]
                                               for k, row in self.rows.items()}
        for k, row in o.rows.items():
            cur = out.get(k)
            out[k] = [y * mb for y in row] if cur is None else [
                x + y * mb for x, y in zip(cur, row)]
        return self._of(out, den)

    def __add__(self, other) -> "FracSeries":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "FracSeries":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "FracSeries":
        return (-self) + other

    def __neg__(self) -> "FracSeries":
        return self._raw({k: tuple(-x for x in row) for k, row in self.rows.items()}, self.den)

    def __mul__(self, other) -> "FracSeries":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._scale(other)
        if not isinstance(other, FracSeries):
            return NotImplemented
        self._check(other)
        return self._of(_convolve(self.field, self.rows, other.rows, self.trunc),
                        self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, c) -> "FracSeries":
        """self * c for a scalar c: an integer multiply for a rational c, a
        permutation of the powers of zeta for a rational multiple of a root
        of unity, one convolution per row otherwise."""
        f = self.field
        nums, cden = _vector(f, c)
        den = self.den * cden
        if not any(nums[1:]):
            p = nums[0]
            return self._of({k: [x * p for x in row] for k, row in self.rows.items()}, den)
        root = f._root_part(nums)
        if root is None:
            return self._of(_convolve(f, self.rows, {(0, 0): nums}, self.trunc), den)
        m, g = root
        # zeta^m is a unit of Z[zeta], so it keeps each row's content
        if cden == 1 and g in (1, -1):
            return self._raw({k: tuple(_times_root(row, m, g, f)) for k, row in self.rows.items()},
                             den)
        return self._of({k: _times_root(row, m, g, f) for k, row in self.rows.items()}, den)

    def twist_q1(self, m: int) -> "FracSeries":
        """The series with q1^(1/den1) replaced by zeta^m q1^(1/den1): the
        row of key (n1, n2) times zeta^(m n1).  A power of zeta permutes the
        powers of zeta and keeps each row's content, so the rows stay
        canonical and no convolution is needed."""
        f = self.field
        return self._raw({(n1, n2): tuple(_times_root(row, m * n1, 1, f))
                          for (n1, n2), row in self.rows.items()}, self.den)

    def __pow__(self, n: int) -> "FracSeries":
        if n < 0:
            raise ValueError("negative powers of a truncated series")
        return binary_power(self, n, FracSeries.one(self.field, self.den1, self.den2, self.trunc))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycNumber)):
            # CycNumbers compare across fields
            return self.rows.keys() <= {(0, 0)} and self.constant_term() == other
        if not isinstance(other, FracSeries):
            return NotImplemented
        if (other.den1, other.den2, other.trunc) != (self.den1, self.den2, self.trunc):
            return NotImplemented
        if other.field is self.field:
            return self.den == other.den and self.rows == other.rows
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant series equals (and so hashes like) its CycNumber, and
        # a CycNumber hashes alike in every field that holds it
        if self.rows.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash(tuple(sorted((k, hash(v)) for k, v in self.terms.items())))

    def is_zero(self) -> bool:
        return not self.rows

    def constant_term(self) -> CycNumber:
        row = self.rows.get((0, 0))
        return self.field.zero if row is None else CycNumber(self.field, row, self.den)

    def truncate(self, trunc: int) -> "FracSeries":
        """The series at the lower truncation order ``trunc``, without the
        terms beyond it."""
        if trunc > self.trunc:
            raise ValueError(f"cannot raise the truncation order {self.trunc} to {trunc}")
        if trunc == self.trunc:
            return self
        out = self._of({k: row for k, row in self.rows.items() if k[0] <= trunc}, self.den)
        out.trunc = trunc
        return out

    def divide_monomial(self, n1: int, n2: int) -> "FracSeries | None":
        """self / (q1^(n1/den1) q2^(n2/den2)), truncated at trunc - n1, or
        None when the monomial does not divide some term.  Only the keys
        move, so the rows stay canonical."""
        rows = {}
        for (a, b), row in self.rows.items():
            if a < n1 or b < n2:
                return None
            rows[a - n1, b - n2] = row
        out = self._raw(rows, self.den)
        out.trunc = self.trunc - n1
        return out

    def binomial_power(self, alpha: Fraction) -> "FracSeries":
        """(1 + x)^alpha for self = 1 + x with x = 0 or one term c q1^(a/den1) q2^(b/den2), a > 0.

        That is the base 1 + omega^i q1^(1/(r+1)) of the closed-form
        eigenvalues.  The binomial recurrence C(alpha, k) = C(alpha, k-1)
        (alpha - k + 1)/k gives the coefficient of x^k = c^k q1^(ka/den1)
        q2^(kb/den2), so no series product is formed; the expansion stops at
        the truncation order, or where C(alpha, k) reaches zero for a
        nonnegative integer alpha.  The powers of c are integer vectors over
        the powers of its denominator, and one gcd ends the expansion.
        """
        f = self.field
        if not (self.constant_term() == f.one):
            raise ValueError("binomial power needs a unit constant term")
        x = self - 1
        if len(x.rows) > 1:
            raise ValueError("binomial power needs self - 1 to be a single term")
        if not x.rows:
            return FracSeries.one(f, self.den1, self.den2, self.trunc)
        ((a, b), c), = x.rows.items()
        if a == 0:
            raise ValueError("binomial power requires the q1-direction to carry the expansion")
        # (numerators, denominator) of C(alpha, k) c^k at each key
        vecs = {(0, 0): (f.one.nums, 1)}
        coeff = Fraction(1)
        power, pden = f.one.nums, 1
        k = 1
        while k * a <= self.trunc:
            coeff = coeff * Fraction(alpha - k + 1, k)
            if coeff == 0:
                break
            power, pden = _mul_vec(power, c, f._rows, f.degree), pden * x.den
            vecs[k * a, k * b] = ([y * coeff.numerator for y in power], pden * coeff.denominator)
            k += 1
        den = lcm(*(q for _, q in vecs.values()))
        return self._of({key: [y * (den // q) for y in nums] for key, (nums, q) in vecs.items()},
                        den)

    def __repr__(self) -> str:
        if not self.rows:
            return "0"
        parts = []
        for (n1, n2), c in sorted(self.terms.items()):
            factors = []
            if n1:
                factors.append(f"q1^({n1}/{self.den1})")
            if n2:
                factors.append(f"q2^({n2}/{self.den2})")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts) + f" + O(q1^({self.trunc + 1}/{self.den1}))"


def _canonical(rows: dict, den: int) -> tuple[dict, int]:
    """rows / den in canonical form: zero rows dropped and one gcd of den with
    every int divided out; den must be positive."""
    rows = {k: row for k, row in rows.items() if any(row)}
    if not rows:
        return rows, 1
    vals, den = _lowest_terms(rows.values(), den)
    return dict(zip(rows, vals)), den


def _convolve(field: CycField, a: dict, b: dict, trunc: int) -> dict:
    """The integer rows of the product of the rows a and b, without the keys
    beyond the truncation: one convolution of length 2d - 1 per output key,
    accumulated over every pair of terms and then reduced once through the
    field's table of the powers of zeta."""
    d, table = field.degree, field._rows
    width = 2 * d - 1
    # b's terms by ascending n1, so the truncation ends each inner loop
    flat_b = sorted((n1, n2, [(q, y) for q, y in enumerate(row) if y])
                    for (n1, n2), row in b.items())
    conv: dict[tuple[int, int], list[int]] = {}
    for (a1, a2), row in a.items():
        flat_a = [(p, x) for p, x in enumerate(row) if x]
        for b1, b2, pairs in flat_b:
            n1 = a1 + b1
            if n1 > trunc:
                break
            acc = conv.get((n1, a2 + b2))
            if acc is None:
                acc = conv[n1, a2 + b2] = [0] * width
            for p, x in flat_a:
                for q, y in pairs:
                    acc[p + q] += x * y
    for acc in conv.values():
        _reduce(acc, table, d)
    return conv
