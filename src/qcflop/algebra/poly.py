"""Dense univariate polynomials over a cyclotomic field, as one integer matrix.

A Poly over Q(zeta_N) with d = phi(N) holds ``rows``, one tuple of d ints per
coefficient of w^0, w^1, ..., and one common denominator ``den``:

    p(w) = sum_k (rows[k][0] + rows[k][1]*zeta + ... + rows[k][d-1]*zeta^(d-1)) w^k / den.

The form is canonical: the last row is nonzero, den > 0,
gcd(den, every int of every row) == 1, and zero is rows () over den 1.  So two
polynomials over one field are equal exactly when their (rows, den) pairs
are.  Every result is brought to this form by one multi-argument gcd, never
one gcd per coefficient; ``coeffs`` builds the CycNumber coefficients on each
read.

* A product is one integer convolution per output row, of length 2d - 1,
  reduced once through the field's table ``_rows`` of the powers of zeta.
* A sum works row by row over the lcm of the two denominators; a scalar
  factor is one such convolution per row, or an integer multiply when it is
  rational.
* ``divmod`` makes the divisor monic with one inverse of its lead, then
  divides row by row in integers; each step multiplies the remainder by the
  monic divisor's denominator (pseudo-division), and one gcd per result
  removes what is common at the end.

``gcd`` returns the monic greatest common divisor (zero only for two zeros).
It first splits off the power of w dividing each side by shifting rows: the
common factor w^min(v_a, v_b) needs no division, and when either w-free part
is a constant that power of w is the whole answer.  Only two w-free parts of
positive degree go through Euclid's algorithm.

Polynomials over nested fields compare in the larger field, and hash by the
normalised traces of their coefficients, which do not depend on the field.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from qcflop.algebra.cyclotomic import CycField, CycNumber, _lowest_terms, _reduce, _times_root, _vector
from qcflop.algebra.power import binary_power


class Poly:
    __slots__ = ("field", "rows", "den")

    def __init__(self, field: CycField, coeffs: Iterable):
        """The polynomial sum_k coeffs[k] w^k; coefficients may be ints,
        Fractions or CycNumbers of this field or of a subfield."""
        vecs = [_vector(field, c) for c in coeffs]
        den = lcm(*(q for _, q in vecs))
        rows = [nums if q == den else tuple(x * (den // q) for x in nums) for nums, q in vecs]
        _canonical(self, field, rows, den)

    @classmethod
    def _of(cls, field: CycField, rows, den: int) -> "Poly":
        """The polynomial with these integer rows over den > 0, made canonical."""
        p = object.__new__(cls)
        _canonical(p, field, rows, den)
        return p

    @classmethod
    def _raw(cls, field: CycField, rows: tuple, den: int) -> "Poly":
        """A Poly from rows and den already in canonical form."""
        p = object.__new__(cls)
        p.field, p.rows, p.den = field, rows, den
        return p

    @classmethod
    def zero(cls, field: CycField) -> "Poly":
        return cls._raw(field, (), 1)

    @classmethod
    def one(cls, field: CycField) -> "Poly":
        return cls._raw(field, (field.one.nums,), 1)

    @classmethod
    def monomial(cls, field: CycField, exp: int, coeff=1) -> "Poly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls(field, [0] * exp + [coeff])

    @property
    def coeffs(self) -> tuple[CycNumber, ...]:
        """The coefficients as CycNumbers, ascending in w; built on each read."""
        f, den = self.field, self.den
        return tuple(CycNumber(f, row, den) for row in self.rows)

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    def is_constant(self) -> bool:
        return len(self.rows) <= 1

    def constant(self) -> CycNumber:
        return CycNumber(self.field, self.rows[0], self.den) if self.rows else self.field.zero

    def lead(self) -> CycNumber:
        if not self.rows:
            raise ValueError("zero polynomial has no leading coefficient")
        return CycNumber(self.field, self.rows[-1], self.den)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, row by row over the lcm of the denominators."""
        if other.field is not self.field:
            raise ValueError("mixing polynomials over different fields")
        a, b = self.rows, other.rows
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        n = min(len(a), len(b))
        out = [[x * ma + y * mb for x, y in zip(a[k], b[k])] for k in range(n)]
        out += [[x * ma for x in row] for row in a[n:]]
        out += [[y * mb for y in row] for row in b[n:]]
        return Poly._of(self.field, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, tuple(tuple(-x for x in row) for row in self.rows), self.den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        f = self.field
        if other.field is not f:
            raise ValueError("mixing polynomials over different fields")
        a, b = self.rows, other.rows
        if not a or not b:
            return Poly.zero(f)
        if len(b) == 1:
            return self._times(b[0], other.den)
        if len(a) == 1:
            return other._times(a[0], self.den)
        return Poly._of(f, _convolve(f, a, b), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return self._times(*_vector(self.field, c))

    def _times(self, nums: tuple[int, ...], den: int) -> "Poly":
        """self * (nums / den) for a field element in canonical form."""
        if den == 1 and nums == self.field.one.nums:
            return self
        return _scaled(self.field, self.rows, self.den, nums, den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n, Poly.one(self.field))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.field is self.field:
            return self.den == other.den and self.rows == other.rows
        common = CycField(lcm(self.field.order, other.field.order))
        return Poly(common, self.coeffs) == Poly(common, other.coeffs)

    def __hash__(self) -> int:
        f = self.field
        scale = self.den * f.degree
        return hash(tuple(Fraction(sum(t * x for t, x in zip(f._trace, row)), scale)
                          for row in self.rows))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        b = other.rows
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if other.field is not f:
            raise ValueError("mixing polynomials over different fields")
        dd = len(b) - 1
        if len(self.rows) <= dd:
            return Poly.zero(f), self
        inv = other.lead().inverse()
        monic = other._times(inv.nums, inv.den)
        m, dm = monic.rows, monic.den
        rem = [list(row) for row in self.rows]
        # the k-th nonzero step leaves the remainder over den * dm^k; tops[t]
        # is the quotient row at shift t, over den * dm^(k before its step)
        steps = len(rem) - dd
        tops: list[tuple[list[int], int] | None] = [None] * steps
        k = 0
        for shift in range(steps - 1, -1, -1):
            top = rem.pop()
            if not any(top):
                continue
            tops[shift] = (top, k)
            k += 1
            if dm != 1:
                for j in range(shift):
                    rem[j] = [x * dm for x in rem[j]]
            for j, sub in enumerate(_convolve(f, [top], m[:dd]), shift):
                rem[j] = [x * dm - y for x, y in zip(rem[j], sub)]
        zero_row = (0,) * f.degree
        quo = [zero_row if t is None else [x * dm ** (k - 1 - t[1]) for x in t[0]] for t in tops]
        q = _scaled(f, quo, self.den * dm ** (k - 1), inv.nums, inv.den)
        return q, Poly._of(f, rem, self.den * dm ** k)

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
        return Poly._raw(self.field, (self.field.zero.nums,) * v + a.rows, a.den) if v else a

    def _monic(self) -> "Poly":
        inv = self.lead().inverse()
        return self._times(inv.nums, inv.den)

    def _split_w(self) -> tuple[int, "Poly"]:
        """(v, self / w^v) for the largest v with w^v dividing self, which is nonzero."""
        v = self.monomial_exponent()
        return v, (Poly._raw(self.field, self.rows[v:], self.den) if v else self)

    def _exquo(self, divisor: "Poly") -> "Poly":
        """The quotient self / divisor, for a monic divisor known to divide self."""
        if divisor.degree <= 0:
            return self
        if divisor.is_monomial():
            return Poly._raw(self.field, self.rows[divisor.degree:], self.den)
        return self.divmod(divisor)[0]

    def derivative(self) -> "Poly":
        return Poly._of(self.field, [tuple(x * k for x in row)
                                     for k, row in enumerate(self.rows) if k], self.den)

    def eval(self, x):
        """Evaluate by Horner at x (any ring element supporting * and +)."""
        coeffs = self.coeffs
        if not coeffs:
            return self.field.zero
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def deck_rotate(self, i: int, ref: int) -> "Poly":
        """xi^(i ref) p(xi^(-i) w) over Q(zeta_(2u)), xi = zeta^2, u half the
        field order: row k times zeta^(2i(ref - k)), a root shift per row.
        The deck rotation moves a quotient with one ``ref`` for both parts:
        deg den in ``RatFunc.rotate``, which keeps den monic, and the power
        of w of a Laurent value of the canonical frame."""
        f = self.field
        u = f.order // 2
        rows = tuple(row if (ref - k) * i % u == 0 else tuple(_times_root(row, 2 * i * (ref - k), 1, f))
                     for k, row in enumerate(self.rows))
        return Poly._raw(f, rows, self.den)

    def reversed_coeffs(self, upto: int) -> "Poly":
        """The polynomial w^upto * p(1/w); requires upto >= degree."""
        if upto < self.degree:
            raise ValueError("reversal bound below degree")
        rows = (self.field.zero.nums,) * (upto - self.degree) + self.rows[::-1]
        while rows and not any(rows[-1]):
            rows = rows[:-1]
        return Poly._raw(self.field, rows, self.den if rows else 1)

    def is_monomial(self) -> bool:
        return sum(1 for row in self.rows if any(row)) == 1

    def monomial_exponent(self) -> int:
        for k, row in enumerate(self.rows):
            if any(row):
                return k
        raise ValueError("zero polynomial")

    def __repr__(self) -> str:
        if not self.rows:
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


def _canonical(p: Poly, field: CycField, rows: list, den: int) -> None:
    """Set p to rows/den in canonical form: trailing zero rows trimmed and one
    gcd of den with every int divided out; den must be positive."""
    while rows and not any(rows[-1]):
        rows.pop()
    rows, den = _lowest_terms(rows, den) if rows else ((), 1)
    p.field, p.rows, p.den = field, tuple(rows), den


def _convolve(field: CycField, a, b) -> list[list[int]]:
    """The integer rows of the product of the rows a and b: one convolution
    of length 2d - 1 per output row, accumulated over every pair of rows and
    then reduced once through the field's table of the powers of zeta.  The
    convolutions lie end to end in one list, so a pair of entries adds at
    the sum of their offsets."""
    d, table = field.degree, field._rows
    width = 2 * d - 1
    flat_b = [(j * width + q, y) for j, row in enumerate(b) for q, y in enumerate(row) if y]
    conv = [0] * ((len(a) + len(b) - 1) * width)
    for i, row in enumerate(a):
        for p, x in enumerate(row, i * width):
            if x:
                for q, y in flat_b:
                    conv[p + q] += x * y
    return [_reduce(conv[k:k + width], table, d) for k in range(0, len(conv), width)]


def _scaled(field: CycField, rows, den: int, nums: tuple[int, ...], nden: int) -> Poly:
    """(rows / den) * (nums / nden), made canonical: an integer multiply per
    row for a rational factor, one convolution per row otherwise."""
    if not rows:
        return Poly.zero(field)
    if any(nums[1:]):
        out = _convolve(field, rows, [nums])
    elif nums[0] == 1:
        out = list(rows)
    else:
        c = nums[0]
        out = [[x * c for x in row] for row in rows]
    return Poly._of(field, out, den * nden)
