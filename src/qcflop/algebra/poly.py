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
  reduced once through the field's table ``_rows`` of the powers of zeta;
  ``mul_upto`` stops at a degree, and ``sum_of_products`` sums in one buffer.
* A sum works row by row over the lcm of the two denominators.  A scalar is
  an integer multiply when rational, a root shift per row (zeta^p goes to the
  reduced row of zeta^(p+m)) for y zeta^m, else one convolution per row.
  ``twist``, w -> zeta^m w, is a root shift per row.
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

from bisect import bisect_left
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
        return self.coefficient(0)

    def coefficient(self, k: int) -> CycNumber:
        """The coefficient of w^k, built from its row alone."""
        rows = self.rows
        return CycNumber(self.field, rows[k], self.den) if k < len(rows) else self.field.zero

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
        return Poly._of(f, _convolve(f, [(a, b)], len(a) + len(b) - 1), self.den * other.den)

    __rmul__ = __mul__

    def mul_upto(self, other: "Poly", top: int) -> "Poly":
        """The product without its terms of degree above ``top``, which the
        convolution never forms; both factors lie over one field."""
        if self.degree + other.degree <= top:
            return self * other
        return Poly._of(self.field, _convolve(self.field, [(self.rows, other.rows)], top + 1),
                        self.den * other.den)

    @classmethod
    def sum_of_products(cls, field: CycField, pairs, den: int) -> "Poly":
        """sum_k a_k b_k / den over a nonempty list of pairs of integer rows:
        one convolution buffer, one reduction and one gcd."""
        n = max(len(a) + len(b) for a, b in pairs) - 1
        return cls._of(field, _convolve(field, pairs, n), den)

    def truncate(self, top: int) -> "Poly":
        """The polynomial without its terms of degree above ``top``."""
        if len(self.rows) <= top + 1:
            return self
        return Poly._of(self.field, list(self.rows[:max(top + 1, 0)]), self.den)

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
            for j, sub in enumerate(_convolve(f, [([top], m[:dd])], dd), shift):
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
        # the largest powers of w dividing each side, split off by shifting rows
        va, vb = self.monomial_exponent(), other.monomial_exponent()
        a, b = self.shift(-va), other.shift(-vb)
        if a.degree >= 1 and b.degree >= 1:
            while not b.is_zero():
                _, r = a.divmod(b)
                a, b = b, r
            a = a._monic()
        else:
            a = Poly.one(self.field)
        return a.shift(min(va, vb))

    def _monic(self) -> "Poly":
        inv = self.lead().inverse()
        return self._times(inv.nums, inv.den)

    def _exquo(self, divisor: "Poly") -> "Poly":
        """The quotient self / divisor, for a monic divisor known to divide self."""
        if divisor.degree <= 0:
            return self
        if divisor.is_monomial():
            return self.shift(-divisor.degree)
        return self.divmod(divisor)[0]

    def shift(self, k: int) -> "Poly":
        """w^k p by moving the rows, which keeps the form canonical; for
        k < 0, w^-k must divide p."""
        if not k or not self.rows:
            return self
        rows = (self.field.zero.nums,) * k + self.rows if k > 0 else self.rows[-k:]
        return Poly._raw(self.field, rows, self.den)

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

    def twist(self, m: int, ref: int = 0) -> "Poly":
        """zeta^(-m ref) p(zeta^m w): row k times zeta^(m (k - ref)), a unit,
        so each row keeps its content.  ``ref`` keeps a monic denominator
        monic or fixes a value's power of w (``EquivScalar.rotate``)."""
        f = self.field
        rows = tuple(row if m * (k - ref) % f.order == 0
                     else tuple(_times_root(row, m * (k - ref), 1, f))
                     for k, row in enumerate(self.rows))
        return Poly._raw(f, rows, self.den)

    def reversed_coeffs(self, upto: int) -> "Poly":
        """The polynomial w^upto * p(1/w); requires upto >= degree."""
        if upto < self.degree:
            raise ValueError("reversal bound below degree")
        return Poly._of(self.field, list(self.rows[::-1]), self.den).shift(upto - self.degree)

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


def _convolve(field: CycField, pairs, n: int) -> list[list[int]]:
    """The first n integer rows of sum_k a_k b_k over pairs of integer rows:
    one convolution of length 2d - 1 per output row, accumulated over every
    pair and reduced once through the field's table of the powers of zeta.
    The convolutions lie end to end in one list, so a pair of entries adds
    at the sum of their offsets."""
    d, table = field.degree, field._rows
    width = 2 * d - 1
    conv = [0] * (n * width)
    for a, b in pairs:
        flat_b = [(j * width + q, y) for j, row in enumerate(b) for q, y in enumerate(row) if y]
        for i, row in enumerate(a[:n]):
            # the entries of b that land in a row below n
            below = flat_b if i + len(b) <= n else flat_b[:bisect_left(flat_b, ((n - i) * width,))]
            for p, x in enumerate(row, i * width):
                if x:
                    for q, y in below:
                        conv[p + q] += x * y
    return [_reduce(conv[k:k + width], table, d) for k in range(0, len(conv), width)]


def _scaled(field: CycField, rows, den: int, nums: tuple[int, ...], nden: int) -> Poly:
    """(rows / den) * (nums / nden), made canonical: per row an integer
    multiply for a rational factor, a root shift for g zeta^m, one
    convolution otherwise."""
    if not rows:
        return Poly.zero(field)
    if not any(nums[1:]):
        out = list(rows) if nums[0] == 1 else [[x * nums[0] for x in row] for row in rows]
    elif (root := field._root_part(nums)) is None:
        out = _convolve(field, [(rows, [nums])], len(rows))
    else:
        out = [_times_root(row, *root, field) for row in rows]
        # zeta^m is a unit of Z[zeta], so each row keeps its content
        if nden == 1 and root[1] in (1, -1):
            return Poly._raw(field, tuple(map(tuple, out)), den)
    return Poly._of(field, out, den * nden)
