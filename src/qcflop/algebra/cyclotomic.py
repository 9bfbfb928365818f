"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNumber is an element of Q[x]/Phi_N(x) evaluated at
x = zeta_N = exp(2*pi*i/N), stored as an integer vector over one common
denominator:

    (nums[0] + nums[1]*zeta + ... + nums[d-1]*zeta^(d-1)) / den,  d = phi(N).

The form is canonical: den > 0, gcd(den, *nums) == 1, and zero is
(0, ..., 0)/1.  So two elements of one field are equal exactly when their
(nums, den) pairs are.

Phi_N is monic with integer coefficients, so every power x^k reduces to an
integer row; the field keeps one table of these rows.  A product is an integer
convolution reduced through that table, followed by one gcd.  The inverse of x
is the product of its Galois conjugates sigma_k(x), over the units k != 1 mod
N, divided by the norm x * prod, a nonzero rational.

Elements of different fields compare in Q(zeta_lcm(M, N)) and hash by the
normalised trace Tr(x)/phi(N), which does not depend on the field an element
is written in; a rational hashes like the Fraction it equals.  N = 1 gives
plain Q (degree-one vectors), which the rest of the package uses as the
rational base field.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from qcflop.algebra.power import binary_power


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Dense ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by the (monic, integer) Phi_d over proper divisors d of n
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            m = len(div) - 1
            quo = [0] * (len(num) - m)
            for k in range(len(quo) - 1, -1, -1):
                c = quo[k] = num[k + m]
                if c:
                    for i, a in enumerate(div):
                        num[k + i] -= c * a
            if any(num[:m]):
                raise ArithmeticError(f"cyclotomic division left a remainder at n={n}, d={d}")
            num = quo
    return tuple(num)


def _combine(coeffs: Iterable[int], rows: Iterable[tuple[tuple[int, int], ...]], d: int) -> list[int]:
    """Sum of coeffs[k] * rows[k] as a dense integer vector of length d; each
    row lists the nonzero (index, value) pairs of one reduced power."""
    out = [0] * d
    for c, row in zip(coeffs, rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _reduce(conv: list[int], rows, d: int) -> list[int]:
    """An integer convolution of length 2d - 1 reduced modulo Phi_N through
    the table rows of the powers of zeta; conv is cut to length d in place."""
    for k in range(d, len(conv)):
        c = conv[k]
        if c:
            for i, r in rows[k]:
                conv[i] += c * r
    del conv[d:]
    return conv


def _mul_vec(a: Sequence[int], b: Sequence[int], rows, d: int) -> list[int]:
    """Integer product of two coefficient vectors, reduced modulo Phi_N."""
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                conv[k] += x * y
    return _reduce(conv, rows, d)


def _times_root(row: Sequence[int], m: int, g: int, field: "CycField") -> list[int]:
    """The integer vector g * zeta^m * row, reduced: each zeta^p moves to the
    table row of zeta^((p + m) mod N), so no convolution is needed.  zeta^m
    is a unit of Z[zeta], so for g = +-1 the content of the row is kept."""
    n, table = field.order, field._rows
    out = [0] * field.degree
    for p, x in enumerate(row, m):
        if x:
            x *= g
            for i, v in table[p % n]:
                out[i] += x * v
    return out


def _lowest_terms(rows: Iterable[Sequence[int]], den: int) -> tuple[list[tuple[int, ...]], int]:
    """Integer rows over den > 0 with one gcd of den with every int divided out."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            return [tuple(x // g for x in row) for row in rows], den // g
    return [tuple(row) for row in rows], den


def _ratio(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _vector(field: "CycField", c) -> tuple[tuple[int, ...], int]:
    """(nums, den) in canonical form in the field of a scalar: an int, a
    Fraction, or a CycNumber of the field or of a subfield."""
    if isinstance(c, CycNumber):
        if c.field is not field:
            c = field.embed(c)
        return c.nums, c.den
    p, q = _ratio(c) or _ratio(Fraction(c))
    return (p,) + field._zero_tail, q


class CycField:
    """The cyclotomic field Q(zeta_N), with cached reduction data."""

    _instances: dict[int, "CycField"] = {}

    def __new__(cls, order: int):
        if order in cls._instances:
            return cls._instances[order]
        inst = super().__new__(cls)
        cls._instances[order] = inst
        return inst

    def __init__(self, order: int):
        if getattr(self, "_ready", False):
            return
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        d = self.degree = len(self.modulus) - 1
        # _rows[k]: the nonzero (index, value) pairs of x^k mod Phi_N, for
        # k < max(N, 2d - 1); x^N = 1, so x^k reduces through _rows[k % N]
        rows = [((k, 1),) for k in range(d)]
        prev = [0] * (d - 1) + [1]
        for _ in range(d, max(order, 2 * d - 1)):
            lead = prev[-1]
            prev = [0] + prev[:-1]
            if lead:
                for i, m in enumerate(self.modulus[:d]):
                    prev[i] -= lead * m
            rows.append(tuple((i, c) for i, c in enumerate(prev) if c))
        self._rows = rows
        units = [k for k in range(1, order + 1) if gcd(k, order) == 1]
        assert len(units) == d
        # sigma_k(zeta^j) = zeta^(jk), for each unit k other than 1
        self._conjugations = [tuple(rows[j * k % order] for j in range(d)) for k in units if k > 1]
        # Tr(zeta^j): the constant term of the sum of all conjugates
        self._trace = tuple(sum(dict(rows[j * k % order]).get(0, 0) for k in units)
                            for j in range(d))
        # k by the dense reduced vector of zeta^k, for k < N; that vector is
        # primitive, since zeta^k is a unit of Z[zeta]
        self._root_exponents = {tuple(_combine((1,), (rows[k],), d)): k for k in range(order)}
        self._zero_tail = (0,) * (d - 1)
        self.zero = CycNumber(self, (0,) * d)
        self.one = CycNumber(self, (1,) + self._zero_tail)
        self._ready = True

    def __repr__(self) -> str:
        return f"CycField({self.order})"

    def element(self, coeffs: Iterable[Fraction | int]) -> CycNumber:
        """The element sum_k coeffs[k] * zeta^k; any number of coefficients."""
        vals = [Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        n = self.order
        rows = (self._rows[k % n] for k in range(len(ints)))
        return CycNumber(self, tuple(_combine(ints, rows, self.degree)), den)

    def from_rational(self, a: Fraction | int) -> CycNumber:
        p, q = _ratio(a) or _ratio(Fraction(a))
        return CycNumber(self, (p,) + self._zero_tail, q)

    def zeta(self, k: int = 1) -> CycNumber:
        """zeta_N^k, reduced."""
        return CycNumber(self, tuple(_combine((1,), (self._rows[k % self.order],), self.degree)))

    def _root_part(self, nums: tuple[int, ...]) -> tuple[int, int] | None:
        """(k, g) with nums == g * zeta^k for a nonzero integer vector nums,
        or None when nums is not an integer multiple of a root of unity."""
        g = gcd(*nums)
        prim = tuple(x // g for x in nums)
        k = self._root_exponents.get(prim)
        if k is not None:
            return k, g
        k = self._root_exponents.get(tuple(-x for x in prim))
        return None if k is None else (k, -g)

    def embed(self, x: "CycNumber") -> "CycNumber":
        """Embed an element of Q(zeta_M) with M | N into this field."""
        src = x.field
        if src is self:
            return x
        if self.order % src.order != 0:
            raise ValueError(f"no canonical embedding of order {src.order} into {self.order}")
        step = self.order // src.order
        # zeta_M^j = zeta_N^(j * step)
        rows = [self._rows[j * step % self.order] for j in range(src.degree)]
        return CycNumber(self, tuple(_combine(x.nums, rows, self.degree)), x.den)


class CycNumber:
    """An element of Q(zeta_N): integers nums on the power basis
    1, zeta, ..., zeta^(phi(N)-1), over one common denominator den.

    The constructor brings (nums, den) to the canonical form: den > 0,
    gcd(den, *nums) == 1, zero as (0, ..., 0)/1.  nums must be a tuple of
    phi(N) ints; CycField.element builds an element from any coefficients.
    ``coeffs`` gives the same element as a tuple of reduced Fractions.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CycField, nums: tuple[int, ...], den: int = 1):
        if den != 1:
            if not den:
                raise ZeroDivisionError("cyclotomic number with zero denominator")
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = tuple(n // g for n in nums)
                den //= g
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Reduced Fraction coefficients on the power basis."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _mixed(self, other: "CycNumber", op):
        """op on two elements of nested fields, in the larger field; fields
        where neither order divides the other do not mix."""
        m, n = self.field.order, other.field.order
        if m % n == 0:
            return op(self, self.field.embed(other))
        if n % m == 0:
            return op(other.field.embed(self), other)
        return NotImplemented

    def __add__(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                return self._mixed(other, CycNumber.__add__)
            if not any(other.nums):
                return self
            if not any(self.nums):
                return other
            a, b = self.den, other.den
            if a == b:
                return CycNumber(self.field, tuple(x + y for x, y in zip(self.nums, other.nums)), a)
            return CycNumber(self.field, tuple(x * b + y * a for x, y in zip(self.nums, other.nums)),
                             a * b)
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        p, q = pq
        nums = self.nums
        if q == 1:
            return CycNumber(self.field, (nums[0] + p * self.den,) + nums[1:], self.den)
        return CycNumber(self.field, (nums[0] * q + p * self.den,) + tuple(n * q for n in nums[1:]),
                         self.den * q)

    __radd__ = __add__

    def __sub__(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                return self._mixed(other, CycNumber.__sub__)
            if not any(other.nums):
                return self
            a, b = self.den, other.den
            if a == b:
                return CycNumber(self.field, tuple(x - y for x, y in zip(self.nums, other.nums)), a)
            return CycNumber(self.field, tuple(x * b - y * a for x, y in zip(self.nums, other.nums)),
                             a * b)
        pq = _ratio(other)
        return NotImplemented if pq is None else self + Fraction(-pq[0], pq[1])

    def __rsub__(self, other) -> "CycNumber":
        return (-self) + other

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.field, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other) -> "CycNumber":
        f = self.field
        if isinstance(other, CycNumber):
            if other.field is not f:
                return self._mixed(other, CycNumber.__mul__)
            a, b = self.nums, other.nums
            if not any(a) or not any(b):
                return f.zero
            den = self.den * other.den
            # a rational factor only scales the other vector
            if not any(b[1:]):
                return CycNumber(f, tuple(n * b[0] for n in a), den)
            if not any(a[1:]):
                return CycNumber(f, tuple(n * a[0] for n in b), den)
            return CycNumber(f, tuple(_mul_vec(a, b, f._rows, f.degree)), den)
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        p, q = pq
        return CycNumber(f, tuple(n * p for n in self.nums), self.den * q)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        nums = self.nums
        if not any(nums):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        f = self.field
        if not any(nums[1:]):
            return CycNumber(f, (self.den,) + f._zero_tail, nums[0])
        d, rows = f.degree, f._rows
        # prod = prod_k sigma_k(nums) over the units k != 1, so nums * prod is
        # the integer norm and 1/x = den * prod / norm
        conjugates = [_combine(nums, conj, d) for conj in f._conjugations]
        prod = conjugates[0]
        for c in conjugates[1:]:
            prod = _mul_vec(prod, c, rows, d)
        norm = _mul_vec(nums, prod, rows, d)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is not a nonzero rational; cyclotomic modulus not irreducible?")
        return CycNumber(f, tuple(p * self.den for p in prod), norm[0])

    def __truediv__(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                return self._mixed(other, CycNumber.__truediv__)
            return self * other.inverse()
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        if not pq[0]:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        return self * Fraction(pq[1], pq[0])

    def __rtruediv__(self, other) -> "CycNumber":
        return self.inverse() * other

    def __pow__(self, n: int) -> "CycNumber":
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, self.field.one)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycNumber):
            if other.field is self.field:
                return self.den == other.den and self.nums == other.nums
            common = CycField(lcm(self.field.order, other.field.order))
            return common.embed(self) == common.embed(other)
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        return self.is_rational() and (self.nums[0], self.den) == pq

    def __hash__(self) -> int:
        f = self.field
        trace = sum(t * n for t, n in zip(f._trace, self.nums))
        return hash(Fraction(trace, self.den * f.degree))

    def __bool__(self) -> bool:
        """False exactly at zero, as for a Fraction."""
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.nums[0], self.den)

    def to_complex(self) -> complex:
        zeta = cmath.exp(2j * cmath.pi / self.field.order)
        den = self.den
        return sum(n / den * zeta**k for k, n in enumerate(self.nums))

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        parts = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.field.order}^{k}" if k > 1 else f"{c}*z{self.field.order}")
        return " + ".join(parts) if parts else "0"


def elementary_symmetric(values: Sequence, ring_one):
    """All elementary symmetric functions e_0..e_n of the given values, over
    any commutative ring; ring_one is the multiplicative unit."""
    es = [ring_one]
    for v in values:
        es = [es[0]] + [e + p * v for e, p in zip(es[1:], es)] + [es[-1] * v]
    return es
