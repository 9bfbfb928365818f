"""Rational functions in a formal root w of the Novikov variable.

A RatFunc is a reduced fraction num/den of dense polynomials in w over a
cyclotomic field, with the denominator monic.  The parameter ``root_order``
is the integer u with w^u = q, so q-dependence is recovered by substituting
w^u; u = 1 simply means w is q itself.  The logarithmic derivative
delta = q d/dq acts as (w/u) d/dw.

Invariant: gcd(num, den) = 1, den is monic, and zero is 0/1, so equal
functions have equal (num, den) pairs.  A constant hashes like the CycNumber
(and hence the Fraction or int) it equals.  The arithmetic keeps the invariant
without reducing a full product (Henrici 1956; Knuth, TAOCP 2, 4.5.1):

* product of reduced a/b and c/d: cancel across, g1 = gcd(a, d) and
  g2 = gcd(c, b); (a/g1 * c/g2) / (b/g2 * d/g1) is reduced;
* sum: g = gcd(b, d).  For g = 1, (ad + cb)/(bd) is reduced; otherwise
  t = a*(d/g) + c*(b/g) and only gcd(t, g) can be common to t and the
  denominator (b/g)*d;
* a scalar factor scales num, the inverse swaps num and den and makes den
  monic, and a power raises num and den separately;
* delta of reduced n/d: t = w (n'd - nd') shares with d^2 only what it
  shares with d, so one gcd g = gcd(t, d) gives (t/g) / (u d (d/g));
* f(1/w) and the deck rotation move coprime num and den to coprime num and
  den, so only the denominator is made monic (see the methods).

The constructor with ``reduce=True`` brings any num/den to this form with
one gcd; of the other operations only as_q_function still calls it.
subs_ratfunc goes through the arithmetic above.  ``series_expand``
works on the integer rows of num/den(0) and den/den(0), and builds one
CycNumber per coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from qcflop.algebra.cyclotomic import CycField, CycNumber, _mul_vec
from qcflop.algebra.poly import Poly


class ExpansionError(ValueError):
    """Raised when a power-series expansion hits a pole at w = 0."""


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(p/g, q/g) for g = gcd(p, q), with q nonzero; a zero p leaves q/g a constant."""
    g = p.gcd(q)
    if g.degree < 1:
        return p, q
    return p._exquo(g), q._exquo(g)


class RatFunc:
    __slots__ = ("field", "root_order", "num", "den")

    def __init__(self, field: CycField, root_order: int, num: Poly, den: Poly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            num, den = _cancel(num, den)
            lead_inv = den.lead().inverse()
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.field = field
        self.root_order = root_order
        self.num = num
        self.den = den

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, field: CycField, root_order: int) -> "RatFunc":
        return cls(field, root_order, Poly.zero(field), Poly.one(field), reduce=False)

    @classmethod
    def one(cls, field: CycField, root_order: int) -> "RatFunc":
        return cls(field, root_order, Poly.one(field), Poly.one(field), reduce=False)

    @classmethod
    def constant(cls, field: CycField, root_order: int, c) -> "RatFunc":
        if isinstance(c, (int, Fraction)):
            c = field.from_rational(c)
        return cls(field, root_order, Poly(field, [c]), Poly.one(field), reduce=False)

    @classmethod
    def monomial(cls, field: CycField, root_order: int, exp: int, coeff=1) -> "RatFunc":
        """coeff * w^exp, with negative exponents allowed."""
        if exp >= 0:
            return cls(field, root_order, Poly.monomial(field, exp, coeff), Poly.one(field), reduce=False)
        num = Poly(field, [coeff])
        den = Poly.monomial(field, -exp) if num.coeffs else Poly.one(field)
        return cls(field, root_order, num, den, reduce=False)

    @classmethod
    def q_power(cls, field: CycField, root_order: int, d: int, coeff=1) -> "RatFunc":
        return cls.monomial(field, root_order, d * root_order, coeff)

    def _check(self, other: "RatFunc") -> None:
        if other.field is not self.field or other.root_order != self.root_order:
            raise ValueError("mixing rational functions over different settings")

    def _lift(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, CycNumber)):
            return RatFunc.constant(self.field, self.root_order, other)
        return None

    # arithmetic -----------------------------------------------------------

    def _new(self, num: Poly, den: Poly) -> "RatFunc":
        """A RatFunc in this setting from a num/den already in canonical form."""
        return RatFunc(self.field, self.root_order, num, den, reduce=False)

    def __add__(self, other) -> "RatFunc":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            return self
        if self.is_zero():
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        g = b.gcd(d)
        if g.degree < 1:
            t, den = a * d + c * b, b * d
        else:
            b, d = b._exquo(g), d._exquo(g)
            t, g = _cancel(a * d + c * b, g)
            den = b * d * g
        if t.is_zero():
            return RatFunc.zero(self.field, self.root_order)
        return self._new(t, den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __neg__(self) -> "RatFunc":
        return self._new(-self.num, self.den)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction, CycNumber)):
            if other == 0:
                return RatFunc.zero(self.field, self.root_order)
            return self._new(self.num.scale(other), self.den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, d = _cancel(self.num, o.den)
        c, b = _cancel(o.num, self.den)
        return self._new(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * o.inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return self.inverse() * other

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        lead_inv = self.num.lead().inverse()
        return self._new(self.den.scale(lead_inv), self.num.scale(lead_inv))

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return self._new(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        # a reduced fraction with a monic denominator stays so over an
        # extension field, so Poly's cross-field equality compares the values
        if isinstance(other, RatFunc):
            if other.root_order != self.root_order:
                return NotImplemented
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.is_constant() and self.num.constant() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.num.constant())
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        """False exactly at zero, as for a Fraction."""
        return not self.num.is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> CycNumber:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant()

    # calculus -------------------------------------------------------------

    def delta(self) -> "RatFunc":
        """q d/dq, computed as (w / root_order) d/dw by the quotient rule.

        For reduced n/d the numerator t = w (n'd - nd') over u d^2 shares
        with d^2 only what it shares with d: an irreducible f with f^e || d
        divides n'd - nd' exactly e - 1 times (f does not divide n, and f'
        is prime to f), so v_f(t) = e - 1 for f != w and e for f = w, below
        2e either way.  So g = gcd(t, d) = gcd(t, d^2), and (t/g) / u over
        d (d/g) is reduced, with a monic denominator.
        """
        f, u = self.field, self.root_order
        n, d = self.num, self.den
        t = n.derivative() * d - n * d.derivative()
        if t.is_zero():
            return RatFunc.zero(f, u)
        # w t is t with its rows moved up by one
        t, rest = _cancel(Poly._raw(f, (f.zero.nums,) + t.rows, t.den), d)
        return self._new(t if u == 1 else t.scale(Fraction(1, u)), d * rest)

    def series_expand(self, order: int) -> list[CycNumber]:
        """Taylor coefficients in w through w^order; errors on a pole at 0.

        With num / den(0) = N / n and den / den(0) = D / m as integer rows
        over integers (so D_0 = m), the coefficient of w^k is C_k / (n m^k)
        for the integer rows

            C_k = N_k m^k - sum_(j >= 1) D_j C_(k-j) m^(j-1),

        so each coefficient is one CycNumber, reduced once.
        """
        f = self.field
        if self.is_zero():
            return [f.zero] * (order + 1)
        if not any(self.den.rows[0]):
            raise ExpansionError("pole at w = 0")
        inv0 = self.den.constant().inverse()
        num, den = self.num.scale(inv0), self.den.scale(inv0)
        n, m, size, table = num.den, den.den, f.degree, f._rows
        # (j, D_j m^(j-1) when D_j is rational, D_j, m^(j-1)) for each D_j != 0
        terms = [(j, None if any(row[1:]) else row[0] * m ** (j - 1), row, m ** (j - 1))
                 for j, row in enumerate(den.rows) if j and any(row)]
        rows: list[list[int]] = []
        out: list[CycNumber] = []
        m_k = 1
        for k in range(order + 1):
            acc = [x * m_k for x in num.rows[k]] if k < len(num.rows) else [0] * size
            for j, c, row, m_j in terms:
                if j > k:
                    break
                if c is not None:
                    acc = [x - c * y for x, y in zip(acc, rows[k - j])]
                else:
                    prod = _mul_vec(row, rows[k - j], table, size)
                    acc = [x - y * m_j for x, y in zip(acc, prod)]
            rows.append(acc)
            out.append(CycNumber(f, tuple(acc), n * m_k))
            m_k *= m
        return out

    # substitutions ---------------------------------------------------------

    def rotate(self, i: int) -> "RatFunc":
        """sigma^i(f) = f(xi^(-i) w), xi = zeta^2, for the deck rotation
        sigma: w -> xi^(-1) w of the cover w -> q = w^u, over Q(zeta_(2u)).

        Coefficient k of num and den is multiplied by zeta^(2i(D - k)),
        D = deg den, so den stays monic (``Poly.deck_rotate``); sigma is an
        automorphism and zeta^m a unit, so the form stays canonical with no
        gcd.
        """
        if self.field.order != 2 * self.root_order:
            raise ValueError("the deck rotation needs the field Q(zeta_(2u))")
        top = self.den.degree
        return self._new(self.num.deck_rotate(i, top), self.den.deck_rotate(i, top))

    def subs_reciprocal(self) -> "RatFunc":
        """The rational function f(1/w), as w^top n(1/w) / (w^top d(1/w))
        with top = max(deg n, deg d).

        The two reversals stay coprime: w divides at most one of them, since
        n or d has degree top, and any other common irreducible factor would
        have its reversal divide both n and d.  So making the reversed
        denominator monic is the whole reduction.
        """
        top = max(self.num.degree, self.den.degree)
        num, den = self.num.reversed_coeffs(top), self.den.reversed_coeffs(top)
        inv = den.lead().inverse()
        return self._new(num.scale(inv), den.scale(inv))

    def subs_ratfunc(self, value: "RatFunc") -> "RatFunc":
        """Substitute w -> value (value in any compatible RatFunc setting)."""
        num_v = self.num.eval(value)
        den_v = self.den.eval(value)
        if isinstance(num_v, CycNumber):
            num_v = RatFunc.constant(value.field, value.root_order, num_v)
        if isinstance(den_v, CycNumber):
            den_v = RatFunc.constant(value.field, value.root_order, den_v)
        return num_v / den_v

    def as_q_function(self) -> "RatFunc":
        """Rewrite as a rational function of q = w^root_order.

        Valid only when the reduced form is supported on exponents divisible
        by root_order; returns a RatFunc with root_order 1.
        """
        u = self.root_order
        if u == 1:
            return self
        for poly in (self.num, self.den):
            for k, row in enumerate(poly.rows):
                if any(row) and k % u != 0:
                    raise ValueError("not a function of the integer Novikov variable")
        def compress(poly: Poly) -> Poly:
            # the rows off the multiples of u are zero, so the form stays canonical
            return Poly._raw(self.field, poly.rows[::u], poly.den)
        return RatFunc(self.field, 1, compress(self.num), compress(self.den))

    def eval_rational(self, x) -> CycNumber:
        """Evaluate at an exact scalar (CycNumber or rational) value of w."""
        if isinstance(x, (int, Fraction)):
            x = self.field.from_rational(x)
        n = self.num.eval(x)
        d = self.den.eval(x)
        return n / d

    def __repr__(self) -> str:
        if self.den == Poly.one(self.field):
            return f"({self.num})"
        return f"({self.num}) / ({self.den})"
