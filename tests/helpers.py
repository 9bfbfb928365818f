"""Helpers that more than one test module reads: the product reference for
the symmetric functions the canonical frame writes in closed form, the
Laurent-polynomial reference for rational functions in w, the
Fraction-valued references for the cohomology ring, and the perturbations of
the Batyrev eigen formulas.  Not a test module, so pytest collects nothing
here.
"""

from fractions import Fraction
from math import comb

from qcflop import batyrev as bat
from qcflop.algebra import FracSeries, Poly, RatFunc, elementary_symmetric


class NonIntegrableError(ValueError):
    """Raised by ``integrate_in_t`` when a constant term obstructs it."""


class NotLaurentError(ValueError):
    """Raised when a rational function is not a Laurent polynomial."""


def is_laurent(f):
    """Whether the reduced denominator of the RatFunc f is a monomial."""
    return f.den.is_monomial()


def laurent_items(f):
    """Exponent -> coefficient map of a RatFunc with a monomial denominator;
    the reference for the Laurent values of ``canonical``."""
    if not is_laurent(f):
        raise NotLaurentError(f"denominator {f.den} is not a monomial")
    shift = f.den.monomial_exponent()
    inv = f.den.coeffs[shift].inverse()
    return {k - shift: c * inv for k, c in enumerate(f.num.coeffs) if not c.is_zero()}


def from_laurent_items(field, root_order, items):
    """The RatFunc sum of coeff * w^exp over ``items``, one reduced sum per term."""
    out = RatFunc.zero(field, root_order)
    for exp, c in items.items():
        out = out + RatFunc.monomial(field, root_order, exp, c)
    return out


def scaled_variable(p, c):
    """p(c w) for a Poly p, coefficient k times c^k: the substitution that
    the deck rotation w -> xi^(-i) w is checked against."""
    return Poly(p.field, [coeff * c ** k for k, coeff in enumerate(p.coeffs)])


def mixed_numerators(field):
    """Polynomials over ``field`` with rational and irrational coefficients,
    and zero rows between them, for the deck-rotation tests."""
    z = field.zeta()
    return [Poly(field, [1, z, 0, Fraction(-2, 3), z ** 3 + 2]),
            Poly(field, [0, 0, z * 5 - 1]),
            Poly(field, [Fraction(1, 2)])]


def integrate_in_t(f):
    """Inverse of delta on Laurent polynomials: w^a -> (root_order/a) w^a.
    A nonzero w^0 term has no such preimage and raises NonIntegrableError."""
    out = {}
    for a, c in laurent_items(f).items():
        if a == 0:
            raise NonIntegrableError(f"nonzero constant term {c} is not integrable")
        out[a] = c * Fraction(f.root_order, a)
    return from_laurent_items(f.field, f.root_order, out)


def elementary_symmetric_omitting(values, omit, ring_one, es=None):
    """e_0..e_(n-1) of the n values with the one at index ``omit`` left out.

    They are the e_0..e_n of all the values (``es``, formed here when not
    given) divided by 1 + v t for the omitted v, so
    e_k(omitting v) = e_k - v e_(k-1)(omitting v), an exact division over any
    commutative ring.  The reference for ``canonical._sym_omitting``.
    """
    if not 0 <= omit < len(values):
        raise IndexError(f"omit index {omit} out of range")
    if es is None:
        es = elementary_symmetric(values, ring_one)
    v = values[omit]
    out = [es[0]]
    for e_k in es[1:-1]:
        out.append(e_k - v * out[-1])
    return out


def poly_division_reduce_oracle(r, raw):
    """Independent reduction: substitute x-powers by long division data.

    Reduces via a different route than CohClass.reduce: first push every
    x-power above r+1 down one at a time using the expanded relation written
    with lowest x first, then drop h-powers, iterating until stable.
    """
    work = {k: Fraction(v) for k, v in raw.items() if v}
    changed = True
    while changed:
        changed = False
        for (a, b), c in sorted(work.items()):
            if a > r:
                work.pop((a, b))
                changed = True
                break
            if b > r + 1:
                work.pop((a, b))
                # x^b = x^(b-r-2) * x^(r+2), x^(r+2) = sum_k (-1)^(k+1) C(r+1,k) h^k x^(r+2-k)
                for k in range(1, r + 2):
                    coeff = Fraction((-1) ** (k + 1) * comb(r + 1, k)) * c
                    key = (a + k, b - k)
                    val = work.get(key, Fraction(0)) + coeff
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)
                changed = True
                break
    return {k: v for k, v in work.items() if v}


def chern_class_reference(r, k):
    """c_k of (1+h)^(r+1) (1+x) (1+x-h)^(r+1) in Fractions, reduced by
    ``poly_division_reduce_oracle``: the coefficient of h^a x^b comes from
    h^i in (1+h)^u, x^e in (1+x) and x^j (-h)^l in (1+x-h)^u, u = r+1, with
    the binomial and the multinomial coefficient."""
    u = r + 1
    raw = {}
    for i in range(u + 1):
        for e in (0, 1):
            for j in range(u + 1):
                l = k - i - e - j
                if 0 <= l <= u - j:
                    multinomial = comb(u, j) * comb(u - j, l)
                    key = (i + l, e + j)
                    raw[key] = raw.get(key, Fraction(0)) + comb(u, i) * multinomial * (-1) ** l
    return poly_division_reduce_oracle(r, raw)


def record_calls(monkeypatch, change=None):
    """eigen_formulas that records each (i, j) it is called for and, given
    ``change``, returns change(pair) instead of the pair."""
    real = bat.eigen_formulas
    calls = []

    def formulas(r, i, j, order):
        calls.append((i, j))
        pair = real(r, i, j, order)
        return pair if change is None else change(pair)

    monkeypatch.setattr(bat, "eigen_formulas", formulas)
    return calls


def corrupt_orbit(monkeypatch, orbit, which="h"):
    """eigen_formulas with eta^j q1^(3/(r+1)) q2^(1/(r+2)) added to h (or xi)
    at every pair (orbit, j), so the pairs stay eta^j times (orbit, 0);
    returns the list of the (i, j) it was called for."""
    def change(pair):
        if pair.i == orbit:
            r, order = pair.r, pair.h.trunc
            eta_j = pair.h.field.zeta(pair.j * (r + 1))
            extra = FracSeries.monomial(pair.h.field, r + 1, r + 2, order, 3, 1, eta_j)
            setattr(pair, which, getattr(pair, which) + extra)
        return pair

    return record_calls(monkeypatch, change)
