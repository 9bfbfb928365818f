"""Analytic-continuation identities for the extremal generating functions.

The carrier of continuation is the rational function G(q) = q/(1-(-1)^(r+1)q)
(the positive-degree part of the extremal three-point functions).  The flop
acts on generating functions by G -> (-1)^r - G together with inversion of
the extremal Novikov variable, and all higher structure is controlled by the
logarithmic derivative delta = q d/dq, for which delta^m G is a polynomial in
G with integer coefficients.  A polynomial in G is a ``Poly`` over Q, whose
variable is read as G.

G, its deltas and the chain-rule polynomials depend on r only through the
sign s = (-1)^(r+1), so the ladder G, delta G, delta^2 G, ... is derived once
per sign for the process: r = 1, 3, 5, ... share one, r = 2, 4, ... the other.

The continuation ring (``RingRElement``) is what the continuation map
``flop_transform`` reads and returns: polynomials in a formal symbol G over
monomials in the two curve classes.  The map acts on those terms alone, so
the ring holds only the terms and their equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from qcflop.algebra import CycField, Poly, RatFunc
from qcflop.algebra.linalg import add_term
from qcflop import cohomology as coh

Q = CycField(1)


def q_var() -> RatFunc:
    return RatFunc.monomial(Q, 1, 1)


_DELTA_LADDERS: dict[int, list[RatFunc]] = {}


def _ladder(r: int) -> list[RatFunc]:
    """The ladder G, delta G, delta^2 G, ... of the sign (-1)^(r+1), kept
    for the process and extended on demand by delta_g_direct."""
    if r < 1:
        raise ValueError("r must be at least 1")
    sign = (-1) ** (r + 1)
    ladder = _DELTA_LADDERS.get(sign)
    if ladder is None:
        q = q_var()
        ladder = _DELTA_LADDERS[sign] = [q / (RatFunc.one(Q, 1) - q * sign)]
    return ladder


def g_function(r: int) -> RatFunc:
    """The extremal function q/(1 - (-1)^(r+1) q) as an exact rational
    function: entry 0 of the delta-ladder of its sign."""
    return _ladder(r)[0]


def verify_reflection(r: int) -> bool:
    """G(q) + G(1/q) = (-1)^r, exactly."""
    g = g_function(r)
    return g + g.subs_reciprocal() == RatFunc.constant(Q, 1, (-1) ** r)


# --- polynomials in G --------------------------------------------------------


def delta_g_polynomial(r: int, m: int) -> Poly:
    """The polynomial p_m in G with delta^m G = p_m(G), by the chain rule:
    p_(m+1) = p_m' * (delta G), with delta G = G + (-1)^(r+1) G^2.  The
    coefficients stay integral."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    delta_g = Poly(Q, [0, 1, (-1) ** (r + 1)])
    p = Poly.monomial(Q, 1)
    for _ in range(m):
        p = p.derivative() * delta_g
    return p


def evaluate_g_polynomial(p: Poly, r: int) -> RatFunc:
    """p(G) for a polynomial p in G, homogenised over the reduced fraction
    G = a/b.

    With n = deg p, p(G) = (sum_k c_k a^k b^(n-k)) / b^n: the numerator is
    summed by Horner in a, each c_k beside its power of b.  The quotient is
    reduced as built: the numerator is c_n a^n modulo b, with c_n != 0 and
    gcd(a, b) = 1, so it is prime to b and to b^n, which is monic.
    """
    if p.is_zero():
        return RatFunc.zero(Q, 1)
    g = g_function(r)
    a, b = g.num, g.den
    coeffs = p.coeffs
    num, b_power = Poly.zero(Q), Poly.one(Q)
    for k in range(p.degree, -1, -1):
        num = num * a
        if not coeffs[k].is_zero():
            num = num + b_power.scale(coeffs[k])
        if k:
            b_power = b_power * b
    return RatFunc(Q, 1, num, b_power, reduce=False)


def delta_g_direct(r: int, m: int) -> RatFunc:
    """delta^m G by direct rational differentiation (independent route):
    entry m of the ladder of the sign of r, each entry the delta of the
    one before."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    ladder = _ladder(r)
    while len(ladder) <= m:
        ladder.append(ladder[-1].delta())
    return ladder[m]


def reciprocal_antisymmetry(r: int, m: int) -> bool:
    """delta^m G picks up (-1)^(m-1) under q -> 1/q, for m >= 1."""
    if m < 1:
        raise ValueError("m must be at least 1; m = 0 is the reflection identity")
    h = delta_g_direct(r, m)
    return h.subs_reciprocal() == h * Fraction((-1) ** (m - 1))


def genus1_kappa(r: int) -> Fraction:
    """Coefficient kappa with (genus-one dG)/dlog q = kappa * G."""
    from qcflop import canonical

    form, _ = canonical.genus_one_form(r)
    ratio = form / canonical.g_in_w(r).as_q_function()
    return ratio.constant_value().as_rational()


def genus1_npoint_invariance(r: int, n: int, kappa: Fraction | None = None) -> bool:
    """The n-point extremal genus-one functions transform with sign (-1)^(n-2).

    With dG/dlog q = kappa*G, the n-point function is kappa * delta^(n-1) G,
    so the statement reduces to the reciprocal antisymmetry at order n - 1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if kappa is None:
        kappa = genus1_kappa(r)
    lhs = delta_g_direct(r, n - 1) * kappa
    rhs = lhs.subs_reciprocal() * Fraction((-1) ** (n - 2))
    return lhs == rhs


def genus1_onepoint_defect(r: int, kappa: Fraction | None = None) -> Fraction:
    """Total defect of the genus-one one-point function across the flop.

    Combines the classical degree-zero term -(1/24)(c_(2r).(2h - x)) with the
    quantum correction (-1)^r kappa obtained from the genus-one potential;
    vanishes identically.  ``kappa`` is read from the pipeline when not given.
    """
    if kappa is None:
        kappa = genus1_kappa(r)
    classical = -Fraction(1, 24) * coh.chern_flop_identity(r)
    return classical + Fraction((-1) ** r) * kappa


def fp_generating_invariance(m: int) -> bool:
    """Invariance of the d >= 1 part of the higher-genus zero-point series.

    For the threefold case the degree-d values are proportional to d^m with
    m = 2g - 3 odd; the series is C_g * delta^m G with C_g an opaque positive
    constant, so invariance is the odd-order reciprocal antisymmetry.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and positive (m = 2g - 3)")
    if not reciprocal_antisymmetry(1, m):
        return False
    # degree pattern: the q^d coefficient of delta^m G at r = 1 is d^m
    coeffs = delta_g_direct(1, m).series_expand(10)
    return all(coeffs[d] == d**m for d in range(1, 11))


# --- the analytic-continuation ring ------------------------------------------


class RingRElement:
    """An element of the continuation ring, as ``flop_transform`` reads it:
    a polynomial in the formal symbol G over Laurent monomials in q^l and
    monomials in q^g.

    Terms map (l_exponent, g_exponent, G_degree) -> Fraction, with
    g_exponent >= 0 and G_degree >= 0; a zero coefficient drops its term.
    G is transcendental here: the map never evaluates it as a function of q.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[tuple[int, int, int], Fraction]):
        for (_, eg, k) in terms:
            if eg < 0 or k < 0:
                raise ValueError("fiber-class exponent and G-degree must be nonnegative")
        self.r = r
        self.terms = {key: Fraction(c) for key, c in terms.items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingRElement):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.terms.items()))))


def flop_transform(x: RingRElement) -> RingRElement:
    """The continuation map: G -> (-1)^r - G, with l -> -l' and g -> g' + l'
    on the curve-class exponents."""
    sign = (-1) ** x.r
    out: dict[tuple[int, int, int], Fraction] = {}
    for (el, eg, k), c in x.terms.items():
        # ((-1)^r - G)^k expanded binomially
        for j in range(k + 1):
            add_term(out, (eg - el, eg, j), c * comb(k, j) * sign ** (k - j) * (-1) ** j)
    return RingRElement(x.r, out)
