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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from qcflop.algebra import CycField, Poly, RatFunc, linalg
from qcflop.algebra.linalg import add_term, add_terms, mul_terms, scale_terms
from qcflop import cohomology as coh

Q = CycField(1)


class NotOfFiniteFormError(ValueError):
    """Raised when a series does not fit the finite polynomial-in-G form."""


class NonUniqueFitError(ValueError):
    """Raised when a series fits the finite form in more than one way."""


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


def genus1_onepoint_defect(r: int, chern_shift: Fraction | int = 0,
                           kappa: Fraction | None = None) -> Fraction:
    """Total defect of the genus-one one-point function across the flop.

    Combines the classical degree-zero term -(1/24)(c_(2r).(2h - x)) with the
    quantum correction (-1)^r kappa obtained from the genus-one potential;
    vanishes identically.  ``chern_shift`` perturbs the Chern pairing for
    negative controls; ``kappa`` is read from the pipeline when not given.
    """
    if kappa is None:
        kappa = genus1_kappa(r)
    chern_pairing = coh.chern_flop_identity(r) + chern_shift
    classical = -Fraction(1, 24) * chern_pairing
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
    """Polynomial in the formal symbol G over Laurent-in-q^l, poly-in-q^g terms.

    Terms map (l_exponent, g_exponent, G_degree) -> Fraction with
    g_exponent >= 0; G is transcendental here, its relation to q enters only
    at evaluation time.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[tuple[int, int, int], Fraction]):
        for (_, eg, k) in terms:
            if eg < 0 or k < 0:
                raise ValueError("fiber-class exponent and G-degree must be nonnegative")
        self.r = r
        self.terms = {key: Fraction(c) for key, c in terms.items() if c}

    @classmethod
    def g_symbol(cls, r: int) -> "RingRElement":
        return cls(r, {(0, 0, 1): Fraction(1)})

    @classmethod
    def q_monomial(cls, r: int, el: int, eg: int = 0) -> "RingRElement":
        return cls(r, {(el, eg, 0): Fraction(1)})

    @classmethod
    def finite_form(cls, r: int, d2: int, polys: list[Poly]) -> "RingRElement":
        """q^(d2 g) (p_0(G) + q^l p_1(G) + ... + q^(d2 l) p_d2(G)), for
        polynomials p_j in G with rational coefficients."""
        if len(polys) != d2 + 1:
            raise ValueError("need exactly d2 + 1 polynomials")
        return cls(r, {(j, d2, k): c.as_rational()
                       for j, p in enumerate(polys) for k, c in enumerate(p.coeffs)})

    def __add__(self, other: "RingRElement") -> "RingRElement":
        return RingRElement(self.r, add_terms(self.terms, other.terms))

    def __mul__(self, other: "RingRElement") -> "RingRElement":
        return RingRElement(self.r, mul_terms(self.terms, other.terms))

    def scale(self, c) -> "RingRElement":
        return RingRElement(self.r, scale_terms(self.terms, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingRElement):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.terms.items()))))

    def contact_weight(self) -> int:
        """The common fiber-class exponent d2, when it is uniform."""
        weights = {eg for (_, eg, _) in self.terms}
        if len(weights) != 1:
            raise ValueError("element mixes contact weights")
        return weights.pop()

    def delta(self) -> "RingRElement":
        """q^l d/dq^l; stays inside the ring since delta G = G + (-1)^(r+1) G^2."""
        sign = (-1) ** (self.r + 1)
        out: dict[tuple[int, int, int], Fraction] = {}
        for (el, eg, k), c in self.terms.items():
            # product rule on q^(el) * G^k, with k G^(k-1) (G + sign G^2) from G^k
            add_term(out, (el, eg, k), c * (el + k))
            if k:
                add_term(out, (el, eg, k + 1), c * k * sign)
        return RingRElement(self.r, out)


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


def ring_element_series(x: RingRElement, order: int) -> dict[int, list[Fraction]]:
    """Expansion in q^l through the given order, grouped by fiber exponent.

    Returns eg -> dense coefficient list in q^l (index = l-exponent); requires
    all l-exponents to be nonnegative after evaluation (true for effective
    elements at d2 >= 0).
    """
    g = g_function(x.r)
    out: dict[int, list[Fraction]] = {}
    for (el, eg, k), c in x.terms.items():
        if el < 0:
            raise ValueError("series expansion needs nonnegative extremal exponents")
        series = (g ** k).series_expand(order)
        row = out.setdefault(eg, [Fraction(0)] * (order + 1))
        for d, coeff in enumerate(series):
            if el + d <= order:
                row[el + d] += c * coeff.as_rational()
    return out


def g_polynomial_fit(series: list[Fraction], d2: int, degree_bound: int, r: int) -> list[Poly]:
    """Fit a q^l-series to the form sum_j q^(j l) p_j(G), j = 0..d2, and
    return the polynomials p_j in G.

    The linear system in the (d2+1)(degree_bound+1) unknown coefficients is
    solved exactly; extra series coefficients must be consistent, else
    NotOfFiniteFormError.  The fit must be unique: when the series leaves an
    unknown free, NonUniqueFitError names the free ones.  That is always the
    case for d2 >= 1 with degree_bound >= 1, since q (1 + (-1)^(r+1) G) = G
    relates the blocks q G, q and G.
    """
    width = degree_bound + 1
    unknowns = [(j, k) for j in range(d2 + 1) for k in range(width)]
    rows = len(series)
    if rows < len(unknowns):
        raise ValueError("not enough series coefficients to determine the fit")
    g = g_function(r)
    # the unknown (j, k) multiplies q^(j l) G^k
    powers = [[c.as_rational() for c in (g ** k).series_expand(rows - 1)] for k in range(width)]
    matrix = [{col: powers[k][i - j] for col, (j, k) in enumerate(unknowns)
               if i >= j and powers[k][i - j]} for i in range(rows)]
    try:
        x, pivots = linalg.solve(matrix, len(unknowns), [Fraction(c) for c in series], Fraction(1))
    except linalg.InconsistentSystemError:
        raise NotOfFiniteFormError("series is not of the finite polynomial-in-G form") from None
    if len(pivots) < len(unknowns):
        free = [unknowns[col] for col in sorted(set(range(len(unknowns))) - set(pivots))]
        raise NonUniqueFitError(f"the fit is not unique: rank {len(pivots)} of {len(unknowns)}, "
                                f"free unknowns (j, k) = {', '.join(map(str, free))}")
    return [Poly(Q, x[j * width:(j + 1) * width]) for j in range(d2 + 1)]
