"""Canonical coordinates, connection one-form, R-matrix and genus-one potential.

Everything here lives on the extremal Novikov line (the small-quantum locus
with the Kaehler coordinate t, q = e^t), in the cyclotomic field of order
2(r+1) so that the half-integer root-of-unity powers of the normalized frame
exist.  The root Novikov variable w satisfies w^(r+1) = q.

Conventions:

- xi is the primitive (r+1)-st root of unity, zeta the primitive 2(r+1)-st
  root with zeta^2 = xi.
- c_i = (-1)^r xi^i w^(-1), a_i = 1 + c_i and the quantum spectrum roots
  p_i = lam / a_i, which solve q (lam - p)^(r+1) = p^(r+1) identically, are
  built from the linear factors L_i = w + (-1)^r xi^i, the frame's one
  source: a_i = L_i/w and p_i = lam w/L_i, reduced as written.
- The normalized frame enters only through the factorization Psi = D M with
  M_{i,mu} = p_i^(mu - r) and diag(D)^2 = q c_i / ((r+1) lam); the square
  roots themselves are never materialized, only the ratios
  d_i/d_j = e_i e_j zeta^(i-j), where e in {+-1}^(r+1) is the branch choice.
- One-forms are restricted to the t-line and stored as their dt-coefficients.

The deck rotation sigma: w -> xi^(-1) w of the cover w -> q = w^(r+1), the
monodromy of q around 0, fixes q and lam, commutes with delta and sends c_i,
a_i and p_i to c_(i+1), a_(i+1) and p_(i+1), indices mod r+1
(``RatFunc.rotate``).  Every matrix of the default branch is equivariant
under it, with one sign: X[i][j] = (-1)^[j<i] sigma^i(X[0][(j-i) mod (r+1)]),
since the ratios zeta^(i-j) pick up zeta^(r+1) = -1 when an index wraps past
r; on the diagonal, X[i][i] = sigma^i(X[0][0]).  This holds for the
connection base, R1, every R_n of the recursion and every R_a^T R_b, so each
is derived from its row 0 alone and ``_fill`` gives the other rows; R1's
diagonal is diagonal 0 integrated and rotated, and a unitarity residual
reads row 0 of its sum, whose first nonzero entry lies there.  Every stage
computes the default branch only.  Another branch is the gauge E X E with
E = diag(e), and a pair flip negates one pair (``_branch``); R1's diagonal
and the genus-one form read each pair only through R1_ij R1_ji, which a
gauge leaves alone, so ``branch_failure``, which checks that a branch of R1
carries one sign per pair, is the one place a branch is read.  sigma
also sends eps_i to eps_(i+1), with no sign, so du_j(eps_i) and the pairing
of eps_i with eps_j are sigma^i of their values at (0, (j - i) mod (r+1));
``by_orbit`` derives that row 0 and covers a pair by rotation only where it
checks that sigma carries the inputs.  The display forms depend on i and j
through k = (j - i) mod (r+1), and form their sums over mu once per k.

Known factors.  Every denominator the frame builds splits over w and the
L_i, whose product is D = w^(r+1) + (-1)^r, so each quantity of the spectrum
is a polynomial in w or one over a denominator known in advance (a power of
w, of one L_j or of L_i L_j, or w^m D), written down reduced or reduced once
instead of through a gcd per partial sum.  The L_i are a full orbit of
sigma, so with u = r+1, prod_i (1 + L_i t) = (1 + wt)^u - (-(-1)^r t)^u,
and their symmetric functions are written down with no product:
``_linear_factors`` gives e_k(L) = C(u, k) w^k for k < u and e_u = D, and
``_sym_omitting`` E^i_k = e_k(L_l : l != i) = w^k S^i_k(a) =
sum_m C(r-m, k-m) (-L_i(0))^m w^(k-m), whose last, E^i_r = D/L_i,
``_product_omitting`` writes down alone.  ``charpoly_coefficients``,
``term_log_delta``, ``delta_i``, ``_m_inverse_column`` and
``_spectrum_sum`` are built from these factors, and ``delta_product``
forms prod_i Delta_i over D^(2r).

Laurent values.  The entries of M, column 0 of dM^-1, the connection's
core, R1 off the diagonal and every R_n of the recursion are Laurent
polynomials in w, each lam^a times a polynomial over a known power of w, and
they are held so (``_Laurent``: a ``Poly`` numerator, the weight a and the
power of w), not as reduced rational functions.  The denominators are known:
M_{i,mu} = p_i^(mu - r) = L_i^(r-mu) / (lam w)^(r-mu); M^-1 has polynomial
entries, which delta keeps polynomial; and L_j - L_i is a nonzero constant,
so 1/(p_0 - p_j) = L_0 L_j / (lam w (L_j - L_0)) is the polynomial L_0 L_j
times a constant over one more power of lam w.  So a product is a product of
numerators, a sum a shift by rows and a sum of numerators, delta and the
integration in t act coefficient by coefficient, the deck rotation is a root
shift per coefficient, and no step takes a gcd.  A value becomes an
EquivScalar only where a stage returns it: the power of w that divides its
numerator is cancelled then, by the numerator's valuation, which leaves it
reduced.

The idempotent basis is kept factored: eps_i = pref_i sum_k s_ik (p/lam)^k
with pref_i = q c_i a_i^r/(r+1) = (-1)^r xi^i L_i^r/(r+1), a polynomial, and
s_ik = (-1)^k S^i_k(a), the signed elementary symmetric functions of the a_l
with l != i, held as the polynomials s_ik w^k = (-1)^k E^i_k.  Since the
pairing of p^k with p^l is C(2r-d, r-d) lam^-(2r+1-d) for d = k + l <= r,
every term of the pairing of eps_i with eps_j has weight lam^-(2r+1), and
``eps_pairing`` is pref_i pref_j lam^-(2r+1) sum_d C(2r-d, r-d) [t^d]
E_i(t) E_j(t) with E_i(t) = sum_k s_ik t^k, one convolution of polynomials
over w^r.  Likewise ``du_of_eps`` is pref_i (sum_k s_ik a_j^(r-k)) / a_j^r,
free of the weight: a Horner sum of polynomials over L_j^r.

Caching (per process, never shared between processes or switched off):

- ``frame_for(r)`` keeps one frame per r; ``build_spectrum(r)`` always builds
  a fresh, uncached one.
- A frame holds, in ``frame.stages``, its stages, each computed at most
  once per frame: the e_m(L) of the linear factors, the E^i_k of each omit
  index i read so far (the idempotent basis reads every i, column 0 of M^-1
  only i = 0), ``delta_i``, ``term_log_delta``, ``term_c_minus_one``, the
  base of ``connection_form`` (which reads column 0 of M^-1 and does not
  keep it), R1 off the diagonal and on it (``first_order``, shared by the
  appendix suite and ``genus_one_form(r)``), the genus-one form of
  ``genus_one_form(r)`` on the frame ``frame_for(r)``, the r+1 sums
  sum_mu mu xi^(mu k) that both display forms read, and the basis factors
  (``eps_factors``: the pref_i and the s_ik w^k) read by ``du_of_eps`` and
  ``eps_pairing``.
- ``by_orbit`` keeps nothing: the suite calls it once per cell, and the
  rows 0 it derives live as long as the functions it returns.
- ``delta_product`` keeps nothing: the suite forms prod_i Delta_i once per
  cell, over D^(2r).
- ``xi_g_terms`` keeps nothing: the suite derives the pairs once per cell and
  passes them to ``xi_constant`` and ``xi_constant_pair_identity``.

Cached values are immutable or copied on return: ``connection_form`` returns
a fresh copy of the base, and ``first_order`` and ``genus_one_form`` return
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import comb, lcm

from qcflop.algebra import (
    CycField,
    CycNumber,
    EquivScalar,
    InhomogeneousError,
    LimitError,
    Poly,
    RatFunc,
    elementary_symmetric,  # noqa: F401  the alias check of perfbench/test_bench.py reads it
)


class FlatnessError(ValueError):
    """Raised when a diagonal integrand carries a non-integrable constant."""


class CancellationError(ValueError):
    """Raised when negative weight powers survive an announced limit."""


# --- Laurent values ------------------------------------------------------------


class _Laurent:
    """lam^weight num / w^low for a polynomial num in w, a Laurent value of
    the frame over its known denominator (see "Laurent values").

    A product multiplies the numerators and adds the exponents; a sum moves
    the numerator of smaller ``low`` up by rows and adds; delta, integration
    and the deck rotation act row by row.  No operation takes a gcd, so the
    numerator may keep a power of w that the denominator could cancel;
    ``scalar`` cancels it, by the valuation of the numerator.  The field is
    the frame's Q(zeta_(2u)), so u is half its order.  Zero has weight 0 and
    adds to a value of any weight; two nonzero values of different weights
    do not add.
    """

    __slots__ = ("weight", "num", "low")

    def __init__(self, weight: int, num: Poly, low: int = 0):
        self.weight = weight if num.rows else 0
        self.num = num
        self.low = low

    @classmethod
    def of(cls, x: EquivScalar) -> "_Laurent":
        """x as a Laurent value; its reduced denominator must be a power of w."""
        den = x.value.den
        if not den.is_monomial():
            raise ValueError(f"{x.value} is not a polynomial over a power of w")
        return cls(x.weight, x.value.num, den.degree)

    def scalar(self) -> EquivScalar:
        """The value as an EquivScalar: num / w^low with the power of w that
        divides num cancelled, which is reduced, with a monic denominator."""
        num, f = self.num, self.num.field
        v = min(self.low, num.monomial_exponent()) if num.rows else self.low
        num, den = num.shift(-v), Poly.one(f).shift(self.low - v)
        u = f.order // 2
        return EquivScalar(f, u, self.weight, RatFunc(f, u, num, den, reduce=False))

    def is_zero(self) -> bool:
        return not self.num.rows

    def constant(self) -> CycNumber | None:
        """The coefficient of w^0 when the value is constant in w, else None;
        the weight is the caller's to check."""
        num, low = self.num, self.low
        if any(any(row) for k, row in enumerate(num.rows) if k != low):
            return None
        return num.coefficient(low)

    def __add__(self, other: "_Laurent") -> "_Laurent":
        if not other.num.rows:
            return self
        if not self.num.rows:
            return other
        if self.weight != other.weight:
            raise InhomogeneousError(f"adding weights lam^{self.weight} and lam^{other.weight}")
        a, b = (self, other) if self.low >= other.low else (other, self)
        return _Laurent(a.weight, a.num + b.num.shift(a.low - b.low), a.low)

    def __neg__(self) -> "_Laurent":
        return _Laurent(self.weight, -self.num, self.low)

    def __sub__(self, other: "_Laurent") -> "_Laurent":
        return self + (-other)

    def __mul__(self, other) -> "_Laurent":
        """The product with another Laurent value, or with a constant."""
        if isinstance(other, _Laurent):
            return _Laurent(self.weight + other.weight, self.num * other.num, self.low + other.low)
        return _Laurent(self.weight, self.num.scale(other), self.low)

    def _rows_times(self, factor) -> list:
        """The numerator's rows, row k times the int factor(k - low)."""
        low = self.low
        return [[x * factor(k - low) for x in row] for k, row in enumerate(self.num.rows)]

    def delta(self) -> "_Laurent":
        """q d/dq = (w/u) d/dw: the coefficient of w^e times e/u."""
        f = self.num.field
        rows = self._rows_times(lambda e: e)
        return _Laurent(self.weight, Poly._of(f, rows, self.num.den * (f.order // 2)), self.low)

    def integrate(self, constant_error: str) -> "_Laurent":
        """The inverse of delta: the coefficient of w^e times u/e.  A nonzero
        w^0 term has no preimage and raises FlatnessError with
        ``constant_error`` formatted at the weight ``e``."""
        num, low = self.num, self.low
        if low < len(num.rows) and any(num.rows[low]):
            raise FlatnessError(constant_error.format(e=self.weight))
        f = num.field
        # over m = lcm of the exponents e, the factor u/e is the int u m/e
        m = lcm(*(k - low for k, row in enumerate(num.rows) if any(row))) if num.rows else 1
        u = f.order // 2
        rows = self._rows_times(lambda e: u * m // e if e else 0)
        return _Laurent(self.weight, Poly._of(f, rows, num.den * m), low)

    def rotate(self, i: int) -> "_Laurent":
        """sigma^i, w -> xi^(-i) w: the coefficient of w^e times
        xi^(-ie) = zeta^(-2ie), a root shift per row of the numerator with
        ``low`` as its reference exponent (``Poly.twist``)."""
        return _Laurent(self.weight, self.num.twist(-2 * i, self.low), self.low)


# --- frame -------------------------------------------------------------------


@dataclass
class CanonicalFrame:
    r: int
    field: CycField
    zeta: CycNumber
    xi: CycNumber
    L: list[Poly]
    c: list[RatFunc]
    a: list[RatFunc]
    p: list[EquivScalar]
    stages: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    @property
    def u(self) -> int:
        return self.r + 1

    def lam(self, exp: int = 1, coeff=1) -> EquivScalar:
        return EquivScalar.lam_power(self.field, self.u, exp, coeff)

    def q(self) -> RatFunc:
        return RatFunc.q_power(self.field, self.u, 1)


def build_spectrum(r: int) -> CanonicalFrame:
    """The linear factors L_i = w + (-1)^r xi^i and, from them, c_i = L_i(0)/w,
    a_i = L_i/w and the spectrum roots p_i = lam w/L_i, each reduced as
    written: L_i is monic and L_i(0) is not zero."""
    if r < 1:
        raise ValueError("r must be at least 1")
    fld = CycField(2 * (r + 1))
    zeta = fld.zeta()
    xi = zeta * zeta
    u = r + 1
    sign = Fraction((-1) ** r)
    w = Poly.monomial(fld, 1)
    L = [Poly(fld, [xi**i * sign, 1]) for i in range(u)]
    c = [RatFunc(fld, u, Poly(fld, [L_i.constant()]), w, reduce=False) for L_i in L]
    a = [RatFunc(fld, u, L_i, w, reduce=False) for L_i in L]
    p = [EquivScalar(fld, u, 1, RatFunc(fld, u, w, L_i, reduce=False)) for L_i in L]
    return CanonicalFrame(r=r, field=fld, zeta=zeta, xi=xi, L=L, c=c, a=a, p=p)


_FRAMES: dict[int, CanonicalFrame] = {}


def frame_for(r: int) -> CanonicalFrame:
    """The frame of rank r shared by every caller in this process."""
    frame = _FRAMES.get(r)
    if frame is None:
        frame = _FRAMES[r] = build_spectrum(r)
    return frame


def char_residuals(frame: CanonicalFrame) -> list[EquivScalar]:
    """q (lam - p_i)^(r+1) - p_i^(r+1) for each i; all must vanish exactly.

    The residual is formed at i = 0.  sigma fixes q and lam, so where
    p_i = sigma^i(p_0) the residual at i is sigma^i of it; any other i is
    formed directly, as ``by_orbit`` derives a pair its check does not cover.
    """
    r = frame.r
    q = EquivScalar.from_ratfunc(frame.q())
    lam = frame.lam()

    def residual(p_i: EquivScalar) -> EquivScalar:
        return q * (lam - p_i) ** (r + 1) - p_i ** (r + 1)

    p_0 = frame.p[0]
    first = residual(p_0)
    return [first] + [first.rotate(i) if p_i == p_0.rotate(i) else residual(p_i)
                      for i, p_i in enumerate(frame.p[1:], 1)]


def g_in_w(r: int) -> RatFunc:
    """The extremal function G as a rational function of w (with q = w^(r+1))."""
    fld = CycField(2 * (r + 1))
    q = RatFunc.q_power(fld, r + 1, 1)
    return q / (RatFunc.one(fld, r + 1) - q * Fraction((-1) ** (r + 1)))


def as_g_polynomial(f: RatFunc, r: int) -> Poly | None:
    """Write a rational function of q as a polynomial in G, if possible.

    Substitutes the inverse relation q = G/(1 + (-1)^(r+1) G); a polynomial
    fit exists exactly when f is a function of q and the substituted
    denominator is constant, and then it is 1, since a reduced denominator is
    monic.
    """
    try:
        fq = f.as_q_function()
    except ValueError:  # a function of w that is not one of q
        return None
    fld = f.field
    g = RatFunc.monomial(fld, 1, 1)
    q_of_g = g / (RatFunc.one(fld, 1) + g * Fraction((-1) ** (r + 1)))
    composed = fq.subs_ratfunc(q_of_g)
    return composed.num if composed.den.degree == 0 else None


def _linear_factors(frame: CanonicalFrame) -> tuple[Poly, ...]:
    """The elementary symmetric functions e_0(L), ..., e_(r+1)(L) of the
    linear factors, written down once per frame (see "Known factors"):
    C(u, k) w^k for k < u, and D = w^u + (-1)^r, the one denominator of a
    sum over the spectrum."""
    if "linear_factors" not in frame.stages:
        fld, u = frame.field, frame.u
        D = Poly(fld, [(-1) ** frame.r] + [0] * frame.r + [1])
        frame.stages["linear_factors"] = tuple(
            Poly.monomial(fld, k, comb(u, k)) for k in range(u)) + (D,)
    return frame.stages["linear_factors"]


def charpoly_coefficients(frame: CanonicalFrame) -> list[EquivScalar]:
    """Elementary symmetric functions e_1..e_(r+1) of the spectrum roots:
    with p_i = lam w / L_i, e_k(p) = lam^k w^k e_(r+1-k)(L) / D, from the
    products of the spectrum's own factors."""
    fld, u = frame.field, frame.u
    es = _linear_factors(frame)
    return [EquivScalar(fld, u, k, RatFunc(fld, u, Poly.monomial(fld, k) * es[u - k], es[u]))
            for k in range(1, u + 1)]


def charpoly_expected(frame: CanonicalFrame, k: int) -> EquivScalar:
    """(-1)^r C(r+1, k) G lam^k, the closed form of e_k."""
    r = frame.r
    gw = g_in_w(r) * Fraction((-1) ** r * comb(r + 1, k))
    return EquivScalar(frame.field, frame.u, k, gw)


# --- pairing and canonical basis ----------------------------------------------


def _pairing_weight(r: int, d: int) -> int:
    """C(2r-d, r-d): the pairing of p^k with p^l for d = k + l <= r is this
    weight times lam^-(2r+1-d)."""
    return comb(2 * r - d, r - d)


def equiv_pairing(r: int, k: int, l: int) -> EquivScalar:
    """The equivariant pairing of p^k with p^l: C(2r-d, r-d) lam^-(2r+1-d)
    for d = k + l <= r, and zero beyond."""
    if k < 0 or l < 0:
        raise ValueError("exponents must be nonnegative")
    fld = CycField(2 * (r + 1))
    d = k + l
    if d > r:
        return EquivScalar.zero(fld, r + 1)
    return EquivScalar.lam_power(fld, r + 1, -(2 * r + 1 - d), _pairing_weight(r, d))


def lemma_zero_value(r: int, k: int) -> EquivScalar:
    """The pairing of (p/lam)^k (1 - p/lam)^(2r-k); vanishes for k <= r-1."""
    fld = CycField(2 * (r + 1))
    out = EquivScalar.zero(fld, r + 1)
    for m in range(2 * r - k + 1):
        d = k + m
        if d > r:
            continue
        coeff = Fraction((-1) ** m * comb(2 * r - k, m))
        out = out + equiv_pairing(r, d, 0) * EquivScalar.lam_power(fld, r + 1, -d, coeff)
    return out


def _omitted_powers(frame: CanonicalFrame, omit: int) -> list[CycNumber]:
    """(-L_omit(0))^m = (-1)^((r+1)m) xi^(omit m) for m = 0..r."""
    r, fld = frame.r, frame.field
    sign = (-1) ** (r + 1)
    return [fld.zeta(2 * omit * m) * sign ** m for m in range(r + 1)]


def _sym_omitting(frame: CanonicalFrame, omit: int) -> tuple[Poly, ...]:
    """The polynomials E^omit_k = e_k(L_l : l != omit), k = 0..r, shared by
    the idempotent basis and M^-1, written down once per frame and omit
    index, on its first read: prod_l (1 + L_l t) over 1 + L_i t is
    sum_m (1 + wt)^(r-m) (-L_i(0) t)^m."""
    rows = frame.stages.setdefault("sym_omitting", {})
    if omit not in rows:
        r, fld = frame.r, frame.field
        powers = _omitted_powers(frame, omit)
        # the coefficient of w^d in E^i_k has m = k - d
        rows[omit] = tuple(Poly(fld, [powers[k - d] * comb(r - k + d, d) for d in range(k + 1)])
                           for k in range(r + 1))
    return rows[omit]


def _product_omitting(frame: CanonicalFrame, omit: int) -> Poly:
    """E^omit_r = D / L_omit = sum_m (-L_omit(0))^m w^(r-m), the last of
    ``_sym_omitting(frame, omit)``, written down without the rest of it."""
    return Poly(frame.field, _omitted_powers(frame, omit)[::-1])


def _eps_factors(frame: CanonicalFrame) -> tuple[tuple[Poly, ...], tuple[tuple[Poly, ...], ...]]:
    """The idempotent basis in factored form, as polynomials, computed once
    per frame: eps_i = pref_i sum_k s_ik (p/lam)^k with the prefactor
    pref_i = q c_i a_i^r/(r+1) = (-1)^r xi^i L_i^r/(r+1), where
    (-1)^r xi^i = L_i(0), and the signed symmetric functions
    s_ik = (-1)^k S^i_k(a), held as s_ik w^k = (-1)^k E^i_k."""
    if "eps_factors" not in frame.stages:
        r = frame.r
        prefs = tuple(L ** r * (L.constant() * Fraction(1, r + 1)) for L in frame.L)
        signed = tuple(tuple(s if k % 2 == 0 else -s for k, s in enumerate(_sym_omitting(frame, i)))
                       for i in range(r + 1))
        frame.stages["eps_factors"] = (prefs, signed)
    return frame.stages["eps_factors"]


def du_of_eps(frame: CanonicalFrame, i: int, j: int) -> EquivScalar:
    """du_j applied to eps_i: p -> p_j = lam/a_j cancels the weights, leaving
    pref_i (sum_k s_ik a_j^(r-k)) / a_j^r.  With a_j = L_j/w, w^r times the
    sum is sum_k (s_ik w^k) L_j^(r-k), summed by Horner in polynomials, so
    the value is one reduction over L_j^r."""
    fld, u = frame.field, frame.u
    prefs, signed = _eps_factors(frame)
    L_j = frame.L[j]
    acc = Poly.zero(fld)
    for s in signed[i]:
        acc = acc * L_j + s
    return EquivScalar(fld, u, 0, RatFunc(fld, u, prefs[i] * acc, L_j ** frame.r))


def eps_pairing(frame: CanonicalFrame, i: int, j: int) -> EquivScalar:
    """The pairing of eps_i with eps_j from the factored basis (see the
    module docstring).  The convolution sum_d C(2r-d, r-d) [t^d] E_i E_j is
    taken as sum_k s_ik T_k with T_k = sum_(l <= r-k) C(2r-k-l, r-k-l) s_jl,
    so it needs r+1 products.  Times w^r it is a polynomial: s_ik w^k is
    one, and w^(r-k) T_k is an int-weighted sum of the integer rows of the
    s_jl w^l moved up by r-k-l.  The r+1 products share one convolution
    buffer, so the value is one gcd and one reduction over w^r."""
    r, fld, u = frame.r, frame.field, frame.u
    prefs, signed = _eps_factors(frame)
    t_i, t_j = signed[i], signed[j]
    den_i, den_j = lcm(*(s.den for s in t_i)), lcm(*(s.den for s in t_j))
    pairs = []
    for k, s in enumerate(t_i):
        terms = t_j[:r + 1 - k]
        t_k = [[0] * fld.degree
               for _ in range(max(r - k - l + len(x.rows) for l, x in enumerate(terms)))]
        for l, x in enumerate(terms):
            c = _pairing_weight(r, k + l) * (den_j // x.den)
            for acc, row in zip(t_k[r - k - l:], x.rows):
                for p, y in enumerate(row):
                    if y:
                        acc[p] += c * y
        pairs.append(([[y * (den_i // s.den) for y in row] for row in s.rows], t_k))
    num = prefs[i] * prefs[j] * Poly.sum_of_products(fld, pairs, den_i * den_j)
    return EquivScalar(fld, u, -(2 * r + 1), RatFunc(fld, u, num, Poly.monomial(fld, r)))


def by_orbit(frame: CanonicalFrame, *derives) -> list:
    """For each of ``derives`` (``du_of_eps`` or ``eps_pairing``), a function
    of (i, j) giving ``derive(frame, i, j)`` that derives row 0 only,
    j = 0..r, and takes (i, j) as sigma^i of (0, (j - i) mod (r+1)) where the
    inputs allow.

    sigma^i sends eps_0 to eps_i when pref_i = sigma^i(pref_0) and
    s_ik w^k = xi^(ik) sigma^i(s_0k w^k) for every k, and L_i =
    xi^i sigma^i(L_0); each index is checked once, by polynomial rotation
    (xi^(ik) sigma^i(p) is ``p.twist(-2i, k)``), with no reduction.
    When i, j and (j - i) mod (r+1) all pass, sigma^i carries the inputs of
    (0, j - i) onto those of (i, j), and both values are reduced rational
    functions, so the rotated value is the derived one.
    Any other pair is derived directly.
    """
    u = frame.u
    prefs, signed = _eps_factors(frame)
    covariant = [True] + [
        frame.L[i] == frame.L[0].twist(-2 * i, 1)
        and prefs[i] == prefs[0].twist(-2 * i)
        and all(s == s0.twist(-2 * i, k)
                for k, (s, s0) in enumerate(zip(signed[i], signed[0])))
        for i in range(1, u)]

    def orbit(derive):
        row = [derive(frame, 0, k) for k in range(u)]

        def value(i: int, j: int) -> EquivScalar:
            k = (j - i) % u
            if i == 0:
                return row[j]
            if covariant[i] and covariant[j] and covariant[k]:
                return row[k].rotate(i)
            return derive(frame, i, j)

        return value

    return [orbit(derive) for derive in derives]


def eps_norm_closed_form(frame: CanonicalFrame, i: int) -> EquivScalar:
    """q c_i a_i^(2r) / ((r+1) lam^(2r+1))."""
    r = frame.r
    rf = frame.q() * frame.c[i] * frame.a[i] ** (2 * r) * Fraction(1, r + 1)
    return EquivScalar(frame.field, frame.u, -(2 * r + 1), rf)


def delta_i(frame: CanonicalFrame) -> list[EquivScalar]:
    """Norm-square inverses Delta_i = (r+1) lam q^(-1) c_i^(-1) p_i^(2r), that
    is (r+1) (-1)^r xi^(-i) lam^(2r+1) w^r / L_i^(2r), reduced as written."""
    if "delta_i" not in frame.stages:
        r, fld, u = frame.r, frame.field, frame.u
        coeff = Fraction((r + 1) * (-1) ** r)
        nums = [Poly.monomial(fld, r, frame.xi ** (u - i) * coeff) for i in range(u)]
        frame.stages["delta_i"] = tuple(
            EquivScalar(fld, u, 2 * r + 1, RatFunc(fld, u, num, L ** (2 * r), reduce=False))
            for num, L in zip(nums, frame.L))
    return list(frame.stages["delta_i"])


def delta_product(frame: CanonicalFrame, deltas: list[EquivScalar]) -> EquivScalar:
    """prod_i Delta_i over its known denominator.

    Where each Delta_i is, as ``delta_i`` writes it, a monomial in w over
    L_i^(2r), the product is the product of the monomials over D^(2r), with
    D = prod_i L_i: one monomial, prime to D^(2r) when D(0) is not zero (it
    is (-1)^r), so reduced as written.  Any other Delta_i takes the running
    product, which reduces each partial product.
    """
    r, fld, u = frame.r, frame.field, frame.u
    D = _linear_factors(frame)[-1]
    if not D.constant().is_zero() and all(
            d.value.num.is_monomial() and d.value.den == L ** (2 * r)
            for d, L in zip(deltas, frame.L)):
        coeff, exp = fld.one, 0
        for d in deltas:
            coeff = coeff * d.value.num.lead()
            exp += d.value.num.degree
        num = Poly.monomial(fld, exp, coeff)
        return EquivScalar(fld, u, sum(d.weight for d in deltas),
                           RatFunc(fld, u, num, D ** (2 * r), reduce=False))
    prod = EquivScalar.one(fld, u)
    for d in deltas:
        prod = prod * d
    return prod


def delta_product_closed_form(frame: CanonicalFrame) -> EquivScalar:
    """(r+1)^(r+1) lam^((2r+1)(r+1)) xi^(-r(r+1)/2) q^(-r) G^(2r)."""
    r = frame.r
    coeff = frame.xi ** (-(r * (r + 1)) // 2) * Fraction((r + 1) ** (r + 1))
    rf = g_in_w(r) ** (2 * r) * frame.q() ** (-r) * coeff
    return EquivScalar(frame.field, frame.u, (2 * r + 1) * (r + 1), rf)


# --- the three terms of the genus-one differential ----------------------------


def term_log_delta(frame: CanonicalFrame) -> RatFunc:
    """dt-coefficient of d log(prod Delta_i); equals r (1 - 2(-1)^r G).

    Delta_i is a constant times lam^(2r+1) w^r / L_i^(2r), so
    delta log Delta_i = (r - 2r w/L_i)/(r+1), and sum_i w/L_i = w D'/D: the
    sum is (r D - (2r/(r+1)) w D') / D, with no product of the Delta_i."""
    if "term_log_delta" not in frame.stages:
        r, fld = frame.r, frame.field
        D = _linear_factors(frame)[-1]
        num = D * r - Poly.monomial(fld, 1, Fraction(2 * r, r + 1)) * D.derivative()
        frame.stages["term_log_delta"] = RatFunc(fld, frame.u, num, D)
    return frame.stages["term_log_delta"]


def _spectrum_sum(frame: CanonicalFrame, xs) -> EquivScalar:
    """sum_i x_i p_i for Laurent values x_i of one weight, over the known
    denominator: p_i = lam w / L_i, so the sum is lam w sum_i x_i E^i_r / D
    with E^i_r = prod_(l != i) L_l.  The sum is taken in Laurent values and
    reduced once, where a sum of rational functions reduces once per term."""
    fld, u = frame.field, frame.u
    total = _Laurent(0, Poly.zero(fld))
    for i, x in enumerate(xs):
        total = total + _Laurent.of(x) * _Laurent(0, _product_omitting(frame, i))
    num = total.num * Poly.monomial(fld, 1)
    value = RatFunc(fld, u, num, Poly.monomial(fld, total.low) * _linear_factors(frame)[-1])
    return EquivScalar(fld, u, total.weight + 1, value)


def term_c_minus_one(frame: CanonicalFrame) -> RatFunc:
    """The localized first-Chern term (r+1)/(24 lam) sum_i du_i on the t-line:
    the weight-zero limit of (r+1)/(24 lam) sum_i p_i.

    Only the k = 1 flat direction reaches the t-line.  The k >= 2 components
    (r+1)/(24 lam) sum_i p_i^k are lam^(k-1) times a function of w for every
    spectrum, so their weight-zero limits vanish by construction and are not
    formed.  The k = 0 component is the unit direction; it retains an
    uncancelled 1/lam (its partner lives in the second-torus bookkeeping,
    which has no housing here) and is excluded from the t-line restriction.
    """
    if "term_c_minus_one" not in frame.stages:
        total = _spectrum_sum(frame, [EquivScalar.one(frame.field, frame.u)] * frame.u)
        prefactor = frame.lam(-1, Fraction(frame.r + 1, 24))
        frame.stages["term_c_minus_one"] = (prefactor * total).nonequivariant_limit()
    return frame.stages["term_c_minus_one"]


# --- transition matrix and connection -----------------------------------------


def _m_inverse_column(frame: CanonicalFrame) -> list[_Laurent]:
    """Column 0 of M^-1 in Laurent values,
    (M^-1)_{mu, 0} = (-1)^mu (q c_0/(r+1)) lam^(r - mu) S^0_mu(a).

    With q c_0 = L_0(0) w^r and S^0_mu(a) = E^0_mu / w^mu, entry mu is
    lam^(r - mu) times the polynomial (-1)^mu L_0(0) w^(r - mu) E^0_mu/(r+1).
    Column j is sigma^j of it, since sigma fixes q and sends c_0 to c_j and
    S^0_mu(a) to S^j_mu(a); ``connection_form`` reads column 0 only.
    """
    r, fld = frame.r, frame.field
    pref = frame.L[0].constant() * Fraction(1, frame.u)
    return [_Laurent(r - mu, Poly.monomial(fld, r - mu, pref * (-1) ** mu) * s)
            for mu, s in enumerate(_sym_omitting(frame, 0))]


def mat_transpose(A: list[list]) -> list[list]:
    return [list(row) for row in zip(*A)]


# The wrap sign of the deck rotation: zeta^(r+1) = -1, so an entry whose
# index wraps past r under sigma changes sign.
_WRAP_SIGN = -1


def _fill(row: list, rotate) -> list[list]:
    """The matrix X with X[i][j] = (-1)^[j<i] sigma^i(row[(j-i) mod u]),
    where rotate(x, i) is sigma^i(x): the rule every default-branch matrix
    of the frame satisfies (see the module docstring)."""
    out = []
    for i in range(len(row)):
        moved = [rotate(x, i) for x in row] if i else row
        # k = j - i; a negative k reads moved[(j - i) mod u], which wrapped
        out.append([moved[k] if k >= 0 else moved[k] * _WRAP_SIGN
                    for k in range(-i, len(row) - i)])
    return out


def connection_form(frame: CanonicalFrame) -> list[list[CycNumber]]:
    """dt-coefficients of the connection one-form, from the D*M factorization.

    Entry (i, j) is zeta^(i-j) (M dM^-1)_{ij} off the diagonal and
    (M dM^-1)_{ii} - r/(2(r+1)) on it (the d log d_i term), on the default
    branch; entries come out constant, the diagonal vanishes and the matrix
    is antisymmetric.  The base is derived and checked once per frame
    (``_connection_base``); each call returns a fresh copy of it.
    """
    return [list(row) for row in _connection_base(frame)]


def _connection_base(frame: CanonicalFrame) -> tuple[tuple[CycNumber, ...], ...]:
    """The connection on the default branch, derived and checked once per
    frame.  The core M dM^-1 has constant entries and core[i+1][j+1] =
    sigma(core[i][j]), so it is circulant and only its column 0 is formed,
    from all of M and column 0 of dM^-1; row 0 of the base follows and
    ``_fill`` gives the rest.

    The core is formed in Laurent values.  With m = r - mu, M_{i,mu} =
    p_i^(mu - r) is (a_i / lam)^m, where a_i = L_i/w = 1 + c_i/w for the
    constant c_i = L_i(0), and delta of (M^-1)_{mu,0} is lam^m times a
    polynomial; call their product Q_m.  Expanding (1 + c_i/w)^m,

        core_i = sum_m (1 + c_i/w)^m Q_m = sum_e c_i^e G_e,
        G_e = sum_(m >= e) C(m, e) Q_m / w^e,

    with one set of G_e for every i.  Every core_i is constant in w exactly
    when every G_e is, since a polynomial in c of degree <= r that vanishes
    at the r+1 distinct c_i is zero; so the G_e are checked, and core_i is
    sum_e G_e c_i^e, by Horner in the field.
    """
    r = frame.r
    if "connection" not in frame.stages:
        one = Poly.one(frame.field)
        # Q_m from the entry mu = r - m of column 0
        q = [_Laurent(-m, one) * x.delta() for m, x in enumerate(reversed(_m_inverse_column(frame)))]
        # times the lcm of their denominators the Q_m have integer rows, so
        # the sums below take no gcd; each g_e is divided by it at the end
        den = lcm(*(x.num.den for x in q))
        q = [x * den for x in q]
        g = []
        for e in range(r + 1):
            acc = _Laurent(0, Poly.zero(frame.field))
            for m in range(e, r + 1):
                acc = acc + q[m] * comb(m, e)
            if acc.weight != 0:
                raise ValueError("connection entry is not weight-free")
            val = _Laurent(0, acc.num, acc.low + e).constant()  # G_e, over w^e
            if val is None:
                raise ValueError("connection entry is not constant in w")
            g.append(val * Fraction(1, den))
        row, core = [], []
        for L_i in frame.L:
            c_i, val = L_i.constant(), g[-1]
            for g_e in reversed(g[:-1]):
                # c_i, a root of unity, goes first: a product skips its zeros
                val = c_i * val + g_e
            core.append(val)
        for k in range(r + 1):
            # base[0][k] = core[0][k] zeta^(-k), with core[0][k] = core[-k mod u][0]
            row.append(core[-k] * frame.field.zeta(-k) if k else core[0] - Fraction(r, 2 * (r + 1)))
        # sigma fixes the constant entries
        frame.stages["connection"] = tuple(map(tuple, _fill(row, lambda x, i: x)))
    return frame.stages["connection"]


def _mu_sums(fld: CycField, u: int) -> tuple[CycNumber, ...]:
    """sum_{mu=1..u-1} mu xi^(mu k) for k = 0..u-1, with xi = zeta^(N/u) the
    root of order u of fld = Q(zeta_N); each sum is one element of fld."""
    n = fld.order
    step = n // u
    out = []
    for k in range(u):
        coeffs = [0] * n
        for mu in range(1, u):
            coeffs[step * mu * k % n] += mu
        out.append(fld.element(coeffs))
    return tuple(out)


def _frame_mu_sums(frame: CanonicalFrame) -> tuple[CycNumber, ...]:
    """The r+1 sums of ``_mu_sums`` in the frame's field, once per frame;
    both display forms read them."""
    if "mu_sums" not in frame.stages:
        frame.stages["mu_sums"] = _mu_sums(frame.field, frame.u)
    return frame.stages["mu_sums"]


def connection_display_form(frame: CanonicalFrame) -> list[list[CycNumber]]:
    """The closed-form display: zeta^(j-i)/(r+1)^2 sum_mu mu xi^(mu(j-i)).

    This is the derived connection under the opposite square-root branch of
    each pair (entrywise the negative of the default-branch derived form).
    The sum depends on k = (j - i) mod (r+1) only, so it is scaled once per k.
    """
    u, fld = frame.u, frame.field
    sums = [s * Fraction(1, u ** 2) for s in _frame_mu_sums(frame)]
    return [[fld.zero if i == j else fld.zeta(j - i) * sums[(j - i) % u]
             for j in range(u)] for i in range(u)]


# --- first-order asymptotic matrix --------------------------------------------


def _inverse_differences(frame: CanonicalFrame) -> list[_Laurent | None]:
    """1/(p_0 - p_j) = L_0 L_j / (lam w (L_j - L_0)) for j = 1..r, each a
    Laurent value of weight -1 over w.  Entry 0 is None.

    L_j - L_0 = (-1)^r (xi^j - 1) is a nonzero constant, and for x^u = 1 != x,
    sum_(mu=1..u-1) mu x^mu = u/(x - 1), so 1/(L_j - L_0) = (-1)^r
    ``_frame_mu_sums(frame)[j]`` / u: the frame holds the inverse, and no
    field inverse is taken."""
    L_0, sums = frame.L[0], _frame_mu_sums(frame)
    scale = Fraction((-1) ** frame.r, frame.u)
    return [None] + [_Laurent(-1, (L_0 * L_j).scale(sums[j] * scale), 1)
                     for j, L_j in enumerate(frame.L[1:], 1)]


def r1_offdiagonal_display(frame: CanonicalFrame) -> list[list[EquivScalar]]:
    """Closed form (-1)^r zeta^(j-i) q^(1/(r+1)) a_i a_j
    sum_mu mu xi^(mu(j-i)) / ((r+1)^2 lam (xi^j - xi^i)).

    The inverses 1/(xi^k - 1) are field inverses on purpose: derived R1 reads
    them from the mu-sums (``_inverse_differences``), so the anchor that
    compares the two is the independent check of that mu-sum identity."""
    r = frame.r
    fld, u = frame.field, frame.u
    sums = _frame_mu_sums(frame)
    # with xi^j - xi^i = xi^i (xi^k - 1), k = (j - i) mod (r+1), the inverse
    # is formed once per k
    per_k = [None] + [sums[k] * (frame.xi ** k - fld.one).inverse()
                      * Fraction((-1) ** r, u ** 2) for k in range(1, u)]
    out = [[EquivScalar.zero(fld, u) for _ in range(u)] for _ in range(u)]
    w, L = Poly.monomial(fld, 1), frame.L
    for i in range(u):
        for j in range(u):
            if i == j:
                continue
            # zeta^(j-i) xi^(-i) = zeta^(j - 3i)
            coeff = fld.zeta(j - 3 * i) * per_k[(j - i) % u]
            # w a_i a_j = L_i L_j / w, reduced as written: L_i(0) L_j(0) is not 0
            rf = RatFunc(fld, u, (L[i] * L[j]).scale(coeff), w, reduce=False)
            out[i][j] = EquivScalar(fld, u, -1, rf)
    return out


def xi_g_terms(r: int) -> list[tuple[CycNumber, CycNumber]]:
    """The pairs (xi^k, g_k(xi)), k = 1..r, in Q(zeta_(r+1)), with
    g_k = (xi^k - 1)^(-1) (sum_mu mu xi^(mu k)) (sum_mu mu xi^(-mu k)),
    that ``xi_constant`` and ``xi_constant_pair_identity`` sum."""
    if r < 1:
        raise ValueError("r must be at least 1")
    fld = CycField(r + 1)
    # sum_mu mu xi^(-mu k) is the sum at (-k) mod (r+1)
    sums = _mu_sums(fld, r + 1)
    out = []
    for k in range(1, r + 1):
        xi_k = fld.zeta(k)
        out.append((xi_k, (xi_k - fld.one).inverse() * sums[k] * sums[-k]))
    return out


def xi_constant(terms: list[tuple[CycNumber, CycNumber]]) -> Fraction:
    """Brute-force evaluation of the diagonal combinatorial constant Xi_r:
    the sum of the g_k of ``xi_g_terms(r)``, in Q(zeta_(r+1)).  The result
    is rational and equals -(r+2)(r+1)^2 r / 24."""
    total = terms[0][1].field.zero
    for _, g_k in terms:
        total = total + g_k
    if not total.is_rational():
        raise ArithmeticError("diagonal constant failed to reduce to a rational")
    return total.as_rational()


def xi_constant_pair_identity(terms: list[tuple[CycNumber, CycNumber]]) -> bool:
    """The vanishing sum_k (xi^k + 1) g_k(xi) = 0 over ``xi_g_terms(r)``."""
    fld = terms[0][0].field
    total = fld.zero
    for xi_k, g_k in terms:
        total = total + (xi_k + fld.one) * g_k
    return total.is_zero()


def r1_diagonal_closed_form(frame: CanonicalFrame) -> list[EquivScalar]:
    """Xi_r/((r+1)^3 lam) (c_i^(-1) + c_i), the integrated display, with
    Xi_r = -(r+2)(r+1)^2 r/24 in closed form."""
    r = frame.r
    xi_r = Fraction(-(r + 2) * (r + 1) ** 2 * r, 24)
    out = []
    for i in range(r + 1):
        rf = (frame.c[i].inverse() + frame.c[i]) * Fraction(xi_r, (r + 1) ** 3)
        out.append(EquivScalar(frame.field, frame.u, -1, rf))
    return out


def first_order(frame: CanonicalFrame
                ) -> tuple[tuple[tuple[EquivScalar, ...], ...], tuple[EquivScalar, ...]]:
    """(R1 off the diagonal, R1 on it) on the default branch, once per frame,
    as immutable tuples.

    Off the diagonal, entry (i, j) solves the dt-restricted first-order
    relation R1_ij (p_i - p_j) = conn_ij: row 0 is the connection's row 0
    times the Laurent value 1/(p_0 - p_j), and ``_fill`` gives the rest.
    The diagonal integrates the flatness condition
    d R1_ii = -sum_j R1_ij R1_ji d(u_i - u_j) on the t-line, with integration
    constant zero: diagonal 0 is integrated from its r pair products, each
    R1_0j R1_j0 (p_0 - p_j) = conn_0j R1_j0 a Laurent value, and diagonal i
    is its rotation sigma^i.  An integrand with a constant term would
    violate flatness silently, so it raises FlatnessError.
    """
    if "first_order" not in frame.stages:
        conn = _connection_base(frame)
        inv = _inverse_differences(frame)
        row = [EquivScalar.zero(frame.field, frame.u)] + [
            (inv[j] * conn[0][j]).scalar() for j in range(1, frame.u)]
        off = tuple(map(tuple, _fill(row, EquivScalar.rotate)))
        integrand = _Laurent(0, Poly.zero(frame.field))
        for j in range(1, frame.u):
            integrand = integrand - _Laurent.of(off[j][0]) * conn[0][j]
        diag = integrand.integrate("diagonal 0 integrand has a constant term at weight {e}").scalar()
        frame.stages["first_order"] = (off, tuple(diag.rotate(i) if i else diag
                                                  for i in range(frame.u)))
    return frame.stages["first_order"]


def _branch(base, e: list[int], pair_flip: tuple[int, int] | None = None) -> list[list]:
    """A default-branch matrix on another square-root branch: E X E with
    E = diag(e), then a ``pair_flip`` negates the entries (i, j) and (j, i)
    of one unordered pair."""
    if len(e) != len(base) or any(s not in (1, -1) for s in e):
        raise ValueError("branch signs must be a +-1 vector of length r+1")
    out = [[x if e[i] == e[j] else -x for j, x in enumerate(row)] for i, row in enumerate(base)]
    if pair_flip is not None:
        i, j = pair_flip
        if i == j:
            raise ValueError("pair flip needs two distinct indices")
        out[i][j] = -out[i][j]
        out[j][i] = -out[j][i]
    return out


def branch_failure(frame: CanonicalFrame, e: list[int],
                   pair_flip: tuple[int, int] | None = None) -> tuple[int, int] | None:
    """The first unordered pair (i, j), i < j, at which R1 off the diagonal on
    the branch of signs ``e`` and ``pair_flip`` does not carry one sign
    s = +-1 against the default's at both (i, j) and (j, i), or None.

    When it is None, every product R1_ij R1_ji is the default's, and R1's
    diagonal and the genus-one form read R1 only through these products, so
    the branch has the default's.  Exact equality only.
    """
    base = first_order(frame)[0]
    off = _branch(base, e, pair_flip)
    n = len(base)
    return next(((i, j) for i in range(n) for j in range(i + 1, n)
                 if (off[i][j], off[j][i]) not in ((base[i][j], base[j][i]),
                                                  (-base[i][j], -base[j][i]))), None)


# --- the genus-one differential -----------------------------------------------


def genus_one_form(r: int) -> tuple[RatFunc, Fraction]:
    """Assemble dG/dlog q from the three terms and remove the constant.

    Returns (the dlog q coefficient as a rational function of q, the dropped
    constant), kept in the stages of ``frame_for(r)``.  Negative weight
    powers surviving the assembly raise CancellationError.
    """
    frame = frame_for(r)
    if "genus_one" not in frame.stages:
        t_log = term_log_delta(frame)
        t_c = term_c_minus_one(frame)
        third = _spectrum_sum(frame, first_order(frame)[1])
        try:
            third_rf = third.nonequivariant_limit()
        except LimitError as exc:
            raise CancellationError(f"weight powers survive the R-matrix term: {exc}") from exc
        total = t_log * Fraction(1, 48) - t_c + third_rf * Fraction(1, 2)
        total_q = total.as_q_function()
        const = total_q.eval_rational(0)
        if not const.is_rational():
            raise CancellationError("constant term is not rational")
        value = total_q - RatFunc.constant(total_q.field, 1, const)
        frame.stages["genus_one"] = (value, const.as_rational())
    return frame.stages["genus_one"]


def genus_one_expected(r: int) -> RatFunc:
    """((-1)^(r+1)(r+1)/24) q/(1 - (-1)^(r+1) q) as a function of q."""
    fld = CycField(2 * (r + 1))
    q = RatFunc.monomial(fld, 1, 1)
    sign = Fraction((-1) ** (r + 1))
    return q * Fraction(r + 1, 24) * sign / (RatFunc.one(fld, 1) - q * sign)


def genus_one_table(r: int, dmax: int) -> list[Fraction]:
    """Degree d = 1..dmax zero-point values: q^d-coefficient of dG/dlogq over d."""
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    form, _ = genus_one_form(r)
    coeffs = form.series_expand(dmax)
    out = []
    for d in range(1, dmax + 1):
        c = coeffs[d]
        if not c.is_rational():
            raise ArithmeticError("table entry is not rational")
        out.append(c.as_rational() / d)
    return out


# --- the full order-by-order recursion -----------------------------------------


def _conn_entry(conn: list[list[CycNumber]], mat: list[list[_Laurent]], i: int, j: int,
                zero: _Laurent) -> _Laurent:
    """(conn mat)_{ij} for a constant matrix conn: entries are scaled, zeros skipped."""
    acc = zero
    for k, c in enumerate(conn[i]):
        if not c.is_zero() and not mat[k][j].is_zero():
            acc = acc + mat[k][j] * c
    return acc


def _transpose_product(mats: list[list[list[_Laurent]]], memo: dict, a: int, b: int):
    """R_a^T R_b of the default branch, memoised by (a, b).

    Only products with 0 < a <= b are multiplied, and only their row 0,
    sum_k R_a[k][0] R_b[k][j]; ``_fill`` gives the rest, as the rule holds
    for R_a^T R_b when it holds for R_a and R_b.  For a > b the product is
    the transpose of R_b^T R_a, and R_0 = Id makes R_0^T R_b equal to R_b.
    """
    if (a, b) not in memo:
        if a > b:
            memo[a, b] = mat_transpose(_transpose_product(mats, memo, b, a))
        elif a == 0:
            memo[a, b] = mats[b]
        else:
            A, B = mats[a], mats[b]
            row = []
            for j in range(len(A)):
                acc = A[0][0] * B[0][j]
                for k in range(1, len(A)):
                    acc = acc + A[k][0] * B[k][j]
                row.append(acc)
            memo[a, b] = _fill(row, _Laurent.rotate)
    return memo[a, b]


def _unitarity_row(mats: list[list[list[_Laurent]]], memo: dict, n: int) -> list[_Laurent]:
    """Row 0 of sum_{a=0..n} (-1)^a R_a^T R_(n-a).  Each R_a^T R_b obeys the
    rule of ``_fill``, so every entry of the sum is +-sigma^i of a row-0
    entry: the sum vanishes exactly when its row 0 does, and its first
    nonzero (i, j) in row order lies in row 0."""
    acc = None
    for a_idx in range(n + 1):
        term = _transpose_product(mats, memo, a_idx, n - a_idx)[0]
        if a_idx % 2 == 1:
            term = [-x for x in term]
        acc = term if acc is None else [p + t for p, t in zip(acc, term)]
    return acc


def r_matrix_recursion(r: int, order: int, diag_mode: str = "unitarity") -> tuple[list, dict]:
    """R_1..R_order on the t-line from the order-lowering recursion.

    Off-diagonals solve [(connection + d) R_(n-1)]_{ij} = (R_n)_{ij} (p_i - p_j);
    diagonals integrate the vanishing-diagonal condition of the next step with
    constants fixed per ``diag_mode``: "zero" drops them, "unitarity" (the
    default) calibrates the even-order constants from the residue pairing so
    that sum_{a+b=n} (-1)^a R_a^T R_b = 0 can hold exactly.

    Each order is derived on the default branch from its row 0, filled by
    ``_fill``; the diagonal is integrated and calibrated once, at i = 0 (the
    constant is fixed by sigma), and rotated.  Each R_a^T R_b is formed once
    (see ``_transpose_product``), and each residual reads row 0 of its sum
    (see ``_unitarity_row``).  Every entry is a Laurent value of weight -n
    while the recursion runs (dividing by p_0 - p_j is a product with the
    Laurent value of ``_inverse_differences``), and becomes an EquivScalar
    only in the returned matrices.

    Returns ([Id, R_1, ..., R_order], report) where the report collects the
    diagonal constants, the exact unitarity residual status per order and,
    for each order whose residual is not zero, its first nonzero (i, j).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if diag_mode not in ("unitarity", "zero"):
        raise ValueError(f"unknown diagonal mode {diag_mode!r}")
    frame = frame_for(r)
    conn = connection_form(frame)
    inv = _inverse_differences(frame)
    size, fld = r + 1, frame.field
    zero, one = _Laurent(0, Poly.zero(fld)), _Laurent(0, Poly.one(fld))
    mats: list[list[list[_Laurent]]] = [[[one if i == j else zero for j in range(size)]
                                         for i in range(size)]]
    products: dict[tuple[int, int], list[list[_Laurent]]] = {}
    constants: dict[tuple[int, int], str] = {}
    for n in range(1, order + 1):
        prev = mats[n - 1]
        row = [zero] + [(_conn_entry(conn, prev, 0, j, zero) + prev[0][j].delta()) * inv[j]
                        for j in range(1, size)]
        new = _fill(row, _Laurent.rotate)
        # diagonal from the vanishing-diagonal condition of step n+1
        diag = (-_conn_entry(conn, new, 0, 0, zero)).integrate(
            f"order {n}, diagonal 0: constant term at weight {{e}}")
        if diag_mode == "unitarity" and n % 2 == 0:
            # 2 R_n[0][0] + [sum_{0<a<n} (-1)^a R_a^T R_(n-a)]_{00} must vanish;
            # the recursion fixes R_n[0][0] only up to a constant, so align it
            mid = zero
            for a_idx in range(1, n):
                term = _transpose_product(mats, products, a_idx, n - a_idx)[0][0]
                mid = mid - term if a_idx % 2 else mid + term
            gap = mid * Fraction(-1, 2) - diag
            const = gap.constant()
            if const is None:
                raise FlatnessError(f"order {n}, diagonal 0: unitarity gap is not a constant")
            if not const.is_zero():
                diag = diag + _Laurent(gap.weight, Poly(fld, [const]))
                constants.update(((n, i), repr(const)) for i in range(size))
        for i in range(size):
            new[i][i] = diag.rotate(i)
        mats.append(new)
    residuals, first_nonzero = {}, {}
    for n in range(1, order + 1):
        bad = next(((0, j) for j, x in enumerate(_unitarity_row(mats, products, n))
                    if not x.is_zero()), None)
        residuals[n] = bad is None
        if bad is not None:
            first_nonzero[n] = bad
    report = {
        "diagonal_mode": diag_mode,
        "constants": {f"{n},{i}": v for (n, i), v in sorted(constants.items())},
        "unitarity_exact": residuals,
        "unitarity_first_nonzero": first_nonzero,
    }
    return [[[x.scalar() for x in row] for row in mat] for mat in mats], report
