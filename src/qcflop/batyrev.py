"""The small quantum ring of the local model and its spectrum.

The ring is C[h, x][q1, q2] / (h^(r+1) - q1 (x-h)^(r+1), (x-h)^(r+1) x - q2)
on the monomial basis h^a x^b, 0 <= a <= r, 0 <= b <= r+1.  Internally the
reduction works in the shifted coordinates (h, y) with y = x - h, where the
rewriting terminates after a single division by 1 - (-1)^(r+1) q1; the
structure constants are therefore polynomials in q2 and rational functions of
q1 with that sole denominator (they are not polynomial in q1: the determinant
of h* carries the denominator).

All engine code is generic over an exact coefficient field: elements need
+, -, *, /, is_zero and a truth value that is false exactly at zero.  The
checks run it over the Gaussian rationals Q(i), at exact complex sample
points; it runs as well over the univariate field Q(q1) (RatFunc over the
rational base field) with q2 a rational value, where det(h*) meets
``det_h_closed_form``.

Each check does only the exact work its answer reads:

* Unit columns.  The embedding takes each basis monomial to the (h, y)
  frame one step from a neighbour, x^b = x x^(b-1) and h^a x^b =
  h h^(a-1) x^b, so the h-column of h^a x^b is the unit vector of
  h^(a+1) x^b for a < r by construction; an x-column is the unit vector of
  h^a x^(b+1) when the image equals, as an exact dict, that monomial's
  embedding.  The 2r+3 other columns (a = r for h, b = r+1 for x) come from
  one elimination of the embedding augmented with their images, for both
  matrices at once, whose rows keep their nonzero entries only.  The
  commutator then sums over the nonzero entries of each row.
* Unit-part product.  Every h-eigenvalue is the monomial
  q1^(1/(r+1)) q2^(1/(r+2)) times a unit series, and the n = (r+1)(r+2)
  monomials multiply to q1^(r+2) q2^(r+1), which takes n steps of the q1
  direction.  So the product identity through order N is the product of the
  unit parts through order N - n, against -1/(1 + (-1)^r q1).  A unit part
  is its h-eigenvalue with the rows of its one q1-polynomial moved down by
  one and its q2-power lowered by one (``FracSeries.divide_monomial``), so
  no coefficient is rebuilt; the products of unit parts are polynomial
  products cut at the truncation, and the one scaling by a power of eta
  only permutes the powers of zeta (see ``algebra.poly``).
* eta-invariance.  The closed forms give h_ij = eta^j h_i0 and
  xi_ij = eta^j xi_i0, with eta of order r+2.  Relation 1 at
  (eta^j h, eta^j xi) is eta^(j(r+1)) times its value at (h, xi), and
  relation 2 is unchanged, because eta^(r+2) = 1; a unit factor keeps the
  support, so (i, j) fails exactly where (i, 0) fails.  The unit parts of
  all n pairs multiply to eta^((r+1) n/2) (prod_i u_i0)^(r+2).  So the checks
  read only the r+1 representatives (i, 0) and cover the other pairs by
  these identities.  A batyrev cell derives each representative once, at the
  larger of the two orders the checks read, and each check truncates it to
  its own order before forming anything; a truncated closed form equals the
  closed form derived at the lower order.
* omega-orbit.  The closed forms give h_i0 = sigma_i(h_00) and
  xi_i0 = sigma_i(xi_00) for sigma_i: q1^(1/(r+1)) -> omega^i q1^(1/(r+1)),
  the monodromy of q1 around 0, which multiplies the term of key (n1, n2)
  by omega^(i n1) and fixes q1 and q2.  So the residuals of orbit i are
  sigma_i of those of orbit 0, nonzero at the same keys, and the eigen
  relations form residuals for orbit 0 only, and for any orbit that does
  not equal sigma_i of orbit 0 as an exact series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np

from qcflop import cohomology
from qcflop.algebra import CycField, CycNumber, FracSeries, RatFunc, linalg
from qcflop.algebra.linalg import add_term, add_terms
from qcflop.config import check_sample_point

Vec = dict  # (a, b) in the active monomial frame -> field scalar


class SemisimplicityError(ValueError):
    """Raised when the numeric certificate cannot be granted."""


class ReductionEngine:
    """Multiplication and reduction in the shifted (h, y) frame over a field."""

    def __init__(self, r: int, q1, q2, one):
        self.r = r
        self.q1 = q1
        self.q2 = q2
        self.one = one
        self.zero = one - one
        sign = (-1) ** (r + 1)
        denom = one - (q1 if sign == 1 else -q1)
        if denom.is_zero():
            raise ZeroDivisionError("q1 sits at the degeneration point of the quantum ring")
        # h^(r+1) y^(r+1) = (q1 q2 / denom) sum_m (-1)^m h^m y^(r-m)
        special_coeff = q1 * q2 / denom
        self.special: Vec = {}
        for m in range(r + 1):
            c = special_coeff if m % 2 == 0 else -special_coeff
            add_term(self.special, (m, r - m), c)
        # h^(r+1) y^B for B = 0..r+1
        self.h_carry: list[Vec] = []
        for B in range(r + 2):
            rep: Vec = {}
            if B == 0:
                add_term(rep, (0, r + 1), q1)
            else:
                for m in range(B):
                    c = q1 * q2 if m % 2 == 0 else -(q1 * q2)
                    add_term(rep, (m, B - 1 - m), c)
                if B <= r:
                    c = q1 if B % 2 == 0 else -q1
                    add_term(rep, (B, r + 1), c)
                else:
                    scale = q1 if B % 2 == 0 else -q1
                    for key, c in self.special.items():
                        add_term(rep, key, c * scale)
            self.h_carry.append(rep)

    def mult_h(self, vec: Vec) -> Vec:
        out: Vec = {}
        for (a, b), c in vec.items():
            if a < self.r:
                add_term(out, (a + 1, b), c)
            else:
                for key, v in self.h_carry[b].items():
                    add_term(out, key, v * c)
        return out

    def mult_y(self, vec: Vec) -> Vec:
        out: Vec = {}
        for (a, b), c in vec.items():
            if b < self.r + 1:
                add_term(out, (a, b + 1), c)
            else:
                # y^(r+2) = q2 - h y^(r+1)
                add_term(out, (a, 0), c * self.q2)
                if a < self.r:
                    add_term(out, (a + 1, self.r + 1), -c)
                else:
                    for key, v in self.special.items():
                        add_term(out, key, -(v * c))
        return out

    def mult_xi(self, vec: Vec) -> Vec:
        return add_terms(self.mult_h(vec), self.mult_y(vec))


class QuantumRing:
    """The quantum ring at a fixed exact scalar point (or symbolic q1)."""

    def __init__(self, r: int, q1, q2, one):
        self.r = r
        self.engine = ReductionEngine(r, q1, q2, one)
        self.basis = cohomology.basis(r)
        self.index = {mono: k for k, mono in enumerate(self.basis)}
        # the (h, y)-frame image of each basis monomial, one step from a
        # neighbour: x^b = x x^(b-1), h^a x^b = h h^(a-1) x^b
        embed: dict = {(0, 0): {(0, 0): one}}
        for b in range(1, r + 2):
            embed[0, b] = self.engine.mult_xi(embed[0, b - 1])
        for a in range(1, r + 1):
            for b in range(r + 2):
                embed[a, b] = self.engine.mult_h(embed[a - 1, b])
        self._embed = [embed[mono] for mono in self.basis]

    def mult_matrices(self) -> tuple[list[dict], list[dict]]:
        """The matrices of multiplication by h and by x on the monomial
        basis, each as the rows {column: nonzero entry}; column k is the
        image of basis monomial k.

        h h^a x^b is the basis monomial one step up for a < r, by the
        construction of the embedding, and so is x h^a x^b whenever its
        image equals, as an exact dict, the embedding of h^a x^(b+1).  The
        other columns, the r+2 columns h^r x^b of h and the r+1 columns
        h^a x^(r+1) of x (with any x-column that fails the comparison),
        come from one elimination of the embedding augmented with their
        images."""
        engine, n = self.engine, len(self.basis)
        H: list[dict] = [{} for _ in self.basis]
        X: list[dict] = [{} for _ in self.basis]
        solved = []  # (matrix, column, (h, y)-frame image) of each non-unit column
        for k, (a, b) in enumerate(self.basis):
            if a < self.r:
                H[self.index[a + 1, b]][k] = engine.one
            else:
                solved.append((H, k, engine.mult_h(self._embed[k])))
            image = engine.mult_xi(self._embed[k])
            target = self.index.get((a, b + 1))
            if target is not None and image == self._embed[target]:
                X[target][k] = engine.one
            else:
                solved.append((X, k, image))
        # the embedding, a row per (h, y)-monomial and a column per basis
        # monomial, with the image of solved column t in column n + t
        rows: list[dict] = [{} for _ in self.basis]
        for k, vec in enumerate(self._embed):
            for mono, c in vec.items():
                rows[self.index[mono]][k] = c
        for t, (_, _, image) in enumerate(solved, n):
            for mono, c in image.items():
                rows[self.index[mono]][t] = c
        pivots, _ = linalg.row_reduce(rows, engine.one, n)
        if len(pivots) < n:
            raise ZeroDivisionError("singular embedding of the monomial basis")
        # row i now holds coordinate i of every solved column
        for i, row in enumerate(rows):
            for t, c in row.items():
                if t >= n:
                    matrix, k, _ = solved[t - n]
                    matrix[i][k] = c
        return H, X


# --- instantiations -----------------------------------------------------------

_QF = CycField(1)


def q1_field_one() -> RatFunc:
    return RatFunc.one(_QF, 1)


def q1_symbol() -> RatFunc:
    return RatFunc.monomial(_QF, 1, 1)


GAUSS = CycField(4)


def gauss(re: Fraction, im: Fraction = Fraction(0)) -> CycNumber:
    return GAUSS.from_rational(re) + GAUSS.zeta() * im


def ring_at_point(r: int, q1: CycNumber, q2: CycNumber) -> QuantumRing:
    return QuantumRing(r, q1, q2, GAUSS.one)


def multiplication_matrices(r: int, q1: tuple[Fraction, Fraction],
                            q2: tuple[Fraction, Fraction]) -> tuple[list[dict], list[dict]]:
    """The exact matrices of multiplication by h and by x, as sparse rows, at
    the sample point q1 = re + i im (q2 likewise), which must be small and
    nonzero in both variables (a ``ConfigError`` otherwise, a ValueError)."""
    for name, (re, im) in (("q1", q1), ("q2", q2)):
        check_sample_point(name, Fraction(re), Fraction(im))
    ring = ring_at_point(r, gauss(Fraction(q1[0]), Fraction(q1[1])),
                         gauss(Fraction(q2[0]), Fraction(q2[1])))
    return ring.mult_matrices()


def commutator_row(H: list[dict], X: list[dict], i: int) -> Vec:
    """Row i of HX - XH as {column: nonzero entry}, summed over the nonzero
    entries of the rows only."""
    acc: Vec = {}
    for k, c in H[i].items():
        for j, d in X[k].items():
            add_term(acc, j, c * d)
    for k, c in X[i].items():
        for j, d in H[k].items():
            add_term(acc, j, -(c * d))
    return acc


def matrices_commute_at(H: list[dict], X: list[dict]) -> bool:
    """Exact commutator check of the multiplication matrices of one point."""
    return not any(commutator_row(H, X, i) for i in range(len(H)))


def det_h_closed_form(r: int) -> tuple[int, RatFunc]:
    """(q2-degree, coefficient): det(h*) = -q1^(r+2) q2^(r+1) / (1+(-1)^r q1)."""
    q1 = q1_symbol()
    one = q1_field_one()
    denom = one + q1 * Fraction((-1) ** r)
    return r + 1, -(q1 ** (r + 2)) / denom


# --- closed-form eigenvalues ----------------------------------------------------


class EigenPair:
    """Closed-form eigenvalue pair of the two divisor multiplications."""

    __slots__ = ("r", "i", "j", "h", "xi")

    def __init__(self, r: int, i: int, j: int, h: FracSeries, xi: FracSeries):
        self.r = r
        self.i = i
        self.j = j
        self.h = h
        self.xi = xi

    def truncate(self, order: int) -> "EigenPair":
        """The pair at a lower truncation order: the same series with the
        terms beyond ``order`` dropped, which the closed forms at ``order``
        equal, as no term of a truncated product reads a dropped one."""
        return EigenPair(self.r, self.i, self.j, self.h.truncate(order), self.xi.truncate(order))


def eigen_field(r: int) -> CycField:
    return CycField((r + 1) * (r + 2))


def eigen_formulas(r: int, i: int, j: int, order: int) -> EigenPair:
    """The (i, j) eigenvalue pair as truncated fractional series.

    h = eta^j omega^i q1^(1/(r+1)) q2^(1/(r+2)) (1 + omega^i q1^(1/(r+1)))^(-1/(r+2))
    xi = eta^j q2^(1/(r+2)) (1 + omega^i q1^(1/(r+1)))^((r+1)/(r+2))

    with omega, eta the primitive roots of unity of orders r+1 and r+2.  The
    truncation order counts steps in the q1^(1/(r+1)) direction.
    """
    if not (0 <= i <= r and 0 <= j <= r + 1):
        raise ValueError("eigenvalue indices out of range")
    fld = eigen_field(r)
    d1, d2 = r + 1, r + 2
    # omega^i q1^(1/(r+1)) and eta^j q2^(1/(r+2)); zeta has order (r+1)(r+2)
    omega_x = FracSeries.monomial(fld, d1, d2, order, 1, 0, fld.zeta(d2 * i))
    eta_y = FracSeries.monomial(fld, d1, d2, order, 0, 1, fld.zeta(d1 * j))
    base = FracSeries.one(fld, d1, d2, order) + omega_x
    root = base.binomial_power(Fraction(-1, d2))
    # base^((r+1)/(r+2)) = base * base^(-1/(r+2))
    return EigenPair(r, i, j, eta_y * omega_x * root, eta_y * (base * root))


def orbit_representatives(r: int, order: int) -> list[EigenPair]:
    """The pairs (i, 0), i = 0..r, one for each eta-orbit, at the order."""
    return [eigen_formulas(r, i, 0, order) for i in range(r + 1)]


def product_order(r: int) -> int:
    """The q1-order of the eigenvalue product identity: (r+5)(r+1)."""
    return (r + 5) * (r + 1)


def eigen_relation_residuals(pair: EigenPair) -> tuple[FracSeries, FracSeries]:
    """(h^(r+1) - q1 (xi-h)^(r+1), xi (xi-h)^(r+1) - q2) at the pair."""
    r = pair.r
    fld = pair.h.field
    order = pair.h.trunc
    q1 = FracSeries.monomial(fld, r + 1, r + 2, order, r + 1, 0)
    q2 = FracSeries.monomial(fld, r + 1, r + 2, order, 0, r + 2)
    diff_power = (pair.xi - pair.h) ** (r + 1)
    first = pair.h ** (r + 1) - q1 * diff_power
    second = pair.xi * diff_power - q2
    return first, second


def _failing_relations(residuals: tuple[FracSeries, FracSeries]) -> list[tuple[str, tuple]]:
    """(relation name, leading exponent) of each nonzero residual."""
    return [(name, res.leading_exponent())
            for name, res in zip(("spectrum-relation-1", "spectrum-relation-2"), residuals)
            if not res.is_zero()]


def verify_eigen_relations(r: int, order: int, orbits: list[EigenPair] | None = None) -> dict:
    """Check both quantum relations for every index pair through the order,
    and count the distinct leading coefficients of the h-eigenvalues.

    Each orbit i is derived once, at j = 0, or read from ``orbits`` (the
    ``orbit_representatives`` at an order of at least ``order``) truncated
    to the order.  The residuals at (i, j) are (eta^(j(r+1)) R1_i0, R2_i0),
    so every pair of the orbit fails where (i, 0) fails, with the same
    leading exponent; the leading coefficient of h_ij, on
    q1^(1/(r+1)) q2^(1/(r+2)), is eta^j c_i0.  An orbit i that equals
    sigma_i of orbit 0, with sigma_i: q1^(1/(r+1)) -> omega^i q1^(1/(r+1)),
    has the residuals sigma_i R_00, which fail where R_00 fails, so only
    orbit 0 and an orbit off its omega-orbit form residuals.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if orbits is None:
        orbits = orbit_representatives(r, order)
    fld = eigen_field(r)
    etas = [fld.zeta(j * (r + 1)) for j in range(r + 2)]
    base = orbits[0].truncate(order)
    base_failures = _failing_relations(eigen_relation_residuals(base))
    failures = []
    leading = set()
    for i, orbit in enumerate(orbits):
        orbit = orbit.truncate(order)
        lead = orbit.h.coefficient(1, 1)
        leading.update(lead * eta for eta in etas)
        # omega^i = zeta^((r+2) i), and sigma_i fixes q1 and q2
        m = (r + 2) * i
        if orbit.h == base.h.twist_q1(m) and orbit.xi == base.xi.twist_q1(m):
            failing = base_failures
        else:
            failing = _failing_relations(eigen_relation_residuals(orbit))
        for j in range(r + 2):
            for name, exponent in failing:
                failures.append({"i": i, "j": j, "relation": name,
                                 "leading_exponent": list(exponent)})
    return {"r": r, "order": order, "pairs_checked": (r + 1) * (r + 2),
            "leading_coefficients": len(leading), "failures": failures}


def eigenvalue_unit_product(r: int, order: int,
                            orbits: list[EigenPair] | None = None) -> FracSeries | None:
    """prod of the unit parts h_ij / (q1^(1/(r+1)) q2^(1/(r+2))), through the
    q1-order that the product of the h_ij at ``order`` determines.

    The (r+1)(r+2) = n monomials multiply to q1^(r+2) q2^(r+1), which takes n
    steps of the q1 direction, so the unit parts are needed only through
    order - n: each h_i0 is expanded at order - n + 1 (or read from
    ``orbits`` and truncated to it) and divided exactly by dropping the
    leading zero rows of its polynomial, with no coefficient rebuilt.  As
    u_ij = eta^j u_i0, the product is eta^((r+1) n/2) (prod_i u_i0)^(r+2).
    Returns None when some h_i0 has a term the monomial does not divide.
    """
    n = (r + 1) * (r + 2)
    if order < n:
        raise ValueError(f"order {order} is below (r+1)(r+2) = {n}, "
                         "where both sides of the product identity truncate to zero")
    if orbits is None:
        orbits = orbit_representatives(r, order - n + 1)
    eta = eigen_field(r).zeta(r + 1)
    units = []
    for orbit in orbits:
        unit = orbit.h.truncate(order - n + 1).divide_monomial(1, 1)
        if unit is None:
            return None
        units.append(unit)
    return reduce(mul, units) ** (r + 2) * eta ** ((r + 1) * n // 2)


def unit_product_closed_form(r: int, like: FracSeries) -> FracSeries:
    """The unit part -1/(1 + (-1)^r q1) = -sum_k (-(-1)^r q1)^k of the
    closed-form product, in the setting of the series ``like``."""
    want = {(k * (r + 1), 0): -((-1) ** ((r + 1) * k)) for k in range(like.trunc // (r + 1) + 1)}
    return FracSeries(like.field, like.den1, like.den2, like.trunc, want)


def eigenvalue_product_identity(r: int, order: int | None = None,
                                orbits: list[EigenPair] | None = None) -> bool:
    """prod of all h-eigenvalues equals -q1^(r+2) q2^(r+1)/(1+(-1)^r q1)
    through the q1-order ``order`` (counted in steps of q1^(1/(r+1)), by
    default ``product_order(r)``), from ``orbits`` when given."""
    if order is None:
        order = product_order(r)
    prod = eigenvalue_unit_product(r, order, orbits)
    return prod is not None and prod == unit_product_closed_form(r, prod)


def closed_form_roots(r: int) -> list[CycNumber]:
    """The leading q1-coefficients omega^i, i = 0..r, of the closed forms,
    in Q(zeta_(r+1))."""
    fld = CycField(r + 1)
    return [fld.zeta(i) for i in range(r + 1)]


def equivariant_roots(r: int) -> list[CycNumber]:
    """The roots (-1)^r xi^(-i), i = 0..r, of the equivariant spectrum in
    Q(zeta_(r+1))."""
    fld = CycField(r + 1)
    sign = Fraction((-1) ** r)
    return [fld.zeta(-i) * sign for i in range(r + 1)]


def spectrum_structure_match(r: int) -> bool:
    """Leading q1-coefficients of the closed forms match the equivariant
    spectrum roots: {omega^i} = {(-1)^r xi^(-i)} as subsets of Q(zeta_(r+1))."""
    return ({root.coeffs for root in closed_form_roots(r)}
            == {root.coeffs for root in equivariant_roots(r)})


# --- numeric certificate --------------------------------------------------------


def eigenvalues_numeric(r: int, q1: complex, q2: complex) -> list[complex]:
    """All (r+1)(r+2) closed-form eigenvalues of h* at a numeric point, with
    principal fractional powers."""
    out = []
    root1 = q1 ** (1.0 / (r + 1))
    root2 = q2 ** (1.0 / (r + 2))
    for i in range(r + 1):
        omega_i = np.exp(2j * np.pi * i / (r + 1))
        base = 1 + omega_i * root1
        for j in range(r + 2):
            eta_j = np.exp(2j * np.pi * j / (r + 2))
            out.append(eta_j * omega_i * root1 * root2 * base ** (-1.0 / (r + 2)))
    return out


def _matrix_to_complex(rows: list[dict]) -> np.ndarray:
    """The square matrix of sparse rows as a complex array."""
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in row.items():
            out[i, j] = entry.to_complex()
    return out


def _multiset_match(a: list[complex], b: list[complex]) -> float:
    """Greedy nearest matching; returns the largest matched distance."""
    remaining = list(b)
    worst = 0.0
    for x in a:
        best = min(range(len(remaining)), key=lambda k: abs(remaining[k] - x))
        worst = max(worst, abs(remaining[best] - x))
        remaining.pop(best)
    return worst


def semisimplicity_certificate(r: int, q1: tuple[Fraction, Fraction],
                               q2: tuple[Fraction, Fraction],
                               matrices: tuple[list[dict], list[dict]],
                               gap_tol: float = 1e-6,
                               match_tol: float = 1e-9) -> dict:
    """Certify pairwise-distinct eigenvalues and formula-vs-matrix agreement.

    ``matrices`` are the exact (h*, x*) of ``multiplication_matrices`` at
    this sample point.  Raises SemisimplicityError when the gap or matching
    tolerance fails; also checks that the eigenvector frame of h*
    diagonalizes x* (simultaneous diagonalizability, with no branch pairing
    asserted) and that the float commutator of h* and x* is below its bound.
    ``failed_bounds`` names each of these two checks that fails, with its
    value and its bound.
    """
    q1c = complex(Fraction(q1[0]), Fraction(q1[1]))
    q2c = complex(Fraction(q2[0]), Fraction(q2[1]))
    H = _matrix_to_complex(matrices[0])
    X = _matrix_to_complex(matrices[1])
    formula = eigenvalues_numeric(r, q1c, q2c)
    gaps = [abs(a - b) for idx, a in enumerate(formula) for b in formula[idx + 1:]]
    min_gap = min(gaps)
    if min_gap <= gap_tol:
        raise SemisimplicityError(f"eigenvalue gap {min_gap:.3e} below tolerance")
    # one eigen-decomposition gives the spectrum and the eigenvector frame
    vals, vecs = np.linalg.eig(H)
    worst = _multiset_match(formula, list(vals))
    if worst > match_tol:
        raise SemisimplicityError(
            f"formula-vs-matrix spectrum mismatch {worst:.3e} above tolerance")
    # simultaneous diagonalizability: eigenvectors of h* diagonalize x*
    conj = np.linalg.solve(vecs, X @ vecs)
    off = conj - np.diag(np.diag(conj))
    off_norm = float(np.max(np.abs(off)))
    commutator = float(np.max(np.abs(H @ X - X @ H)))
    failed = [f"{name} {value:.3e} not below {bound:g}" for name, value, bound in (
        ("simultaneous off-diagonal", off_norm, 1e-6),
        ("commutator norm", commutator, 1e-12)) if not value < bound]
    return {
        "r": r,
        "sample": {"q1": [str(q1[0]), str(q1[1])], "q2": [str(q2[0]), str(q2[1])]},
        "eigenvalues": len(formula),
        "min_gap": min_gap,
        "spectrum_match": worst,
        "simultaneous_offdiag": off_norm,
        "commutator_norm": commutator,
        "failed_bounds": failed,
        "certified": bool(min_gap > gap_tol and worst <= match_tol and not failed),
    }
