"""The classical cohomology ring of the local model and its Chern numbers.

The ring is Z[h, x]/(h^(r+1), x(x-h)^(r+1)) where h is the hyperplane class
of the base projective space and x the relative hyperplane class; the
monomial basis is h^a x^b with 0 <= a <= r, 0 <= b <= r+1, and integration
reads off the coefficient of h^r x^(r+1).

Raw (unreduced) polynomials in h, x are term maps, dicts mapping exponent
pairs (A, B) to coefficients.  They are added, multiplied and scaled by
``linalg.add_terms``, ``mul_terms`` and ``scale_terms``; ``raw_pow`` takes
their powers by square-and-multiply.

The coefficients are Python ints, as the ring is over Z; a Fraction appears
only where a value is divided (the 1/24 of the genus-one term, or a class
scaled by a Fraction).  An int class equals, and hashes like, its Fraction
twin.  The total Chern class is formed once per r and shared by every Chern
class read from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from qcflop.algebra.linalg import add_term, add_terms, mul_terms, scale_terms
from qcflop.algebra.power import binary_power

RawPoly = dict[tuple[int, int], int | Fraction]


def raw_pow(p: RawPoly, n: int) -> RawPoly:
    return binary_power(p, n, {(0, 0): 1}, mul_terms)


def substitute_h_by_x_minus_h(p: RawPoly) -> RawPoly:
    """The exponent-level substitution h -> x - h, x -> x on a raw polynomial:
    h^a x^b goes to sum_k C(a, k) (-1)^k h^k x^(a - k + b)."""
    out: RawPoly = {}
    for (a, b), c in p.items():
        for k in range(a + 1):
            add_term(out, (k, a - k + b), c * (-1) ** k * comb(a, k))
    return out


class CohClass:
    """A reduced element of the cohomology ring, on the h^a x^b basis."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: RawPoly):
        for (a, b) in coeffs:
            if not (0 <= a <= r and 0 <= b <= r + 1):
                raise ValueError(f"exponent ({a},{b}) outside the monomial basis")
        self.r = r
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @classmethod
    def reduce(cls, r: int, raw: RawPoly) -> "CohClass":
        """Canonical form: apply h^(r+1) = 0 and rewrite excess x-powers via
        the relation x(x-h)^(r+1) = 0, one x-power at a time."""
        # h^(r+1) = 0, so a term of h-degree above r is dropped as it arises
        work = {k: c for k, c in raw.items() if k[0] <= r and c}
        # x^(r+2) = -sum_{k>=1} C(r+1,k) (-h)^k x^(r+2-k)
        rewrite = {(k, r + 2 - k): (-1) ** (k + 1) * comb(r + 1, k)
                   for k in range(1, r + 2)}
        # a rewrite lowers the x-power, so one pass from the top x-power down ends
        for b in range(max((b for _, b in work), default=0), r + 1, -1):
            for a in [a for a in range(r + 1) if (a, b) in work]:
                c = work.pop((a, b))
                # h^a x^b = h^a x^(b - r - 2) * x^(r+2)
                for (da, db), v in rewrite.items():
                    if a + da <= r:
                        add_term(work, (a + da, b - (r + 2) + db), v * c)
        return cls(r, work)

    def __add__(self, other: "CohClass") -> "CohClass":
        return CohClass(self.r, add_terms(self.coeffs, other.coeffs))

    def __sub__(self, other: "CohClass") -> "CohClass":
        return CohClass(self.r, add_terms(self.coeffs, other.coeffs, sign=-1))

    def __mul__(self, other: "CohClass") -> "CohClass":
        return CohClass.reduce(self.r, mul_terms(self.coeffs, other.coeffs))

    def scale(self, c) -> "CohClass":
        return CohClass(self.r, scale_terms(self.coeffs, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.r == other.r and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (a, b) in sorted(self.coeffs):
            c = self.coeffs[(a, b)]
            mono = "".join(
                [f"h^{a}" if a > 1 else "h" if a == 1 else "",
                 f"x^{b}" if b > 1 else "x" if b == 1 else ""]) or "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def basis(r: int) -> list[tuple[int, int]]:
    """The monomial basis h^a x^b, 0 <= a <= r, 0 <= b <= r+1, as (a, b)
    pairs; the quantum ring uses the same basis."""
    return [(a, b) for a in range(r + 1) for b in range(r + 2)]


def monomial(r: int, a: int, b: int, c=1) -> CohClass:
    return CohClass.reduce(r, {(a, b): c})


def integrate(c: CohClass) -> int | Fraction:
    """Integration normalized by the value 1 on h^r x^(r+1)."""
    return c.coeffs.get((c.r, c.r + 1), 0)


def integrate_raw(r: int, raw: RawPoly) -> int | Fraction:
    return integrate(CohClass.reduce(r, raw))


_TOTAL_CHERN: dict[int, RawPoly] = {}


def _total_chern(r: int) -> RawPoly:
    one_h = {(0, 0): 1, (1, 0): 1}
    one_x = {(0, 0): 1, (0, 1): 1}
    one_xh = {(0, 0): 1, (0, 1): 1, (1, 0): -1}
    return mul_terms(raw_pow(one_h, r + 1), mul_terms(one_x, raw_pow(one_xh, r + 1)))


def total_chern_raw(r: int) -> RawPoly:
    """(1+h)^(r+1) (1+x) (1+x-h)^(r+1) as a raw polynomial, formed once per
    r and shared by every caller, who must not change it in place."""
    if r not in _TOTAL_CHERN:
        _TOTAL_CHERN[r] = _total_chern(r)
    return _TOTAL_CHERN[r]


def chern_class(r: int, k: int) -> CohClass:
    """The degree-k piece c_k of the total Chern class, reduced."""
    raw = {key: c for key, c in total_chern_raw(r).items() if key[0] + key[1] == k}
    return CohClass.reduce(r, raw)


def chern_flop_identity(r: int) -> int:
    """The pairing of c_(2r) against 2h - x; equals -(r+1) for every r."""
    if r < 1:
        raise ValueError("r must be at least 1")
    c2r = chern_class(r, 2 * r)
    probe = monomial(r, 1, 0, 2) + monomial(r, 0, 1, -1)
    return integrate(c2r * probe)


def genus1_degree0(r: int, alpha: CohClass) -> Fraction:
    """Degree-zero genus-one one-point value: -(1/24) (c_(2r) . alpha)."""
    c2r = chern_class(r, 2 * r)
    return -Fraction(1, 24) * integrate(c2r * alpha)


def c3_minus_c2c1(r: int = 1) -> int:
    """Integral of c_3 - c_2 c_1 on the threefold local model (r = 1 only)."""
    if r != 1:
        raise ValueError("the threefold Chern number is defined only for r = 1")
    c1 = chern_class(r, 1)
    c2 = chern_class(r, 2)
    c3 = chern_class(r, 3)
    return integrate(c3) - integrate(c2 * c1)


def c3_minus_c2c1_swapped(r: int = 1) -> int:
    """Same number recomputed after the raw substitution h -> x - h.

    The substitution is not a ring map on the quotient, but integration is
    invariant under it, which is the identification of the two sides of the
    flop for the local model.
    """
    if r != 1:
        raise ValueError("the threefold Chern number is defined only for r = 1")
    total = total_chern_raw(r)
    c1 = {k: c for k, c in total.items() if k[0] + k[1] == 1}
    c2 = {k: c for k, c in total.items() if k[0] + k[1] == 2}
    c3 = {k: c for k, c in total.items() if k[0] + k[1] == 3}
    diff = add_terms(c3, mul_terms(c2, c1), sign=-1)
    return integrate_raw(r, substitute_h_by_x_minus_h(diff))


def pairing_matrix(r: int) -> list[dict[int, int]]:
    """Gram matrix of integrate on products of basis monomials, as the rows
    {column: nonzero entry}."""
    pairs = basis(r)
    # h^a1 x^b1 . h^a2 x^b2 = h^(a1+a2) x^(b1+b2): integrate each exponent
    # sum once, and only those of the top degree 2r + 1, since the relations
    # are homogeneous and integration reads a class of that degree
    value = {(a, 2 * r + 1 - a): integrate(monomial(r, a, 2 * r + 1 - a)) for a in range(2 * r + 1)}
    return [{j: v for j, (a2, b2) in enumerate(pairs) if (v := value.get((a1 + a2, b1 + b2)))}
            for (a1, b1) in pairs]
