"""Quadratic hamiltonians and Weyl quantization on a truncated loop space.

The phase space is spanned by T_i z^m for -K-1 <= m <= K over the rationals,
with the residue pairing Omega(f, g) = Res_(z=0) (f(-z), g(z)).  Darboux
coordinates: q^i_k is the coefficient of T_i z^k and p^i_k the coefficient of
T_i (-z)^(-k-1) (the sign makes Omega = sum dp^i_k wedge dq^i_k, which is
what reproduces the standard quadratic hamiltonian of multiplication by 1/z).

A quadratic hamiltonian is one term map (p-monomial, q-monomial) -> Fraction,
each monomial a sorted tuple of variables and each term of total degree two:
p_v p_w is ((v, w), ()), p_v q_w is ((v,), (w,)) and q_v q_w is ((), (v, w)).
The Poisson bracket, the Weyl table and the cocycle all read that one map.

Operators that move vectors outside the cutoff window have that part silently
truncated; the window is a genuine symplectic subspace, so all identities
below hold exactly within it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from qcflop.algebra.linalg import add_term, add_terms, scale_terms

Var = tuple[int, int]  # (direction index, z-mode index), mode >= 0


class NonSymplecticError(ValueError):
    """Raised when an operator fails the infinitesimal symplectic identity."""


class FormalismError(ValueError):
    """Raised when a commutator defect is not a central scalar."""


class LoopVector:
    """Rational coefficient vector on the basis T_i z^m, -K-1 <= m <= K."""

    __slots__ = ("dim", "cutoff", "coeffs")

    def __init__(self, dim: int, cutoff: int, coeffs: dict[tuple[int, int], Fraction] | None = None):
        self.dim = dim
        self.cutoff = cutoff
        clean = {}
        for (i, m), c in (coeffs or {}).items():
            if not (0 <= i < dim):
                raise ValueError(f"direction {i} out of range")
            if not (-cutoff - 1 <= m <= cutoff):
                continue  # silently truncate to the window
            c = Fraction(c)
            if c:
                clean[(i, m)] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, dim: int, cutoff: int, i: int, m: int) -> "LoopVector":
        return cls(dim, cutoff, {(i, m): Fraction(1)})

    def __add__(self, other: "LoopVector") -> "LoopVector":
        return LoopVector(self.dim, self.cutoff, add_terms(self.coeffs, other.coeffs))

    def scale(self, c) -> "LoopVector":
        return LoopVector(self.dim, self.cutoff, scale_terms(self.coeffs, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopVector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LoopVector({self.coeffs})"


class EndoLaurent:
    """End(H)-valued Laurent polynomial in z: z-exponent -> dim x dim matrix."""

    def __init__(self, dim: int, terms: dict[int, Iterable[Iterable[Fraction]]]):
        self.dim = dim
        self.terms = {}
        for exp, mat in terms.items():
            rows = tuple(tuple(Fraction(x) for x in row) for row in mat)
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise ValueError("matrix size must match the dimension")
            if any(any(x for x in row) for row in rows):
                self.terms[exp] = rows

    @classmethod
    def scalar_z_power(cls, dim: int, exp: int, coeff=1) -> "EndoLaurent":
        mat = [[Fraction(coeff) if i == j else Fraction(0) for j in range(dim)]
               for i in range(dim)]
        return cls(dim, {exp: mat})

    @classmethod
    def matrix_z_power(cls, dim: int, exp: int, mat) -> "EndoLaurent":
        return cls(dim, {exp: mat})

    def apply(self, v: LoopVector) -> LoopVector:
        out: dict[tuple[int, int], Fraction] = {}
        for exp, mat in self.terms.items():
            for (j, m), c in v.coeffs.items():
                for i in range(self.dim):
                    entry = mat[i][j]
                    if entry:
                        add_term(out, (i, m + exp), entry * c)
        return LoopVector(v.dim, v.cutoff, out)

    def commutator(self, other: "EndoLaurent") -> "EndoLaurent":
        out: dict[int, list[list[Fraction]]] = {}

        def accumulate(a, b, sign):
            for e1, m1 in a.terms.items():
                for e2, m2 in b.terms.items():
                    exp = e1 + e2
                    tgt = out.setdefault(exp, [[Fraction(0)] * self.dim for _ in range(self.dim)])
                    for i in range(self.dim):
                        for j in range(self.dim):
                            acc = sum(m1[i][k] * m2[k][j] for k in range(self.dim))
                            tgt[i][j] += sign * acc

        accumulate(self, other, 1)
        accumulate(other, self, -1)
        return EndoLaurent(self.dim, out)


def _by_mode(v: LoopVector) -> dict[int, list[tuple[int, Fraction]]]:
    """The terms of v grouped by z-mode: mode -> [(direction, coefficient)]."""
    out: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, m), c in v.coeffs.items():
        out.setdefault(m, []).append((i, c))
    return out


def _omega_to_basis(f: dict, j: int, b: int) -> Fraction:
    """Omega(f, T_j z^b) for f grouped by ``_by_mode``, where
    Omega(f, g) = Res_(z=0) (f(-z), g(z)): only the direction-j term of f at
    z^(-1-b) counts, with the sign (-1)^(-1-b)."""
    total = sum((c for i, c in f.get(-1 - b, ()) if i == j), Fraction(0))
    return total if b % 2 else -total


def is_infinitesimal_symplectic(A: EndoLaurent, dim: int, cutoff: int) -> bool:
    """Omega(Af, g) + Omega(f, Ag) = 0 on all basis pairs within the cutoff.

    Omega(Af, T_j z^b) reads only the z^(-1-b) term of Af, and the pairing
    of directions is symmetric, so the sum for (f, g) is minus that for
    (g, f): only the pairs where Af reaches the dual mode of g are visited.
    """
    basis = [(i, a) for i in range(dim) for a in range(-cutoff - 1, cutoff + 1)]
    images = {f: _by_mode(A.apply(LoopVector.basis(dim, cutoff, *f))) for f in basis}
    pairs = {(f, (j, -1 - m)) for f, image in images.items() for m in image for j in range(dim)}
    # Omega(f, Ag) = -Omega(Ag, f)
    return not any(_omega_to_basis(images[f], *g) - _omega_to_basis(images[g], *f)
                   for f, g in pairs)


# --- quadratic hamiltonians -----------------------------------------------------


class QuadHamiltonian:
    """Quadratic form in the Darboux coordinates: the term map
    (p-monomial, q-monomial) -> Fraction of the module docstring.

    The monomials are stored sorted, so p_v^2 is ((v, v), ()) with its plain
    coefficient; a term of another total degree raises FormalismError.
    """

    __slots__ = ("dim", "cutoff", "terms")

    def __init__(self, dim: int, cutoff: int, terms: dict | None = None):
        self.dim = dim
        self.cutoff = cutoff
        self.terms: dict[tuple[tuple, tuple], Fraction] = {}
        for (pm, qm), c in (terms or {}).items():
            if len(pm) + len(qm) != 2:
                raise FormalismError(f"term {(pm, qm)} is not quadratic")
            add_term(self.terms, (tuple(sorted(pm)), tuple(sorted(qm))), Fraction(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadHamiltonian):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"QuadHamiltonian({self.terms})"


def darboux_vector(dim: int, cutoff: int, kind: str, var: Var) -> LoopVector:
    """The loop vector of a unit Darboux coordinate: q^i_k -> T_i z^k and
    p^i_k -> (-1)^(k+1) T_i z^(-k-1)."""
    i, k = var
    if kind == "q":
        return LoopVector.basis(dim, cutoff, i, k)
    if kind == "p":
        return LoopVector.basis(dim, cutoff, i, -k - 1).scale(Fraction((-1) ** (k + 1)))
    raise ValueError(f"unknown coordinate kind {kind!r}")


def hamiltonian_of(A: EndoLaurent, dim: int, cutoff: int) -> QuadHamiltonian:
    """P(A)(f) = (1/2) Omega(Af, f) as a quadratic form; rejects operators
    that are not infinitesimally symplectic."""
    if not is_infinitesimal_symplectic(A, dim, cutoff):
        raise NonSymplecticError("operator fails Omega(Af,g) + Omega(f,Ag) = 0")
    variables = [(i, k) for i in range(dim) for k in range(cutoff + 1)]
    gens = [("p", v) for v in variables] + [("q", v) for v in variables]
    vectors = [darboux_vector(dim, cutoff, *u) for u in gens]
    images = [_by_mode(A.apply(vec)) for vec in vectors]
    # each generator is a signed basis vector: its (direction, mode) and sign
    units = [next(iter(vec.coeffs.items())) for vec in vectors]
    index = {key: idx for idx, (key, _) in enumerate(units)}
    # Omega(Ax_u, x_v) needs a term of Ax_u at the dual mode of x_v; the
    # window is closed under m -> -1-m, so that x_v is a generator
    pairs = set()
    for idx, image in enumerate(images):
        for m, terms in image.items():
            for i, _ in terms:
                other = index[(i, -1 - m)]
                pairs.add((min(idx, other), max(idx, other)))
    terms: dict = {}
    for idx_u, idx_v in sorted(pairs):
        (key_u, c_u), (key_v, c_v) = units[idx_u], units[idx_v]
        quad = c_v * _omega_to_basis(images[idx_u], *key_v) \
            + c_u * _omega_to_basis(images[idx_v], *key_u)
        # from (1/2) Omega(Af, f): the x_u^2 coefficient is quad/4 (quad
        # double-counts the diagonal), the x_u x_v one (u != v) is quad/2
        coeff = quad * Fraction(1, 4) * (2 if idx_u != idx_v else 1)
        # the term's key: the pair's p-variables, then its q-variables
        pair = (gens[idx_u], gens[idx_v])
        add_term(terms, tuple(tuple(v for k, v in pair if k == kind) for kind in "pq"), coeff)
    return QuadHamiltonian(dim, cutoff, terms)


# --- the Poisson bracket ----------------------------------------------------------


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def _mono_derivative(mono: tuple, var) -> tuple[int, tuple]:
    count = mono.count(var)
    if count == 0:
        return 0, ()
    out = list(mono)
    out.remove(var)
    return count, tuple(out)


def poisson_bracket(P1: QuadHamiltonian, P2: QuadHamiltonian) -> QuadHamiltonian:
    """{P1, P2} = sum_v dP1/dp_v dP2/dq_v - dP2/dp_v dP1/dq_v."""
    a, b = P1.terms, P2.terms
    variables = set()
    for poly in (a, b):
        for (pm, qm) in poly:
            variables.update(pm)
            variables.update(qm)
    out: dict = {}
    for v in variables:
        for (pm1, qm1), c1 in a.items():
            n1, dp1 = _mono_derivative(pm1, v)
            if n1 == 0:
                continue
            for (pm2, qm2), c2 in b.items():
                n2, dq2 = _mono_derivative(qm2, v)
                if n2 == 0:
                    continue
                key = (_mono_mul(dp1, pm2), _mono_mul(qm1, dq2))
                add_term(out, key, Fraction(n1 * n2) * c1 * c2)
        for (pm2, qm2), c2 in b.items():
            n2, dp2 = _mono_derivative(pm2, v)
            if n2 == 0:
                continue
            for (pm1, qm1), c1 in a.items():
                n1, dq1 = _mono_derivative(qm1, v)
                if n1 == 0:
                    continue
                key = (_mono_mul(pm1, dp2), _mono_mul(dq1, qm2))
                add_term(out, key, -Fraction(n1 * n2) * c1 * c2)
    return QuadHamiltonian(P1.dim, P1.cutoff, out)


# --- Fock space -----------------------------------------------------------------


class FockOperator:
    """Normal-ordered operator on polynomials in the position variables:
    terms (q-monomial, derivative monomial, hbar exponent) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for (qm, dm, h), c in (terms or {}).items():
            add_term(self.terms, (tuple(sorted(qm)), tuple(sorted(dm)), h), Fraction(c))

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(add_terms(self.terms, other.terms))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(add_terms(self.terms, other.terms, sign=-1))

    def scale(self, c) -> "FockOperator":
        return FockOperator(scale_terms(self.terms, c))

    def __mul__(self, other: "FockOperator") -> "FockOperator":
        """Composition self . other, renormal-ordered exactly."""
        out: dict = {}
        for (q1, d1, h1), c1 in self.terms.items():
            for (q2, d2, h2), c2 in other.terms.items():
                # move the derivatives d1 across the position monomial q2:
                # start from (q2, ()) and apply one derivative at a time
                pieces: dict[tuple[tuple, tuple], Fraction] = {(q2, ()): Fraction(1)}
                for v in d1:
                    nxt: dict[tuple[tuple, tuple], Fraction] = {}
                    for (qm, dm), w in pieces.items():
                        count, reduced = _mono_derivative(qm, v)
                        if count:
                            add_term(nxt, (reduced, dm), w * count)
                        add_term(nxt, (qm, _mono_mul(dm, (v,))), w)
                    pieces = nxt
                for (qm, dm), w in pieces.items():
                    add_term(out, (_mono_mul(q1, qm), _mono_mul(dm, d2), h1 + h2), c1 * c2 * w)
        return FockOperator(out)

    def commutator(self, other: "FockOperator") -> "FockOperator":
        return self * other - other * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> Fraction:
        return self.terms.get(((), (), 0), Fraction(0))

    def is_scalar(self) -> bool:
        return all(k == ((), (), 0) for k in self.terms)

    def __repr__(self) -> str:
        return f"FockOperator({self.terms})"


def quantize(P: QuadHamiltonian) -> FockOperator:
    """The Weyl table: p_v p_w -> hbar d_v d_w, p_v q_w -> q_w d_v and
    q_v q_w -> q_v q_w / hbar, so the term (pm, qm) goes to the q-monomial
    qm, the derivatives pm and hbar^(len(pm) - 1)."""
    return FockOperator({(qm, pm, len(pm) - 1): c for (pm, qm), c in P.terms.items()})


def commutator_cocycle(P1: QuadHamiltonian, P2: QuadHamiltonian) -> Fraction:
    """[P1^, P2^] - {P1, P2}^ must be a central scalar; return it."""
    defect = quantize(P1).commutator(quantize(P2)) - quantize(poisson_bracket(P1, P2))
    if not defect.is_scalar():
        raise FormalismError(f"non-scalar quantization defect: {defect}")
    return defect.scalar_part()


def expected_cocycle(P1: QuadHamiltonian, P2: QuadHamiltonian) -> Fraction:
    """The closed-form table: nonzero only where a pp term of one meets the
    qq term on the same pair of the other, where it is
    +-(1 + delta^(ij) delta_(kl)), + for a pp term of P1."""
    total = Fraction(0)
    for (pm, qm), c1 in P1.terms.items():
        pair = pm or qm
        c2 = P2.terms.get((qm, pm))
        if len(pair) == 2 and c2:
            total += (1 if pm else -1) * (1 + (pair[0] == pair[1])) * c1 * c2
    return total


# --- dilaton shift ----------------------------------------------------------------


def dilaton_shift(coords: dict[Var, Fraction], cutoff: int) -> dict[Var, Fraction]:
    """t^mu_k = q^mu_k + delta^(mu, 0) delta_(k, 1), with the unit the
    direction 0."""
    if cutoff < 1:
        raise ValueError("the dilaton shift needs the mode k = 1 inside the cutoff")
    out = {k: Fraction(v) for k, v in coords.items()}
    add_term(out, (0, 1), Fraction(1))
    return out


def dilaton_unshift(coords: dict[Var, Fraction]) -> dict[Var, Fraction]:
    out = {k: Fraction(v) for k, v in coords.items()}
    add_term(out, (0, 1), Fraction(-1))
    return out
