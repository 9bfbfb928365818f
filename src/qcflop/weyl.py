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

An operator A, an End(H)-valued Laurent polynomial in z, enters through one
sparse table T[f, g] = Omega(A b_f, b_g) on the basis b_(i, m) = T_i z^m of
the window, read straight off its z-power matrices: A is infinitesimally
symplectic exactly when T is symmetric, and each Darboux generator is a
signed basis vector, so its hamiltonian P(A) reads its coefficients off T.

Operators that move vectors outside the cutoff window have that part silently
truncated; the window is a genuine symplectic subspace, so all identities
below hold exactly within it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from qcflop.algebra.linalg import add_term, add_terms, scale_terms

Var = tuple[int, int]  # (direction index, z-mode index), mode >= 0
Key = tuple[int, int]  # (direction index, z-exponent) of the basis vector T_i z^m


def _fraction(c) -> Fraction:
    """c as a Fraction; one already a Fraction is kept, not rebuilt."""
    return c if type(c) is Fraction else Fraction(c)


class NonSymplecticError(ValueError):
    """Raised when an operator fails the infinitesimal symplectic identity."""


class FormalismError(ValueError):
    """Raised when a commutator defect is not a central scalar."""


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


def omega_table(A: EndoLaurent, cutoff: int) -> dict[tuple[Key, Key], Fraction]:
    """The nonzero entries T[f, g] = Omega(A b_f, b_g) on the basis
    b_(i, m) = T_i z^m of the cutoff window.

    A b_(j, m) has the term A_e[i][j] T_i z^(m+e) for each z-power e, kept
    when m + e lies in the window, and it pairs only with b_(i, -1-m-e), with
    the sign (-1)^(m+e); the window is closed under m -> -1-m.
    """
    table: dict[tuple[Key, Key], Fraction] = {}
    for e, mat in A.terms.items():
        for m in range(max(-cutoff - 1, -cutoff - 1 - e), min(cutoff, cutoff - e) + 1):
            odd = (m + e) % 2
            for i, row in enumerate(mat):
                for j, c in enumerate(row):
                    if c:
                        add_term(table, ((j, m), (i, -1 - m - e)), -c if odd else c)
    return table


def is_infinitesimal_symplectic(table: dict[tuple[Key, Key], Fraction]) -> bool:
    """Omega(Af, g) + Omega(f, Ag) = 0 on all basis pairs, read from the Omega
    table of A: Omega(f, Ag) = -Omega(Ag, f), so the identity says that the
    table is symmetric."""
    return all(table.get((g, f)) == c for (f, g), c in table.items())


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
            add_term(self.terms, (tuple(sorted(pm)), tuple(sorted(qm))), _fraction(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadHamiltonian):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"QuadHamiltonian({self.terms})"


def darboux_unit(kind: str, var: Var) -> tuple[Key, int]:
    """The signed basis vector of a unit Darboux coordinate, as its basis key
    and sign: q^i_k -> T_i z^k and p^i_k -> (-1)^(k+1) T_i z^(-k-1)."""
    i, k = var
    if kind == "q":
        return (i, k), 1
    if kind == "p":
        return (i, -k - 1), (-1) ** (k + 1)
    raise ValueError(f"unknown coordinate kind {kind!r}")


def hamiltonian_of(A: EndoLaurent, dim: int, cutoff: int) -> QuadHamiltonian:
    """P(A)(f) = (1/2) Omega(Af, f) as a quadratic form; rejects operators
    that are not infinitesimally symplectic.

    With f = sum_u x_u c_u b_u over the Darboux generators x_u, each the basis
    vector b_u with the sign c_u, the form is (1/2) sum_(u, v) x_u x_v c_u c_v
    T[u, v] for the symmetric Omega table T: the x_u x_v coefficient is
    c_u c_v T[u, v] for u != v and T[u, u]/2 on the diagonal.
    """
    table = omega_table(A, cutoff)
    if not is_infinitesimal_symplectic(table):
        raise NonSymplecticError("operator fails Omega(Af,g) + Omega(f,Ag) = 0")
    variables = [(i, k) for i in range(dim) for k in range(cutoff + 1)]
    gens = [("p", v) for v in variables] + [("q", v) for v in variables]
    # the generators run over the window once: basis key -> (position, generator, sign)
    units = {}
    for idx, gen in enumerate(gens):
        key, sign = darboux_unit(*gen)
        units[key] = (idx, gen, sign)
    terms: dict = {}
    for (f, g), t in table.items():
        (idx_u, u, c_u), (idx_v, v, c_v) = units[f], units[g]
        if idx_u > idx_v:
            continue  # the table is symmetric: each unordered pair once
        coeff = c_u * c_v * t if idx_u != idx_v else t / 2
        # the term's key: the pair's p-variables, then its q-variables
        add_term(terms, tuple(tuple(w for kind, w in (u, v) if kind == k) for k in "pq"), coeff)
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
            add_term(self.terms, (tuple(sorted(qm)), tuple(sorted(dm)), h), _fraction(c))

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
                # start from (q2, ()) and apply one derivative at a time; the
                # weights are counts, so they stay ints
                pieces: dict[tuple[tuple, tuple], int] = {(q2, ()): 1}
                for v in d1:
                    nxt: dict[tuple[tuple, tuple], int] = {}
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
