"""Tests for the quadratic-hamiltonian quantization toy model."""

import json
import random
from fractions import Fraction

import pytest

from qcflop import cli, weyl
from qcflop.algebra.linalg import add_term


def lower(dim=1, exp=-1, coeff=1):
    return weyl.EndoLaurent.scalar_z_power(dim, exp, coeff)


class LoopVector:
    """Rational coefficient vector on the basis T_i z^m, -K-1 <= m <= K, its
    terms outside the window dropped: the dense reference that the Omega
    table is checked against."""

    def __init__(self, dim, cutoff, coeffs=None):
        self.dim = dim
        self.cutoff = cutoff
        self.coeffs = {(i, m): Fraction(c) for (i, m), c in (coeffs or {}).items()
                       if -cutoff - 1 <= m <= cutoff and c}

    @classmethod
    def basis(cls, dim, cutoff, i, m):
        return cls(dim, cutoff, {(i, m): 1})


def apply(A, v):
    """A v for the EndoLaurent A, term by term."""
    out = {}
    for exp, mat in A.terms.items():
        for (j, m), c in v.coeffs.items():
            for i in range(A.dim):
                add_term(out, (i, m + exp), mat[i][j] * c)
    return LoopVector(v.dim, v.cutoff, out)


def darboux_vector(dim, cutoff, kind, var):
    """The loop vector of the unit Darboux coordinate ``weyl.darboux_unit`` names."""
    key, sign = weyl.darboux_unit(kind, var)
    return LoopVector(dim, cutoff, {key: sign})


def symplectic(A, cutoff):
    return weyl.is_infinitesimal_symplectic(weyl.omega_table(A, cutoff))


def symplectic_form(f, g):
    """Omega(f, g) = Res_(z=0) (f(-z), g(z)), summed over every pair of terms:
    the dense reference that ``omega_table`` and ``hamiltonian_of`` are
    checked against."""
    if f.dim != g.dim or f.cutoff != g.cutoff:
        raise ValueError("incompatible loop vectors")
    total = Fraction(0)
    for (i, a), fc in f.coeffs.items():
        for (j, b), gc in g.coeffs.items():
            if a + b == -1 and i == j:
                total += Fraction((-1) ** (a % 2)) * fc * gc
    return total


def fock(terms):
    """A polynomial in the position variables with Laurent powers of hbar:
    (sorted variable tuple, hbar exponent) -> nonzero Fraction."""
    return {(tuple(sorted(mono)), h): Fraction(c) for (mono, h), c in terms.items() if c}


def apply_operator(op, poly):
    """The normal-ordered operator ``op`` acting on the Fock polynomial
    ``poly``, term by term: the reference that ``quantize`` is checked against."""
    out = {}
    for (qm, dm, h), c in op.terms.items():
        for (mono, ph), pc in poly.items():
            coeff = c * pc
            for v in dm:
                count, mono = weyl._mono_derivative(mono, v)
                coeff *= count
                if not coeff:
                    break
            if coeff:
                add_term(out, (weyl._mono_mul(qm, mono), h + ph), coeff)
    return out


def test_symplectic_form_examples():
    f = LoopVector.basis(1, 3, 0, 0)
    g = LoopVector.basis(1, 3, 0, -1)
    assert symplectic_form(f, g) == 1
    assert symplectic_form(f, f) == 0
    f1 = LoopVector.basis(1, 3, 0, 1)
    g2 = LoopVector.basis(1, 3, 0, -2)
    assert symplectic_form(f1, g2) == -1


def test_symplectic_form_antisymmetry_and_nondegeneracy():
    dim, K = 2, 2
    basis = [(i, m) for i in range(dim) for m in range(-K - 1, K + 1)]
    vals = {}
    for u in basis:
        for v in basis:
            fu = LoopVector.basis(dim, K, *u)
            fv = LoopVector.basis(dim, K, *v)
            vals[(u, v)] = symplectic_form(fu, fv)
    for u in basis:
        assert any(vals[(u, v)] for v in basis), "degenerate direction"
        for v in basis:
            assert vals[(u, v)] == -vals[(v, u)]


def test_darboux_unit_names_the_coordinate_kinds():
    assert weyl.darboux_unit("q", (1, 2)) == ((1, 2), 1)
    assert weyl.darboux_unit("p", (1, 2)) == ((1, -3), -1)
    assert weyl.darboux_unit("p", (0, 1)) == ((0, -2), 1)
    with pytest.raises(ValueError):
        weyl.darboux_unit("r", (0, 0))


def test_darboux_normalization():
    # Omega(p-vector, q-vector) = 1 on matching indices
    dim, K = 2, 3
    for i in range(dim):
        for k in range(K + 1):
            p = darboux_vector(dim, K, "p", (i, k))
            q = darboux_vector(dim, K, "q", (i, k))
            assert symplectic_form(p, q) == 1
            assert symplectic_form(q, p) == -1


def test_is_infinitesimal_symplectic():
    assert symplectic(lower(1, -1), 3)
    assert symplectic(lower(1, 1), 3)
    assert not symplectic(lower(1, 0), 3)
    # even powers need antisymmetric matrices, odd powers symmetric ones
    anti = weyl.EndoLaurent.matrix_z_power(2, -2, [[0, 1], [-1, 0]])
    assert symplectic(anti, 3)
    sym = weyl.EndoLaurent.matrix_z_power(2, -2, [[0, 1], [1, 0]])
    assert not symplectic(sym, 3)


def dense_is_infinitesimal_symplectic(A, dim, cutoff):
    """Omega(Af, g) + Omega(f, Ag) over every basis pair."""
    basis = [(i, a) for i in range(dim) for a in range(-cutoff - 1, cutoff + 1)]
    vectors = {f: LoopVector.basis(dim, cutoff, *f) for f in basis}
    images = {f: apply(A, vec) for f, vec in vectors.items()}
    return not any(symplectic_form(images[f], vectors[g])
                   + symplectic_form(vectors[f], images[g])
                   for f in basis for g in basis)


def dense_hamiltonian_of(A, dim, cutoff):
    """P(A) from every pair of Darboux generators, as one term map."""
    if not dense_is_infinitesimal_symplectic(A, dim, cutoff):
        raise weyl.NonSymplecticError("operator fails Omega(Af,g) + Omega(f,Ag) = 0")
    variables = [(i, k) for i in range(dim) for k in range(cutoff + 1)]
    gens = [("p", v) for v in variables] + [("q", v) for v in variables]
    vectors = {u: darboux_vector(dim, cutoff, *u) for u in gens}
    images = {u: apply(A, vec) for u, vec in vectors.items()}
    terms = {}
    for idx, u in enumerate(gens):
        for v in gens[idx:]:
            quad = symplectic_form(images[u], vectors[v]) \
                + symplectic_form(images[v], vectors[u])
            coeff = quad * Fraction(1, 4) * (2 if u != v else 1)
            pm = tuple(sorted(var for kind, var in (u, v) if kind == "p"))
            qm = tuple(sorted(var for kind, var in (u, v) if kind == "q"))
            terms[pm, qm] = terms.get((pm, qm), Fraction(0)) + coeff
    return weyl.QuadHamiltonian(dim, cutoff, terms)


def operators(dim):
    """Symplectic and non-symplectic operators: odd z-powers need symmetric
    matrices, even ones antisymmetric, and sums mix powers."""
    sym = [[(i + 1) * (j + 1) + (i == j) for j in range(dim)] for i in range(dim)]
    anti = [[j - i for j in range(dim)] for i in range(dim)]
    ops = []
    for exp in (-3, -2, -1, 0, 1, 2):
        for mat in (sym, anti):
            ops.append(weyl.EndoLaurent(dim, {exp: mat}))
    ops.append(weyl.EndoLaurent(dim, {-1: sym, -2: anti, 1: sym}))
    ops.append(weyl.EndoLaurent(dim, {-1: sym, -2: sym}))
    ops.append(weyl.EndoLaurent(dim, {}))
    return ops


@pytest.mark.parametrize("dim, cutoff", [(1, 3), (2, 2), (2, 3), (3, 1)])
def test_sparse_pairs_match_the_dense_loops(dim, cutoff):
    verdicts = set()
    for A in operators(dim):
        want = dense_is_infinitesimal_symplectic(A, dim, cutoff)
        assert symplectic(A, cutoff) == want
        verdicts.add(want)
        try:
            want = dense_hamiltonian_of(A, dim, cutoff)
        except weyl.NonSymplecticError:
            with pytest.raises(weyl.NonSymplecticError):
                weyl.hamiltonian_of(A, dim, cutoff)
        else:
            assert weyl.hamiltonian_of(A, dim, cutoff) == want
    assert verdicts == {True, False}


def random_operator(rng, dim, symplectic_by_construction):
    """An operator with 1-3 distinct z-powers in -3..3 and rational entries;
    made symplectic by symmetrizing the matrix of an odd power and
    antisymmetrizing that of an even one."""
    terms = {}
    for exp in rng.sample(range(-3, 4), rng.randint(1, 3)):
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
               for _ in range(dim)]
        if symplectic_by_construction:
            sign = 1 if exp % 2 else -1
            mat = [[mat[i][j] + sign * mat[j][i] for j in range(dim)] for i in range(dim)]
        terms[exp] = mat
    return terms


def perturbed_in_one_entry(rng, dim, terms):
    """The terms with one matrix entry of one z-power in -3..3 moved by a
    nonzero rational.  An off-diagonal entry breaks the (anti)symmetry of its
    power, and so does a diagonal entry of an even power; the diagonal of an
    odd power may be anything, so it is never chosen."""
    exp, i, j = rng.choice([(e, i, j) for e in range(-3, 4) for i in range(dim)
                            for j in range(dim) if i != j or e % 2 == 0])
    out = {e: [list(row) for row in mat] for e, mat in terms.items()}
    mat = out.setdefault(exp, [[Fraction(0)] * dim for _ in range(dim)])
    mat[i][j] += Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_the_omega_table_path_matches_the_dense_form_on_random_operators(dim, cutoff):
    rng = random.Random(1000 * dim + cutoff)
    for trial in range(8):
        by_construction = trial % 2 == 0
        terms = random_operator(rng, dim, by_construction)
        A = weyl.EndoLaurent(dim, terms)
        try:
            want = dense_hamiltonian_of(A, dim, cutoff)
        except weyl.NonSymplecticError:
            assert not by_construction
            with pytest.raises(weyl.NonSymplecticError):
                weyl.hamiltonian_of(A, dim, cutoff)
            continue
        assert weyl.hamiltonian_of(A, dim, cutoff) == want
        broken = weyl.EndoLaurent(dim, perturbed_in_one_entry(rng, dim, terms))
        with pytest.raises(weyl.NonSymplecticError):
            weyl.hamiltonian_of(broken, dim, cutoff)


def test_the_omega_table_is_omega_of_the_image():
    rng = random.Random(5)
    for dim, cutoff in ((1, 2), (2, 1), (3, 2)):
        A = weyl.EndoLaurent(dim, random_operator(rng, dim, False))
        basis = [(i, m) for i in range(dim) for m in range(-cutoff - 1, cutoff + 1)]
        vectors = {f: LoopVector.basis(dim, cutoff, *f) for f in basis}
        dense = {(f, g): v for f in basis for g in basis
                 if (v := symplectic_form(apply(A, vectors[f]), vectors[g]))}
        assert weyl.omega_table(A, cutoff) == dense


def test_hamiltonian_of_z_inverse():
    # P(1/z) = -q_0^2/2 - sum_m q_(m+1) p_m
    K = 5
    P = weyl.hamiltonian_of(lower(1, -1), 1, K)
    want = {((), ((0, 0), (0, 0))): Fraction(-1, 2)}
    want.update({(((0, m),), ((0, m + 1),)): Fraction(-1) for m in range(K)})
    assert P.terms == want


def test_hamiltonian_of_zero_operator():
    P = weyl.hamiltonian_of(weyl.EndoLaurent(1, {}), 1, 3)
    assert P.is_zero()


def test_hamiltonian_of_rejects_nonsymplectic():
    with pytest.raises(weyl.NonSymplecticError):
        weyl.hamiltonian_of(lower(1, -2), 1, 3)


def test_hamiltonian_of_matrix_z_minus2():
    # with an antisymmetric coefficient the z^-2 operator is symplectic;
    # its hamiltonian couples the two directions (oracle-frozen values)
    K = 3
    anti = weyl.EndoLaurent.matrix_z_power(2, -2, [[0, 1], [-1, 0]])
    P = weyl.hamiltonian_of(anti, 2, K)
    # no p p terms; q q terms: cross terms q^0_k q^1_l with k + l = 1
    want = {((), ((0, 0), (1, 1))): Fraction(-1), ((), ((0, 1), (1, 0))): Fraction(1)}
    # p q terms: q^(1-direction)_(m+2) p^(0-direction)_m shifted pairs
    for m in range(K - 1):
        want[((0, m),), ((1, m + 2),)] = Fraction(-1)
        want[((1, m),), ((0, m + 2),)] = Fraction(1)
    assert P.terms == want


def test_quantize_table():
    # pp applied to q^2 gives 2 hbar
    v = (0, 0)
    P = weyl.QuadHamiltonian(1, 3, {((v, v), ()): 1})
    op = weyl.quantize(P)
    got = apply_operator(op, fock({((v, v), 0): 1}))
    assert got == fock({((), 1): 2})
    # qq applied to 1 gives q^2/hbar
    P2 = weyl.QuadHamiltonian(1, 3, {((), (v, v)): 1})
    got2 = apply_operator(weyl.quantize(P2), fock({((), 0): 1}))
    assert got2 == fock({((v, v), -1): 1})
    # quantized P(1/z) acts as -q0^2/2 - sum q_(m+1) d/dq_m
    K = 3
    P3 = weyl.hamiltonian_of(lower(1, -1), 1, K)
    op3 = weyl.quantize(P3)
    got3 = apply_operator(op3, fock({(((0, 1),), 0): 1}))
    want = fock({(((0, 0), (0, 0), (0, 1)), -1): Fraction(-1, 2),
                 (((0, 2),), 0): -1})
    assert got3 == want


def test_cocycle_values():
    v0 = (0, 0)
    v1 = (0, 1)
    pp_same = weyl.QuadHamiltonian(1, 3, {((v0, v0), ()): 1})
    qq_same = weyl.QuadHamiltonian(1, 3, {((), (v0, v0)): 1})
    assert weyl.commutator_cocycle(pp_same, qq_same) == 2
    pp_mixed = weyl.QuadHamiltonian(1, 3, {((v0, v1), ()): 1})
    qq_mixed = weyl.QuadHamiltonian(1, 3, {((), (v0, v1)): 1})
    assert weyl.commutator_cocycle(pp_mixed, qq_mixed) == 1
    # pure pp pairs have no defect
    assert weyl.commutator_cocycle(pp_same, pp_mixed) == 0
    # antisymmetry
    assert weyl.commutator_cocycle(qq_same, pp_same) == -2


def test_cocycle_full_table():
    # dim 2, cutoff 3: every pp/qq pair matches 1 + delta delta
    dim, K = 2, 3
    variables = [(i, k) for i in range(dim) for k in range(K + 1)]
    for v in variables:
        for w in variables:
            P1 = weyl.QuadHamiltonian(dim, K, {((v, w), ()): 1})
            P2 = weyl.QuadHamiltonian(dim, K, {((), (v, w)): 1})
            got = weyl.commutator_cocycle(P1, P2)
            want = 1 + (1 if v == w else 0)
            assert got == want == weyl.expected_cocycle(P1, P2)
    # non-matching pairs vanish
    P1 = weyl.QuadHamiltonian(dim, K, {(((0, 0), (0, 1)), ()): 1})
    P2 = weyl.QuadHamiltonian(dim, K, {((), ((0, 0), (0, 2))): 1})
    assert weyl.commutator_cocycle(P1, P2) == 0 == weyl.expected_cocycle(P1, P2)


def test_cocycle_table_names_its_first_failing_pair(monkeypatch, capsys):
    real = weyl.commutator_cocycle
    target = ((0, 1), (1, 2))

    def wrong_at_one_pair(P1, P2):
        got = real(P1, P2)
        return got + 1 if set(P1.terms) == {(target, ())} else got

    monkeypatch.setattr(weyl, "commutator_cocycle", wrong_at_one_pair)
    assert cli.main(["verify", "quantization", "--format", "json"]) == 1
    entries = json.loads(capsys.readouterr().out)["entries"]
    failed = [e for e in entries if e["status"] == "fail"]
    assert [e["anchor"] for e in failed] == ["quantization/cocycle-table"]
    assert failed[0]["residual"] == "first failing (v, w) = ((0, 1), (1, 2)): got 2, want 1"


def test_cocycle_against_expected_on_random_quadratics():
    dim, K = 2, 2
    v = [(0, 0), (0, 1), (1, 0), (1, 2)]
    P1 = weyl.QuadHamiltonian(dim, K, {((v[0], v[1]), ()): 2,
                                       ((v[2], v[2]), ()): Fraction(1, 3),
                                       ((v[0],), (v[3],)): 5,
                                       ((), (v[1], v[3])): Fraction(-7, 2)})
    P2 = weyl.QuadHamiltonian(dim, K, {((v[1], v[3]), ()): 4,
                                       ((v[2],), (v[1],)): -1,
                                       ((), (v[0], v[1])): 6,
                                       ((), (v[2], v[2])): 9})
    assert weyl.commutator_cocycle(P1, P2) == weyl.expected_cocycle(P1, P2)


def test_lie_algebra_homomorphism():
    """P([A1, A2]) = {P(A1), P(A2)} for lowering-lowering and raising-raising
    pairs (the window is invariant in one direction, so no boundary terms)."""
    dim, K = 2, 3
    B = [[1, 2], [2, -1]]   # symmetric: odd z-powers
    C = [[0, 1], [1, 3]]
    for exp1, exp2 in ((-1, -1), (-1, -3), (1, 1)):
        A1 = weyl.EndoLaurent.matrix_z_power(dim, exp1, B)
        A2 = weyl.EndoLaurent.matrix_z_power(dim, exp2, C)
        assert symplectic(A1, K)
        assert symplectic(A2, K)
        bracket = A1.commutator(A2)
        lhs = weyl.hamiltonian_of(bracket, dim, K)
        rhs = weyl.poisson_bracket(weyl.hamiltonian_of(A1, dim, K),
                                   weyl.hamiltonian_of(A2, dim, K))
        assert lhs == rhs


def test_poisson_bracket_example():
    # {p^2, q^2} = 4 q p
    v = (0, 0)
    P1 = weyl.QuadHamiltonian(1, 2, {((v, v), ()): 1})
    P2 = weyl.QuadHamiltonian(1, 2, {((), (v, v)): 1})
    got = weyl.poisson_bracket(P1, P2)
    assert got.terms == {((v,), (v,)): 4}


def test_a_term_of_another_degree_is_rejected():
    v, w = (0, 0), (0, 1)
    for term in (((v, w), (v,)), ((), (v, v, w)), ((v,), ()), ((), ())):
        with pytest.raises(weyl.FormalismError, match="is not quadratic"):
            weyl.QuadHamiltonian(1, 2, {term: 1})
    # unsorted monomials are stored sorted, and cancelled terms are dropped
    P = weyl.QuadHamiltonian(1, 2, {((w, v), ()): 1, ((), (w, v)): 0})
    assert P.terms == {((v, w), ()): 1}


def test_dilaton_shift():
    coords = {}
    shifted = weyl.dilaton_shift(coords, 3)
    assert shifted == {(0, 1): Fraction(1)}
    back = weyl.dilaton_unshift(shifted)
    assert back == {}
    # only the unit-direction k=1 slot moves
    coords = {(1, 1): Fraction(5), (0, 2): Fraction(-1)}
    shifted = weyl.dilaton_shift(coords, 3)
    assert shifted[(1, 1)] == 5 and shifted[(0, 1)] == 1 and shifted[(0, 2)] == -1
    assert weyl.dilaton_unshift(shifted) == coords
