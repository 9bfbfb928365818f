"""Negative controls: each registered anchor fails under a perturbation of one
formula, and its failing row names what it compared.

The registry maps an anchor to (perturbation, suite, r, residual).  The
perturbation monkeypatches one formula that the anchor reads; ``cli.main``
must then exit 1, with that anchor failing and the residual given; an anchor
with one row per m or n gives the residual of its first failing row.  The
quantization suite does not depend on r, so its entries carry r = None.
"""

import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from qcflop import batyrev as bat
from qcflop import canonical, cli, weyl
from qcflop import cohomology as coh
from qcflop import flopcheck as fc
from qcflop.algebra import CycField, Poly, RatFunc, linalg
from qcflop.algebra.linalg import add_term, mul_terms

from helpers import corrupt_orbit


def wrong_sign_in_the_second_bundle(monkeypatch):
    # (1 + x - h)^(r+1) read as (1 + x + h)^(r+1): c_1 gains 2(r+1) h
    def total_chern_raw(r):
        one_h = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        one_x = {(0, 0): Fraction(1), (0, 1): Fraction(1)}
        one_x_plus_h = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1)}
        return mul_terms(coh.raw_pow(one_h, r + 1),
                         mul_terms(one_x, coh.raw_pow(one_x_plus_h, r + 1)))

    monkeypatch.setattr(coh, "total_chern_raw", total_chern_raw)


def basis_without_the_top_x_power(monkeypatch):
    # h^a x^b with b <= r only, the basis of the ring with x (x-h)^r as its
    # relation: (r+1)^2 monomials in place of (r+1)(r+2)
    original = coh.basis
    monkeypatch.setattr(coh, "basis", lambda r: [(a, b) for a, b in original(r) if b <= r])


def integration_normalized_to_two(monkeypatch):
    # integration reads 2 on h^r x^(r+1) in place of 1: every entry of the
    # Gram matrix doubles, and its determinant gains 2^((r+1)(r+2))
    monkeypatch.setattr(coh, "integrate", lambda c: 2 * c.coeffs.get((c.r, c.r + 1), Fraction(0)))


def genus_one_degree_zero_without_its_sign(monkeypatch):
    # +(1/24) (c_(2r) . alpha) in place of -(1/24) (c_(2r) . alpha)
    monkeypatch.setattr(coh, "genus1_degree0", lambda r, alpha: Fraction(1, 24) * coh.integrate(
        coh.chern_class(r, 2 * r) * alpha))


def substitute_h_by_x_plus_h(monkeypatch):
    # h^a x^b goes to (x + h)^a x^b.  The identity substitution would not
    # fail the anchor: integrating the reduced form already gives -18 twice
    def substitute(p):
        out = {}
        for (a, b), c in p.items():
            for k in range(a + 1):
                add_term(out, (k, a - k + b), c * comb(a, k))
        return out

    monkeypatch.setattr(coh, "substitute_h_by_x_minus_h", substitute)


def darboux_p_without_its_sign(monkeypatch):
    # p^i_k -> (-1)^k T_i z^(-k-1): every p q term of a hamiltonian flips sign
    original = weyl.darboux_vector

    def darboux_vector(dim, cutoff, kind, var):
        vec = original(dim, cutoff, kind, var)
        return vec.scale(-1) if kind == "p" else vec

    monkeypatch.setattr(weyl, "darboux_vector", darboux_vector)


def commutator_reversed(monkeypatch):
    # [A1, A2] read as [A2, A1], so P([A1, A2]) is minus the bracket
    original = weyl.EndoLaurent.commutator
    monkeypatch.setattr(weyl.EndoLaurent, "commutator", lambda a, b: original(b, a))


def dilaton_shift_in_mode_zero(monkeypatch):
    # the shift lands on q^0_0 instead of q^0_1
    def dilaton_shift(coords, cutoff):
        out = {k: Fraction(v) for k, v in coords.items()}
        add_term(out, (0, 0), Fraction(1))
        return out

    monkeypatch.setattr(weyl, "dilaton_shift", dilaton_shift)


def flop_transform_without_the_sign_of_g(monkeypatch):
    # G -> (-1)^r + G in place of (-1)^r - G, which is not an involution
    def flop_transform(x):
        out = {}
        for (el, eg, k), c in x.terms.items():
            for j in range(k + 1):
                add_term(out, (eg - el, eg, j), c * comb(k, j) * (-1) ** (x.r * (k - j)))
        return fc.RingRElement(x.r, out)

    monkeypatch.setattr(fc, "flop_transform", flop_transform)


def poisson_bracket_swapped(monkeypatch):
    # {P1, P2} read as {P2, P1}: the quantization defect is no longer a scalar
    original = weyl.poisson_bracket
    monkeypatch.setattr(weyl, "poisson_bracket", lambda P1, P2: original(P2, P1))


def commutator_read_as_the_product(monkeypatch):
    # [A1, A2] read as A1 A2, which is not infinitesimally symplectic
    def product(a, b):
        n = a.dim
        return weyl.EndoLaurent(n, {e1 + e2: [[sum(m1[i][k] * m2[k][j] for k in range(n))
                                               for j in range(n)] for i in range(n)]
                                    for e1, m1 in a.terms.items() for e2, m2 in b.terms.items()})

    monkeypatch.setattr(weyl.EndoLaurent, "commutator", product)


def g_of_the_wrong_parity(monkeypatch):
    # G = q/(1 - (-1)^r q) in place of q/(1 - (-1)^(r+1) q)
    original = fc.g_function
    monkeypatch.setattr(fc, "g_function", lambda r: original(r + 1))


def chain_rule_with_the_wrong_sign(monkeypatch):
    # delta G = G - (-1)^(r+1) G^2 in place of G + (-1)^(r+1) G^2
    def delta_g_polynomial(r, m):
        p = Poly.monomial(fc.Q, 1)
        for _ in range(m):
            p = p.derivative() * Poly(fc.Q, [0, 1, (-1) ** r])
        return p

    monkeypatch.setattr(fc, "delta_g_polynomial", delta_g_polynomial)


def reversal_without_the_shift(monkeypatch):
    # f(1/w) with num and den each reversed at its own degree, which drops
    # the power of w that balances a numerator of lower degree
    def subs_reciprocal(self):
        return RatFunc(self.field, self.root_order, self.num.reversed_coeffs(self.num.degree),
                       self.den.reversed_coeffs(self.den.degree))

    monkeypatch.setattr(RatFunc, "subs_reciprocal", subs_reciprocal)


def ladder_one_rung_up(monkeypatch):
    # delta^m G read as delta^(m+1) G
    original = fc.delta_g_direct
    monkeypatch.setattr(fc, "delta_g_direct", lambda r, m: original(r, m + 1))


def ladder_of_the_wrong_parity(monkeypatch):
    # delta^m G read from the ladder of r + 1: still antisymmetric, but its
    # q^d coefficients are (-1)^(d-1) d^m
    original = fc.delta_g_direct
    monkeypatch.setattr(fc, "delta_g_direct", lambda r, m: original(r + 1, m))


def chern_term_with_the_wrong_sign(monkeypatch):
    # dG/dlog q takes + the localized first-Chern term in place of -, which
    # moves kappa by 2 (r+1)^2 / 24, from -1/8 to 5/8 at r = 2; the genus-one
    # memo is dropped, so the form is assembled again
    original = canonical.term_c_minus_one
    monkeypatch.setattr(canonical, "_GENUS_ONE", {})
    monkeypatch.setattr(canonical, "term_c_minus_one", lambda frame: -original(frame))


def chern_pairing_against_2h_plus_x(monkeypatch):
    # c_(2r) paired with 2h + x in place of 2h - x: 51 in place of -3 at
    # r = 2, so the classical term is -17/8 and kappa is untouched
    def chern_flop_identity(r):
        probe = coh.monomial(r, 1, 0, 2) + coh.monomial(r, 0, 1, 1)
        return coh.integrate(coh.chern_class(r, 2 * r) * probe)

    monkeypatch.setattr(coh, "chern_flop_identity", chern_flop_identity)


def one_solved_entry_plus_one(monkeypatch):
    # the ring's one elimination returns coordinate 0 of its first solved
    # column, the entry of x* in row 0 and column x^(r+1), plus 1
    original = linalg.row_reduce

    def row_reduce(rows, one, ncols):
        out = original(rows, one, ncols)
        rows[0][ncols] = rows[0].get(ncols, one - one) + one
        return out

    monkeypatch.setattr(linalg, "row_reduce", row_reduce)


def orbit_1_read_as_orbit_0(monkeypatch):
    # omega^1 read as omega^0: both relations still hold on every pair, but
    # the unit part of orbit 0 enters the product twice and that of orbit 1
    # not at all
    original = bat.eigen_formulas
    monkeypatch.setattr(bat, "eigen_formulas",
                        lambda r, i, j, order: original(r, 0 if i == 1 else i, j, order))


def orbit_1_off_its_closed_form(monkeypatch):
    # eta^j q1^(3/(r+1)) q2^(1/(r+2)) added to h at every pair (1, j): the
    # pairs stay eta^j times (1, 0), and the relations fail on each of them
    corrupt_orbit(monkeypatch, 1)


def equivariant_roots_with_the_wrong_sign(monkeypatch):
    # (-1)^(r+1) xi^(-i) in place of (-1)^r xi^(-i); at odd r, -1 is an
    # (r+1)-th root of unity, so the set is unchanged and only even r fails
    def equivariant_roots(r):
        fld = CycField(r + 1)
        return [fld.zeta(-i) * Fraction((-1) ** (r + 1)) for i in range(r + 1)]

    monkeypatch.setattr(bat, "equivariant_roots", equivariant_roots)


CONTROLS = {
    "cohomology/ring-rank": (basis_without_the_top_x_power, "cohomology", 2, "9"),
    "cohomology/poincare-unimodular": (integration_normalized_to_two, "cohomology", 2, "4096"),
    "cohomology/chern-flop-pairing": (chern_pairing_against_2h_plus_x, "cohomology", 2, "51"),
    "cohomology/first-chern-fiber-class": (
        wrong_sign_in_the_second_bundle, "cohomology", 2, "c_1 = 4*x + 6*h, not 4*x"),
    "cohomology/genus-one-degree-zero": (
        genus_one_degree_zero_without_its_sign, "cohomology", 2, "-1/8"),
    "cohomology/threefold-chern-number": (
        substitute_h_by_x_plus_h, "cohomology", 1, "-18 vs -14"),
    "quantization/string-hamiltonian": (
        darboux_p_without_its_sign, "quantization", None,
        "P(1/z) is not the string hamiltonian: first failing term (((0, 0),), ((0, 1),)):"
        " got 1, want -1"),
    "quantization/hamiltonian-lie-homomorphism": (
        commutator_reversed, "quantization", None,
        "first failing (exp1, exp2) = (-1, -1): P([A1, A2]) is not {P(A1), P(A2)}"),
    "quantization/dilaton-shift": (
        dilaton_shift_in_mode_zero, "quantization", None,
        "the shift of the origin is not t^0_1 = 1"),
    "quantization/cocycle-table": (
        poisson_bracket_swapped, "quantization", None,
        "first failing (v, w) = ((0, 0), (0, 0)): non-scalar quantization defect:"
        " FockOperator({((), (), 0): Fraction(2, 1), (((0, 0),), ((0, 0),), 0): Fraction(8, 1)})"),
    "flop/transform-involution": (
        flop_transform_without_the_sign_of_g, "flop", 2,
        "F(F(x)) is not x: first failing term (0, 2, 0): got -1, want 0"),
    "flop/reflection": (g_of_the_wrong_parity, "flop", 2, "G(q) + G(1/q) = (-1), not 1"),
    "flop/delta-g-closed-form": (
        chain_rule_with_the_wrong_sign, "flop", 2, "p_1 has G-coefficients [0, 1, 1], not [0, 1, -1]"),
    "flop/delta-g-polynomial": (
        chain_rule_with_the_wrong_sign, "flop", 2, "p_1(G) is not delta^1 G by direct differentiation"),
    "flop/reciprocal-antisymmetry": (
        reversal_without_the_shift, "flop", 2, "delta^1 G(1/q) is not (-1)^0 delta^1 G(q)"),
    "flop/genus-one-npoint-invariance": (
        ladder_one_rung_up, "flop", 2, "kappa delta^1 G(1/q) is not (-1)^0 kappa delta^1 G(q)"),
    "flop/genus-one-kappa": (chern_term_with_the_wrong_sign, "flop", 2, "5/8"),
    "flop/genus-one-onepoint-defect": (chern_pairing_against_2h_plus_x, "flop", 2, "-9/4"),
    "batyrev/multiplication-commutes": (
        one_solved_entry_plus_one, "batyrev", 2,
        "first nonzero entry of HX - XH at (i, j) = (0, 8): -3/13"),
    "batyrev/eigen-relations": (
        orbit_1_off_its_closed_form, "batyrev", 2,
        "12 pairs checked, 8 residuals nonzero; first at (i, j) = (1, 0), spectrum-relation-1,"
        " leading exponent (5, 3)"),
    "batyrev/eigenvalue-count": (
        orbit_1_read_as_orbit_0, "batyrev", 2, "8 distinct leading coefficients of 12"),
    # x* off by one entry leaves h* and its spectrum alone, so the row fails
    # through the two fixed bounds on x*, and names both
    "batyrev/semisimplicity-certificate": (
        one_solved_entry_plus_one, "batyrev", 2,
        "min gap 2.205e-01, spectrum match 2.026e-15, simultaneous off-diagonal 1.756e-01"
        " not below 1e-06, commutator norm 1.000e+00 not below 1e-12"),
    "batyrev/eigenvalue-product": (
        orbit_1_read_as_orbit_0, "batyrev", 2,
        "prod of the unit parts is not -1/(1 + (-1)^r q1): first failing term (0, 0):"
        " got 1*z12^2, want -1"),
    "batyrev/spectrum-structure-match": (
        equivariant_roots_with_the_wrong_sign, "batyrev", 2,
        "omega^0 is none of the equivariant roots (-1)^r xi^(-k), k = 0..2"),
    "flop/zero-point-series-invariance": (
        ladder_of_the_wrong_parity, "flop", 1,
        "first failing d = 2: the q^2 coefficient of delta^1 G is -2, not 2"),
}


def verify(suite, r, capsys):
    """The exit code of one serial verify run and, by anchor, the first
    failing row of each anchor, or its first row when none fails."""
    args = ["verify", suite, "--format", "json", "--jobs", "1"]
    code = cli.main(args + (["--r", str(r)] if r is not None else []))
    rows = {}
    for e in json.loads(capsys.readouterr().out)["entries"]:
        if rows.setdefault(e["anchor"], e)["status"] == "pass" and e["status"] == "fail":
            rows[e["anchor"]] = e
    return code, rows


@pytest.mark.parametrize("anchor", sorted(CONTROLS))
def test_the_anchor_passes_unperturbed(capsys, anchor):
    _, suite, r, _ = CONTROLS[anchor]
    code, entries = verify(suite, r, capsys)
    assert code == 0 and entries[anchor]["status"] == "pass"


@pytest.mark.parametrize("anchor", sorted(CONTROLS))
def test_one_perturbed_formula_fails_the_anchor(capsys, monkeypatch, anchor):
    perturb, suite, r, residual = CONTROLS[anchor]
    perturb(monkeypatch)
    code, entries = verify(suite, r, capsys)
    assert code == 1
    assert entries[anchor]["status"] == "fail"
    assert entries[anchor]["residual"] == residual


def test_an_unshift_that_does_not_undo_the_shift_fails_the_dilaton_anchor(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "dilaton_unshift", lambda coords: dict(coords))
    code, entries = verify("quantization", None, capsys)
    assert code == 1
    assert entries["quantization/dilaton-shift"]["residual"] == (
        "the unshift of the shift is not the origin")


def test_a_commutator_that_is_not_symplectic_fails_the_lie_anchor_with_the_error(
        capsys, monkeypatch):
    commutator_read_as_the_product(monkeypatch)
    code, entries = verify("quantization", None, capsys)
    assert code == 1
    assert entries["quantization/hamiltonian-lie-homomorphism"]["residual"] == (
        "first failing (exp1, exp2) = (-1, -1): operator fails Omega(Af,g) + Omega(f,Ag) = 0")


def test_an_operator_test_that_rejects_everything_fails_the_string_hamiltonian(
        capsys, monkeypatch):
    monkeypatch.setattr(weyl, "is_infinitesimal_symplectic", lambda A, dim, cutoff: False)
    code, entries = verify("quantization", None, capsys)
    assert code == 1
    assert entries["quantization/string-hamiltonian"]["residual"] == (
        "P(1/z): operator fails Omega(Af,g) + Omega(f,Ag) = 0")


def test_a_series_recurrence_cut_after_one_term_fails_the_series_route(capsys, monkeypatch):
    # each Taylor coefficient reads only den_1: exact for G, whose denominator
    # is linear, and wrong for every delta^m G with m >= 1
    def series_expand(self, order):
        num, den = self.num.coeffs, self.den.coeffs
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else self.field.zero
            if k and len(den) > 1:
                acc = acc - den[1] * out[k - 1]
            out.append(acc / den[0])
        return out

    monkeypatch.setattr(RatFunc, "series_expand", series_expand)
    code, entries = verify("flop", 2, capsys)
    assert code == 1
    assert entries["flop/delta-g-polynomial"]["residual"] == (
        "first failing d = 3: the q^3 coefficient of p_1(G) is 4, not 3 = d^1 times that of G")


def test_the_cocycle_table_names_the_first_failing_pair_in_product_order(capsys, monkeypatch):
    # the table derives each unordered pair {v, w} once; a closed form that is
    # wrong on every pair of two distinct coordinates is named as a loop over
    # all ordered pairs names it
    original = weyl.expected_cocycle

    def expected_cocycle(P1, P2):
        ((pm, _),) = P1.terms
        return original(P1, P2) + (len(set(pm)) == 2)

    monkeypatch.setattr(weyl, "expected_cocycle", expected_cocycle)
    variables = [(i, k) for i in range(2) for k in range(4)]
    want = None
    for v, w in product(variables, repeat=2):
        P1 = weyl.QuadHamiltonian(2, 3, {((v, w), ()): 1})
        P2 = weyl.QuadHamiltonian(2, 3, {((), (v, w)): 1})
        got, expected = weyl.commutator_cocycle(P1, P2), weyl.expected_cocycle(P1, P2)
        if got != expected:
            want = f"first failing (v, w) = {(v, w)}: got {got}, want {expected}"
            break
    assert want is not None and want.startswith("first failing (v, w) = ((0, 0), (0, 1)):")
    code, entries = verify("quantization", None, capsys)
    assert code == 1
    assert entries["quantization/cocycle-table"]["residual"] == want


def test_the_wrong_root_sign_passes_the_spectrum_structure_at_odd_r(capsys, monkeypatch):
    equivariant_roots_with_the_wrong_sign(monkeypatch)
    code, entries = verify("batyrev", 3, capsys)
    assert code == 0 and entries["batyrev/spectrum-structure-match"]["status"] == "pass"


def test_an_h_the_leading_monomial_does_not_divide_names_its_orbit(capsys, monkeypatch):
    original = bat.eigen_formulas

    def eigen_formulas(r, i, j, order):
        pair = original(r, i, j, order)
        if i == 1:
            pair.h = pair.h + 1
        return pair

    monkeypatch.setattr(bat, "eigen_formulas", eigen_formulas)
    code, entries = verify("batyrev", 2, capsys)
    assert code == 1
    assert entries["batyrev/eigenvalue-product"]["residual"] == (
        "h_10 has a term that q1^(1/(r+1)) q2^(1/(r+2)) does not divide")


def test_a_perturbed_solved_entry_fails_only_the_rows_that_read_the_matrices(
        capsys, monkeypatch):
    # the exact eigen checks read the closed forms, not x*
    one_solved_entry_plus_one(monkeypatch)
    code, entries = verify("batyrev", 2, capsys)
    assert code == 1
    assert {a for a, e in entries.items() if e["status"] == "fail"} == {
        "batyrev/multiplication-commutes", "batyrev/semisimplicity-certificate"}
