"""Acceptance gate: every criterion at its stated tolerance.

The identities are exact, so almost every check is an exact equality over the
rationals or a cyclotomic field; the single numeric criterion (the
semisimplicity certificate) carries the stated floating tolerances.  Each
test prints one pass/fail line for its criterion.
"""

import time
from fractions import Fraction

from qcflop import batyrev, canonical, cohomology, flopcheck, weyl
from qcflop.algebra import EquivScalar, Poly


def _announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_genus_one_form():
    """dG equals ((-1)^(r+1)(r+1)/24) q/(1-(-1)^(r+1)q) dlog q for r = 1..12."""
    worst = 0.0
    ok = True
    for r in range(1, 13):
        t0 = time.time()
        form, _ = canonical.genus_one_form(r)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        ok = ok and (form == canonical.genus_one_expected(r)) and elapsed < 60.0
    _announce(1, "genus-one differential closed form r=1..12", ok,
              f"max {worst:.1f}s per r")


def test_criterion_02_genus_one_table():
    ok = canonical.genus_one_table(1, 10) == [Fraction(1, 12 * d) for d in range(1, 11)]
    for r in range(1, 6):
        table = canonical.genus_one_table(r, 10)
        for d in range(1, 11):
            ok = ok and table[d - 1] == Fraction((-1) ** (d * (r + 1)) * (r + 1), 24 * d)
    _announce(2, "genus-one degree table r=1..5, d=1..10", ok)


def test_criterion_03_diagonal_constant():
    ok = True
    for r in range(1, 9):
        terms = canonical.xi_g_terms(r)
        ok = ok and canonical.xi_constant(terms) == Fraction(-(r + 2) * (r + 1) ** 2 * r, 24)
        ok = ok and canonical.xi_constant_pair_identity(terms)
    _announce(3, "brute-force diagonal constant r=1..8", ok)


def test_criterion_04_chern_pairing_and_defect():
    ok = True
    for r in range(1, 7):
        ok = ok and cohomology.chern_flop_identity(r) == -(r + 1)
        ok = ok and flopcheck.genus1_onepoint_defect(r) == 0
    _announce(4, "Chern pairing -(r+1) and one-point defect zero r=1..6", ok)


def test_criterion_05_continuation_identities():
    ok = True
    for r in range(1, 6):
        ok = ok and flopcheck.verify_reflection(r)
        ok = ok and flopcheck.delta_g_polynomial(r, 1) == Poly(
            flopcheck.Q, [0, 1, (-1) ** (r + 1)])
        base = [c.as_rational() for c in flopcheck.g_function(r).series_expand(30)]
        for m in range(8):
            poly = flopcheck.delta_g_polynomial(r, m)
            ok = ok and all(c.as_rational().denominator == 1 for c in poly.coeffs)
            got = flopcheck.evaluate_g_polynomial(poly, r).series_expand(30)
            ok = ok and all(got[d].as_rational() == base[d] * Fraction(d) ** m
                            for d in range(31))
        for m in range(1, 8):
            ok = ok and flopcheck.reciprocal_antisymmetry(r, m)
    for r in range(1, 5):
        kappa = Fraction((-1) ** (r + 1) * (r + 1), 24)
        for n in range(2, 7):
            ok = ok and flopcheck.genus1_npoint_invariance(r, n, kappa=kappa)
    _announce(5, "reflection, derivative polynomials, reciprocal sweeps", ok)


def test_criterion_06_appendix_intermediates():
    ok = True
    for r in range(1, 6):
        frame = canonical.build_spectrum(r)
        ok = ok and all(res.is_zero() for res in canonical.char_residuals(frame))
        es = canonical.charpoly_coefficients(frame)
        for k, ek in enumerate(es, start=1):
            ok = ok and ek == canonical.charpoly_expected(frame, k)
            ok = ok and ek.weight == k and canonical.as_g_polynomial(ek.value, r) is not None
        ok = ok and all(canonical.lemma_zero_value(r, k).is_zero() for k in range(r))
        ok = ok and canonical.equiv_pairing(r, r, 1).is_zero()
        for i in range(r + 1):
            for j in range(r + 1):
                ok = ok and canonical.du_of_eps(frame, i, j) == (1 if i == j else 0)
                pairing = canonical.eps_pairing(frame, i, j)
                if i == j:
                    ok = ok and pairing == canonical.eps_norm_closed_form(frame, i)
                else:
                    ok = ok and pairing.is_zero()
        deltas = canonical.delta_i(frame)
        one = EquivScalar.one(frame.field, frame.u)
        for i in range(r + 1):
            ok = ok and deltas[i] * canonical.eps_pairing(frame, i, i) == one
        g = canonical.g_in_w(r)
        ok = ok and canonical.term_log_delta(frame) == (1 - g * Fraction(2 * (-1) ** r)) * r
        ok = ok and canonical.term_c_minus_one(frame) == g * Fraction((-1) ** r * (r + 1) ** 2, 24)
        conn = canonical.connection_form(frame)
        disp = canonical.connection_display_form(frame)
        for i in range(r + 1):
            ok = ok and conn[i][i].is_zero()
            for j in range(r + 1):
                ok = ok and (conn[i][j] + conn[j][i]).is_zero()
                ok = ok and conn[i][j] == -disp[i][j]
        off, diag = canonical.first_order(frame)
        off_disp = canonical.r1_offdiagonal_display(frame)
        for i in range(r + 1):
            for j in range(r + 1):
                if i != j:
                    ok = ok and off[i][j] == -off_disp[i][j]
        closed = canonical.r1_diagonal_closed_form(frame)
        ok = ok and all(diag[i] == closed[i] for i in range(r + 1))
    _announce(6, "appendix intermediate identities r=1..5", ok)


def test_criterion_07_recursion_unitarity():
    ok = True
    for r in range(1, 4):
        frame = canonical.build_spectrum(r)
        mats, info = canonical.r_matrix_recursion(r, 3)
        off, diag = canonical.first_order(frame)
        for i in range(r + 1):
            for j in range(r + 1):
                want = diag[i] if i == j else off[i][j]
                ok = ok and mats[1][i][j] == want
        ok = ok and all(info["unitarity_exact"][n] for n in (1, 2, 3))
    _announce(7, "recursion first-order match and unitarity n<=3, r<=3", ok)


def test_criterion_08_quantum_ring_spectrum():
    ok = True
    for r in range(1, 4):
        report = batyrev.verify_eigen_relations(r, 10)
        ok = ok and report["failures"] == []
        ok = ok and report["pairs_checked"] == (r + 1) * (r + 2)
    q1, q2 = (Fraction(3, 10), Fraction(0)), (Fraction(7, 10), Fraction(0))
    cert = batyrev.semisimplicity_certificate(
        1, q1, q2, batyrev.multiplication_matrices(1, q1, q2), gap_tol=1e-6, match_tol=1e-9)
    ok = ok and cert["certified"] and cert["min_gap"] > 1e-6
    ok = ok and cert["spectrum_match"] <= 1e-9
    q1, q2 = (Fraction(1, 5), Fraction(1, 10)), (Fraction(1, 4), Fraction(0))
    cert2 = batyrev.semisimplicity_certificate(
        2, q1, q2, batyrev.multiplication_matrices(2, q1, q2), gap_tol=1e-6, match_tol=1e-9)
    ok = ok and cert2["certified"]
    _announce(8, "quantum-ring relations order 10 and numeric certificate", ok,
              f"min gap {min(cert['min_gap'], cert2['min_gap']):.2e}")


def test_criterion_09_quantization_toy():
    K = 5
    P = weyl.hamiltonian_of(weyl.EndoLaurent.scalar_z_power(1, -1), 1, K)
    want = {((), ((0, 0), (0, 0))): Fraction(-1, 2)}
    want.update({(((0, m),), ((0, m + 1),)): Fraction(-1) for m in range(K)})
    ok = P.terms == want
    dim, cutoff = 2, 3
    variables = [(i, k) for i in range(dim) for k in range(cutoff + 1)]
    for v in variables:
        for w in variables:
            P1 = weyl.QuadHamiltonian(dim, cutoff, {((v, w), ()): 1})
            P2 = weyl.QuadHamiltonian(dim, cutoff, {((), (v, w)): 1})
            ok = ok and weyl.commutator_cocycle(P1, P2) == 1 + (1 if v == w else 0)
    _announce(9, "string hamiltonian at K=5 and cocycle table N=2, K=3", ok)


def test_criterion_10_exclusions_documented():
    """Global flops, relative invariants and the full ancestor potential are
    out of scope; the package must not pretend to expose them."""
    import qcflop
    import pathlib

    readme = pathlib.Path(qcflop.__file__).resolve().parents[2] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    ok = "out of scope" in text or "not covered" in text
    surface = set(dir(qcflop))
    ok = ok and not any(name in surface for name in
                        ("ancestor_potential", "relative_invariants", "degeneration"))
    _announce(10, "exclusions documented, no phantom surface", ok)
