"""Tests for the small quantum ring and its spectrum."""

import json
from fractions import Fraction

import pytest

from qcflop import batyrev as bat
from qcflop import cli
from qcflop import cohomology as coh
from qcflop import suites
from qcflop.algebra import FracSeries, linalg

from helpers import corrupt_orbit, record_calls


def from_one(engine, a, b):
    """The (h, y)-frame representative of h^a x^b built from 1: b steps of
    x, then a steps of h."""
    vec = {(0, 0): engine.one}
    for _ in range(b):
        vec = engine.mult_xi(vec)
    for _ in range(a):
        vec = engine.mult_h(vec)
    return vec


def y_to_basis(ring, vec):
    """The coordinates on the monomial basis of an (h, y)-frame vector, from
    its own elimination of the embedding augmented with the vector in column
    n, the way ``QuantumRing.mult_matrices`` reduces its columns."""
    zero, n = ring.engine.zero, len(ring.basis)
    rows = [{k: image[mono] for k, image in enumerate(ring._embed) if mono in image}
            for mono in ring.basis]
    for row, mono in zip(rows, ring.basis):
        if vec.get(mono, zero) != zero:
            row[n] = vec[mono]
    pivots, _ = linalg.row_reduce(rows, ring.engine.one, n)
    assert len(pivots) == n
    return [row.get(n, zero) for row in rows]


def reduce(ring, raw):
    """Reduce a raw polynomial in (h, x), keys (h-exponent, x-exponent) with
    Fraction coefficients, to the monomial basis of the ring: the reference
    that the ring's own multiplication is checked against."""
    total = {}
    for (A, B), c in raw.items():
        for key, v in from_one(ring.engine, A, B).items():
            linalg.add_term(total, key, v * c)
    coords = y_to_basis(ring, total)
    return {ring.basis[k]: c for k, c in enumerate(coords) if not c.is_zero()}


def commute_at(r, q1, q2):
    """The exact commutator check at the real sample point (q1, q2)."""
    return bat.matrices_commute_at(*bat.multiplication_matrices(r, (q1, 0), (q2, 0)))


def test_quantum_relations_reduce_as_stated():
    # h * h^r carries q1: reduce h^(r+1) and check it matches q1 (x-h)^(r+1)
    for r in (1, 2):
        ring = bat.ring_at_point(r, bat.gauss(Fraction(1, 3)), bat.gauss(Fraction(1, 5)))
        lhs = reduce(ring, {(r + 1, 0): Fraction(1)})
        # q1 (x - h)^(r+1) expanded raw
        from math import comb
        raw = {}
        for k in range(r + 2):
            raw[(k, r + 1 - k)] = Fraction((-1) ** k * comb(r + 1, k), 3)
        rhs = reduce(ring, raw)
        assert lhs == rhs
        assert any(not v.is_zero() for v in lhs.values())
        # x (x-h)^(r+1) reduces to the scalar q2
        raw2 = {}
        for k in range(r + 2):
            raw2[(k, r + 2 - k)] = Fraction((-1) ** k * comb(r + 1, k))
        got = reduce(ring, raw2)
        assert got == {(0, 0): bat.gauss(Fraction(1, 5))}


def test_basis_monomials_reduce_to_themselves():
    r = 1
    ring = bat.ring_at_point(r, bat.gauss(Fraction(1, 7)), bat.gauss(Fraction(2, 7)))
    for (a, b) in coh.basis(r):
        got = reduce(ring, {(a, b): Fraction(1)})
        assert got == {(a, b): bat.GAUSS.one}


def test_classical_limit_matches_cohomology():
    # at q1 = q2 = 0 the ring is the classical one; compare reductions
    for r in (1, 2):
        ring = bat.ring_at_point(r, bat.gauss(Fraction(0)), bat.gauss(Fraction(0)))
        for raw in ({(0, r + 2): Fraction(1)}, {(r + 1, 1): Fraction(1)},
                    {(2, r): Fraction(3), (0, 2): Fraction(-1)}):
            got = reduce(ring, raw)
            want = coh.CohClass.reduce(r, raw).coeffs
            got_frac = {k: v for k, v in got.items() if not v.is_zero()}
            assert set(got_frac) == set(want)
            for key, val in want.items():
                assert got_frac[key] == bat.gauss(val)


def ring_symbolic_q1(r, q2_value):
    """The ring over the field Q(q1) with q2 a fixed rational value."""
    one = bat.q1_field_one()
    return bat.QuantumRing(r, bat.q1_symbol(), one * q2_value, one)


def test_mult_matrix_nilpotent_at_origin():
    import numpy as np
    for r in (1, 2):
        origin = bat.gauss(Fraction(0))
        arr = bat._matrix_to_complex(bat.ring_at_point(r, origin, origin).mult_matrices()[0])
        power = np.linalg.matrix_power(arr, 2 * r + 2)
        assert abs(power).max() < 1e-12


def test_mult_matrices_commute_at_points():
    for r in (1, 2, 3):
        for (a, b) in ((Fraction(1, 3), Fraction(1, 7)), (Fraction(-2, 5), Fraction(3, 4))):
            assert commute_at(r, a, b)


def test_det_h_closed_form():
    # the exact determinant over Q(q1) at the q2 nodes 0..r+3, one more than
    # a polynomial of degree r+2 in q2 needs
    for r in (1, 2):
        degree, coeff = bat.det_h_closed_form(r)
        one = bat.q1_field_one()
        for t in range(r + 4):
            det = linalg.det(ring_symbolic_q1(r, Fraction(t)).mult_matrices()[0], one)
            assert det == coeff * Fraction(t) ** degree


def test_det_h_at_points_r3():
    # full symbolic determinant is slow at r=3; verify at exact sample points
    degree, coeff = bat.det_h_closed_form(3)
    one = bat.q1_field_one()
    for (a, b) in ((Fraction(1, 3), Fraction(1, 7)), (Fraction(-2, 5), Fraction(3, 4))):
        ring = bat.ring_at_point(3, bat.gauss(a), bat.gauss(b))
        det = linalg.det(ring.mult_matrices()[0], bat.GAUSS.one)
        want = coeff.eval_rational(a) * bat.gauss(b) ** degree
        assert det == want


def test_eigen_formula_leading_terms():
    r = 2
    pair = bat.eigen_formulas(r, 0, 0, 6)
    # xi-eigenvalue leading term is q2^(1/(r+2))
    assert pair.xi.terms.get((0, 1)) == pair.xi.field.one
    # h-eigenvalue leading term is q1^(1/(r+1)) q2^(1/(r+2))
    assert pair.h.terms.get((1, 1)) == pair.h.field.one
    fld = bat.eigen_field(r)
    omega = fld.zeta(r + 2)
    eta = fld.zeta(r + 1)
    pair12 = bat.eigen_formulas(r, 1, 2, 6)
    assert pair12.h.terms.get((1, 1)) == eta**2 * omega
    # setting q1 = 0 kills the h-eigenvalue: every term carries a power of q1
    assert all(n1 > 0 for (n1, _) in pair12.h.terms)
    assert any(n1 == 0 for (n1, _) in pair12.xi.terms)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_eigen_formulas_match_two_binomial_series(r):
    # xi from base^((r+1)/(r+2)) expanded on its own, as a second series
    order = 10
    fld = bat.eigen_field(r)
    omega, eta = fld.zeta(r + 2), fld.zeta(r + 1)
    d1, d2 = r + 1, r + 2
    X = FracSeries.monomial(fld, d1, d2, order, 1, 0)
    Y = FracSeries.monomial(fld, d1, d2, order, 0, 1)
    for i in range(r + 1):
        base = FracSeries.one(fld, d1, d2, order) + X * omega**i
        h_unit = base.binomial_power(Fraction(-1, r + 2))
        xi_unit = base.binomial_power(Fraction(r + 1, r + 2))
        for j in range(r + 2):
            pair = bat.eigen_formulas(r, i, j, order)
            assert pair.h.terms == (X * Y * (eta**j * omega**i) * h_unit).terms
            assert pair.xi.terms == (Y * eta**j * xi_unit).terms


def direct_eigen_formulas(r, i, j, order):
    """The (i, j) pair expanded on its own, every factor included."""
    fld = bat.eigen_field(r)
    omega, eta = fld.zeta(r + 2), fld.zeta(r + 1)
    d1, d2 = r + 1, r + 2
    X = FracSeries.monomial(fld, d1, d2, order, 1, 0)
    Y = FracSeries.monomial(fld, d1, d2, order, 0, 1)
    base = FracSeries.one(fld, d1, d2, order) + X * omega**i
    root = base.binomial_power(Fraction(-1, r + 2))
    return X * Y * (eta**j * omega**i) * root, Y * eta**j * (base * root)


@pytest.mark.parametrize("order", [6, 19])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_eigen_formulas_match_the_direct_closed_form(r, order):
    for i in range(r + 1):
        for j in range(r + 2):
            pair = bat.eigen_formulas(r, i, j, order)
            h, xi = direct_eigen_formulas(r, i, j, order)
            assert (pair.r, pair.i, pair.j) == (r, i, j)
            assert pair.h.terms == h.terms and pair.xi.terms == xi.terms
            assert pair.h.trunc == order


def test_eigen_relations_exact():
    report = bat.verify_eigen_relations(1, 6)
    assert report["pairs_checked"] == 6
    assert report["failures"] == []
    report = bat.verify_eigen_relations(2, 5)
    assert report["pairs_checked"] == 12
    assert report["failures"] == []


def reference_eigen_relations(r, order):
    """Both residuals formed for every pair, one pair at a time, and the
    leading h-coefficient read off every pair."""
    failures = []
    pairs = 0
    leading = set()
    for i in range(r + 1):
        for j in range(r + 2):
            pair = bat.eigen_formulas(r, i, j, order)
            first, second = bat.eigen_relation_residuals(pair)
            pairs += 1
            leading.add(pair.h.terms.get((1, 1), pair.h.field.zero))
            for name, res in (("spectrum-relation-1", first), ("spectrum-relation-2", second)):
                if not res.is_zero():
                    exps = sorted(res.terms)
                    failures.append({"i": i, "j": j, "relation": name,
                                     "leading_exponent": list(exps[0])})
    return {"r": r, "order": order, "pairs_checked": pairs,
            "leading_coefficients": len(leading), "failures": failures}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_eigen_relations_match_per_pair_reference(r):
    report = bat.verify_eigen_relations(r, 10)
    assert report == reference_eigen_relations(r, 10)
    assert report["pairs_checked"] == report["leading_coefficients"] == (r + 1) * (r + 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_checks_derive_each_orbit_once(monkeypatch, r):
    calls = record_calls(monkeypatch)
    bat.verify_eigen_relations(r, 10)
    assert calls == [(i, 0) for i in range(r + 1)]
    calls.clear()
    bat.eigenvalue_unit_product(r, (r + 5) * (r + 1))
    assert calls == [(i, 0) for i in range(r + 1)]
    # a batyrev cell runs both checks on one derivation of each orbit
    calls.clear()
    assert suites.batyrev_suite(r).all_pass()
    assert calls == [(i, 0) for i in range(r + 1)]


@pytest.mark.parametrize("r", [1, 3, 5])
def test_truncated_orbits_equal_orbits_derived_at_the_order(r):
    high = bat.orbit_representatives(r, 19)
    for order in (1, 10, 19):
        low = bat.orbit_representatives(r, order)
        for a, b in zip(high, low):
            cut = a.truncate(order)
            assert (cut.h, cut.h.trunc) == (b.h, b.h.trunc)
            assert (cut.xi, cut.xi.trunc) == (b.xi, b.xi.trunc)
    with pytest.raises(ValueError):
        high[0].h.truncate(20)


@pytest.mark.parametrize("orbit, which", [(1, "h"), (0, "h"), (2, "xi")])
def test_eigen_relations_corrupted_orbit_matches_reference(monkeypatch, orbit, which):
    # the check reads (orbit, 0) only; the reference reads every pair
    calls = corrupt_orbit(monkeypatch, orbit, which)
    report = bat.verify_eigen_relations(2, 10)
    assert calls == [(i, 0) for i in range(3)]
    assert {(f["i"], f["j"]) for f in report["failures"]} == {(orbit, j) for j in range(4)}
    assert report == reference_eigen_relations(2, 10)


def count_residuals(monkeypatch):
    """eigen_relation_residuals that records the orbit index of each call."""
    real = bat.eigen_relation_residuals
    calls = []

    def counted(pair):
        calls.append(pair.i)
        return real(pair)

    monkeypatch.setattr(bat, "eigen_relation_residuals", counted)
    return calls


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_a_batyrev_cell_forms_the_residuals_of_orbit_0_only(monkeypatch, r):
    calls = count_residuals(monkeypatch)
    assert suites.batyrev_suite(r).all_pass()
    assert calls == [0]


@pytest.mark.parametrize("orbit, which, direct", [(1, "h", [0, 1]), (0, "h", [0, 1, 2]),
                                                  (2, "xi", [0, 2])])
def test_an_orbit_off_its_omega_orbit_forms_its_own_residuals(monkeypatch, orbit, which, direct):
    # orbit i corrupted is not sigma_i of orbit 0; orbit 0 corrupted leaves
    # no other orbit sigma_i of it
    corrupt_orbit(monkeypatch, orbit, which)
    calls = count_residuals(monkeypatch)
    report = bat.verify_eigen_relations(2, 10)
    assert calls == direct
    assert report == reference_eigen_relations(2, 10)


def twisted(pair, i):
    """sigma_i of the pair: q1^(1/(r+1)) -> omega^i q1^(1/(r+1))."""
    m = (pair.r + 2) * i
    return bat.EigenPair(pair.r, i, pair.j, pair.h.twist_q1(m), pair.xi.twist_q1(m))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_residuals_of_each_orbit_are_sigma_i_of_orbit_0s(r):
    order = 10
    orbits = bat.orbit_representatives(r, order)
    fld = bat.eigen_field(r)
    # a family off the closed forms that keeps the omega-orbit: sigma_i of
    # h_00 + q1^(3/(r+1)) q2^(1/(r+2)), so the residuals are nonzero
    extra = FracSeries.monomial(fld, r + 1, r + 2, order, 3, 1)
    off = bat.EigenPair(r, 0, 0, orbits[0].h + extra, orbits[0].xi)
    base, off_base = bat.eigen_relation_residuals(orbits[0]), bat.eigen_relation_residuals(off)
    for i, orbit in enumerate(orbits):
        m = (r + 2) * i
        assert (orbit.h, orbit.xi) == (twisted(orbits[0], i).h, twisted(orbits[0], i).xi)
        assert bat.eigen_relation_residuals(orbit) == tuple(res.twist_q1(m) for res in base)
        direct = bat.eigen_relation_residuals(twisted(off, i))
        assert not direct[0].is_zero() and not direct[1].is_zero()
        assert direct == tuple(res.twist_q1(m) for res in off_base)
        assert [res.leading_exponent() for res in direct] == [
            res.leading_exponent() for res in off_base]


def test_twist_q1_scales_each_term_by_its_root():
    r, order = 3, 8
    fld = bat.eigen_field(r)
    series = bat.eigen_formulas(r, 0, 0, order).h + 3
    for m in (0, 1, 7, (r + 1) * (r + 2) - 1):
        twist = series.twist_q1(m)
        assert twist.terms == {(n1, n2): c * fld.zeta(m * n1)
                               for (n1, n2), c in series.terms.items()}
        assert twist == FracSeries(fld, r + 1, r + 2, order, twist.terms)


@pytest.mark.parametrize("target", [(1, 0), (2, 0)])
def test_eigen_relations_failure_names_the_pair(monkeypatch, capsys, target):
    corrupt_orbit(monkeypatch, target[0])
    failures = reference_eigen_relations(2, 10)["failures"]
    first = failures[0]
    assert cli.main(["verify", "batyrev", "--r", "2"]) == 1
    err = capsys.readouterr().err
    line = next(x for x in err.splitlines() if x.startswith("FAIL batyrev/eigen-relations"))
    assert line.endswith(f"12 pairs checked, {len(failures)} residuals nonzero;"
                         f" first at (i, j) = {target},"
                         f" {first['relation']}, leading exponent"
                         f" {tuple(first['leading_exponent'])}")


def test_eigenvalue_count_negative_control(monkeypatch, capsys):
    # orbit 1 handed the pairs of orbit 0: both relations still hold, but the
    # leading coefficients eta^j omega^0 now come twice
    real = bat.eigen_formulas
    monkeypatch.setattr(bat, "eigen_formulas",
                        lambda r, i, j, order: real(r, 0 if i == 1 else i, j, order))
    assert bat.verify_eigen_relations(2, 10)["failures"] == []
    assert cli.main(["verify", "batyrev", "--r", "2"]) == 1
    fails = [x for x in capsys.readouterr().err.splitlines() if x.startswith("FAIL")]
    assert "FAIL batyrev/eigenvalue-count {'r': 2} 8 distinct leading coefficients of 12" in fails
    assert not any(x.startswith("FAIL batyrev/eigen-relations") for x in fails)


def test_eigen_relations_pass_residual(capsys):
    assert cli.main(["verify", "batyrev", "--r", "1", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    entry = next(e for e in entries if e["anchor"] == "batyrev/eigen-relations")
    assert entry["status"] == "pass" and entry["residual"] == "6 pairs checked"


def test_eigen_relations_negative_control():
    # flipping one sign must fail, surfacing a leading exponent
    r = 1
    pair = bat.eigen_formulas(r, 0, 1, 6)
    corrupted = bat.EigenPair(r, 0, 1, -pair.h, pair.xi)
    first, second = bat.eigen_relation_residuals(corrupted)
    assert not first.is_zero() or not second.is_zero()
    pair2 = bat.eigen_formulas(r, 1, 0, 6)
    corrupted2 = bat.EigenPair(r, 1, 0, pair2.h, -pair2.xi)
    f2, s2 = bat.eigen_relation_residuals(corrupted2)
    assert not f2.is_zero() and not s2.is_zero()


def test_eigenvalue_count_and_product():
    for r in (1, 2):
        assert bat.eigenvalue_product_identity(r)
    n = 0
    for i in range(3):
        for j in range(4):
            n += 1
    assert n == 12 == len(coh.basis(2))


def test_spectrum_structure_match():
    for r in (1, 2, 3, 4):
        assert bat.spectrum_structure_match(r)


def certificate(r, q1, q2):
    """The certificate at the sample point (q1, q2), on its exact h*; a call
    that returns certifies the point."""
    return bat.semisimplicity_certificate(r, q1, q2, bat.multiplication_matrices(r, q1, q2)[0])


def test_semisimplicity_certificate_r1():
    report = certificate(1, (Fraction(3, 10), Fraction(0)), (Fraction(7, 10), Fraction(0)))
    assert report["eigenvalues"] == 6
    assert report["min_gap"] > 1e-6
    assert report["spectrum_match"] <= 1e-9


def test_the_certificate_makes_one_eigen_decomposition(monkeypatch):
    np = bat.np
    real = np.linalg.eig
    calls = []

    def eig(a):
        calls.append(a.shape)
        return real(a)

    def eigvals(a):
        raise AssertionError("the certificate reads the eigenvalues of its one eig")

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    for r in (1, 3):
        calls.clear()
        assert suites.batyrev_suite(r).all_pass()
        assert calls == [((r + 1) * (r + 2), (r + 1) * (r + 2))]


def test_semisimplicity_certificate_r2():
    report = certificate(2, (Fraction(1, 5), Fraction(1, 10)), (Fraction(1, 4), Fraction(0)))
    assert report["eigenvalues"] == 12


def test_verify_batyrev_passes_at_r_17(capsys):
    # the float checks of x* crossed fixed bounds at r = 17; the certificate
    # reads h* only, under the configured tolerances
    assert cli.main(["verify", "batyrev", "--r", "17"]) == 0
    capsys.readouterr()


def test_certificate_rejects_origin():
    with pytest.raises(ValueError):
        certificate(1, (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)))


def test_engine_rejects_degeneration_point():
    with pytest.raises(ZeroDivisionError):
        bat.ring_at_point(1, bat.gauss(Fraction(1)), bat.gauss(Fraction(1, 2)))


# --- the exact-work shortcuts against the plain computations ------------------


def dense_mult_matrix(ring, which):
    """Every column from its own solve against the embedding, zeros
    included, as dense rows."""
    op = ring.engine.mult_h if which == "h" else ring.engine.mult_xi
    n = len(ring.basis)
    cols = [y_to_basis(ring, op(ring._embed[k])) for k in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_mult_matrix_matches_dense_reference(r):
    points = ((Fraction(1, 3), Fraction(1, 7)), (Fraction(-2, 5), Fraction(3, 4)))
    rings = [bat.ring_at_point(r, bat.gauss(a), bat.gauss(b)) for a, b in points]
    if r <= 2:
        rings.append(ring_symbolic_q1(r, Fraction(2, 3)))
    for ring in rings:
        for which, rows in zip(("h", "xi"), ring.mult_matrices()):
            dense = dense_mult_matrix(ring, which)
            assert rows == [{j: c for j, c in enumerate(row) if not c.is_zero()} for row in dense]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_embedding_steps_equal_the_monomials_built_from_one(r):
    one = bat.q1_field_one()
    rings = [bat.ring_at_point(r, bat.gauss(Fraction(1, 3), Fraction(1, 2)),
                               bat.gauss(Fraction(-2, 5))),
             bat.QuantumRing(r, bat.q1_symbol(), one * Fraction(2, 3), one)]
    for ring in rings:
        assert ring._embed == [from_one(ring.engine, a, b) for a, b in ring.basis]


def test_mult_matrix_rows_hold_no_zero_entry():
    for r in (1, 2, 3):
        rings = [bat.ring_at_point(r, bat.gauss(Fraction(1, 3)), bat.gauss(Fraction(1, 7))),
                 bat.ring_at_point(r, bat.gauss(Fraction(0)), bat.gauss(Fraction(0)))]
        for ring in rings:
            for rows in ring.mult_matrices():
                assert len(rows) == len(coh.basis(r))
                assert not any(c.is_zero() for row in rows for c in row.values())


def count_eliminations(monkeypatch):
    """linalg.row_reduce that records, for each call, the number of pivot
    columns and the number of augmented columns that hold an entry."""
    real = linalg.row_reduce
    calls = []

    def counted(rows, one, ncols):
        calls.append((ncols, len({c for row in rows for c in row if c >= ncols})))
        return real(rows, one, ncols)

    monkeypatch.setattr(linalg, "row_reduce", counted)
    return calls


def test_mult_matrix_converts_only_the_non_unit_columns(monkeypatch):
    # one elimination per ring, for h: the r+2 columns h^r x^b and x: the
    # r+1 columns h^a x^(r+1)
    calls = count_eliminations(monkeypatch)
    for r in (1, 3):
        calls.clear()
        ring = bat.ring_at_point(r, bat.gauss(Fraction(1, 3)), bat.gauss(Fraction(1, 7)))
        ring.mult_matrices()
        assert calls == [((r + 1) * (r + 2), 2 * r + 3)]
        calls.clear()
        assert suites.batyrev_suite(r).all_pass()
        assert calls == [((r + 1) * (r + 2), 2 * r + 3)]


def test_an_x_image_off_the_next_monomial_is_solved(monkeypatch):
    # x * 1 read as x + 1: the dict comparison with the embedding of x fails,
    # so the column of 1 joins the elimination and holds the coordinates of
    # x + 1
    calls = count_eliminations(monkeypatch)
    r = 2
    ring = bat.ring_at_point(r, bat.gauss(Fraction(1, 3)), bat.gauss(Fraction(1, 7)))
    engine = ring.engine
    unit = {(0, 0): engine.one}
    real = engine.mult_xi
    monkeypatch.setattr(engine, "mult_xi",
                        lambda vec: linalg.add_terms(real(vec), unit) if vec == unit else real(vec))
    _, X = ring.mult_matrices()
    assert calls == [((r + 1) * (r + 2), 2 * r + 4)]
    k = ring.index[0, 0]
    assert {i: row[k] for i, row in enumerate(X) if k in row} == {
        k: engine.one, ring.index[0, 1]: engine.one}


def full_h_product(r, order):
    fld = bat.eigen_field(r)
    prod = FracSeries.one(fld, r + 1, r + 2, order)
    for i in range(r + 1):
        for j in range(r + 2):
            prod = prod * bat.eigen_formulas(r, i, j, order).h
    return prod


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_unit_product_matches_full_product(r):
    n = (r + 1) * (r + 2)
    default = (r + 5) * (r + 1)
    for order in (default, default - 1):
        unit = bat.eigenvalue_unit_product(r, order)
        assert unit.trunc == order - n
        shifted = FracSeries(unit.field, r + 1, r + 2, order,
                             {(a + n, b + n): c for (a, b), c in unit.terms.items()})
        assert shifted == full_h_product(r, order)
        assert bat.eigenvalue_product_identity(r, order)


def test_unit_product_with_a_corrupted_orbit(monkeypatch):
    # h doubled on all of orbit 1: the product read from (1, 0) alone still
    # equals the product of every pair, and the identity fails by 2^(r+2)
    def change(pair):
        if pair.i == 1:
            pair.h = pair.h * 2
        return pair

    record_calls(monkeypatch, change)
    r, order = 2, 21
    n = (r + 1) * (r + 2)
    unit = bat.eigenvalue_unit_product(r, order)
    shifted = FracSeries(unit.field, r + 1, r + 2, order,
                         {(a + n, b + n): c for (a, b), c in unit.terms.items()})
    assert shifted == full_h_product(r, order)
    assert not bat.eigenvalue_product_identity(r, order)


def test_eigenvalue_product_rejects_orders_below_the_product():
    for r in (1, 2):
        n = (r + 1) * (r + 2)
        with pytest.raises(ValueError):
            bat.eigenvalue_product_identity(r, n - 1)
        assert bat.eigenvalue_product_identity(r, n)


def test_eigenvalue_product_negative_controls(monkeypatch):
    real = bat.eigen_formulas

    def corrupt(change):
        def formulas(r, i, j, order):
            pair = real(r, i, j, order)
            if (i, j) == (0, 0):
                pair.h = change(pair.h)
            return pair
        return formulas

    monkeypatch.setattr(bat, "eigen_formulas", corrupt(lambda h: -h))
    assert not bat.eigenvalue_product_identity(3)
    # -1 = eta^((r+2)/2) when r+2 is even, so -h_00 is an eigenvalue of orbit 0
    # and the orbit, as a set, is unchanged
    assert bat.eigenvalue_product_identity(2)
    # a term the monomial q1^(1/(r+1)) q2^(1/(r+2)) does not divide
    monkeypatch.setattr(bat, "eigen_formulas", corrupt(lambda h: h + 1))
    assert not bat.eigenvalue_product_identity(2)


def one_solved_entry_plus_one(monkeypatch):
    """linalg.row_reduce whose result has 1 added to coordinate 0 of the
    first augmented column: the entry of x* in row 0 and column x^(r+1)."""
    real = linalg.row_reduce

    def perturbed(rows, one, ncols):
        out = real(rows, one, ncols)
        rows[0][ncols] = rows[0].get(ncols, one - one) + one
        return out

    monkeypatch.setattr(linalg, "row_reduce", perturbed)


def test_commutator_negative_control(monkeypatch):
    point = ((Fraction(1, 3), 0), (Fraction(1, 7), 0))
    exact = {r: bat.multiplication_matrices(r, *point) for r in (2, 3)}
    one_solved_entry_plus_one(monkeypatch)
    for r, (H0, X0) in exact.items():
        H, X = bat.multiplication_matrices(r, *point)
        k = coh.basis(r).index((0, r + 1))
        assert H == H0 and X[0][k] == X0[0].get(k, bat.GAUSS.zero) + 1
        assert not bat.matrices_commute_at(H, X)


def test_a_batyrev_cell_builds_one_ring(monkeypatch):
    # the certificate and the commutator read the matrices of the sample point
    real = bat.QuantumRing.__init__
    points = []

    def counted(self, r, q1, q2, one):
        points.append((q1, q2))
        real(self, r, q1, q2, one)

    monkeypatch.setattr(bat.QuantumRing, "__init__", counted)
    assert suites.batyrev_suite(2).all_pass()
    assert points == [(bat.gauss(Fraction(3, 10)), bat.gauss(Fraction(7, 10)))]


def test_commutator_reads_the_sample_matrices(monkeypatch):
    # one entry of x* changed at the sample point fails the commutator row
    real = bat.multiplication_matrices

    def perturbed(r, q1, q2):
        H, X = real(r, q1, q2)
        X[0] = dict(X[0])
        X[0][0] = X[0].get(0, bat.GAUSS.zero) + bat.GAUSS.one
        return H, X

    monkeypatch.setattr(bat, "multiplication_matrices", perturbed)
    entries = {e.anchor: e for e in suites.batyrev_suite(2).entries}
    assert entries["batyrev/multiplication-commutes"].status == "fail"


def test_unit_product_rejects_an_h_the_monomial_does_not_divide(monkeypatch):
    # a constant term in one h_ij is not divisible by q1^(1/(r+1)) q2^(1/(r+2))
    real = bat.eigen_formulas

    def formulas(r, i, j, order):
        pair = real(r, i, j, order)
        if (i, j) == (1, 0):
            pair.h = pair.h + 1
        return pair

    monkeypatch.setattr(bat, "eigen_formulas", formulas)
    assert bat.eigenvalue_unit_product(2, 21) is None
    assert not bat.eigenvalue_product_identity(2, 21)
