"""Tests for the canonical-coordinate pipeline on the extremal line."""

import json
from fractions import Fraction
from math import comb

import pytest

from qcflop import canonical as can
from qcflop import cli, suites
from qcflop.algebra import (
    CycField,
    EquivScalar,
    InhomogeneousError,
    Poly,
    RatFunc,
    elementary_symmetric,
)

from helpers import elementary_symmetric_omitting

RS = (1, 2, 3)
# the r at which a shortcut is compared with the derivation it replaces
ORBIT_RS = (1, 2, 3, 4, 5, 6, 7, 8)


def test_char_residuals_vanish():
    for r in RS:
        frame = can.build_spectrum(r)
        for res in can.char_residuals(frame):
            assert res.is_zero()


def test_spectrum_lam_degree():
    frame = can.build_spectrum(2)
    for i, p in enumerate(frame.p):
        assert p.weight == 1
        assert p.value == frame.a[i].inverse()


def test_charpoly_coefficients_closed_form():
    for r in RS:
        frame = can.build_spectrum(r)
        es = can.charpoly_coefficients(frame)
        for k, ek in enumerate(es, start=1):
            assert ek == can.charpoly_expected(frame, k)


def test_charpoly_r1_by_vandermonde_oracle():
    # expand (p - p_0)(p - p_1) directly: e_1 = p_0 + p_1, e_2 = p_0 p_1
    frame = can.build_spectrum(1)
    e1 = frame.p[0] + frame.p[1]
    e2 = frame.p[0] * frame.p[1]
    es = can.charpoly_coefficients(frame)
    assert es[0] == e1 and es[1] == e2


def test_charpoly_coefficients_are_g_polynomials():
    for r in RS:
        frame = can.build_spectrum(r)
        es = can.charpoly_coefficients(frame)
        for k, ek in enumerate(es, start=1):
            assert ek.weight == k
            poly = can.as_g_polynomial(ek.value, r)
            assert poly is not None
            # degree one in G with no constant term
            assert poly.degree == 1 and poly.constant().is_zero()
            assert poly.lead().as_rational() == Fraction((-1) ** r * comb(r + 1, k))


def test_as_g_polynomial_is_none_without_a_polynomial_in_g():
    r = 2
    frame = can.build_spectrum(r)
    w = RatFunc.monomial(frame.field, frame.u, 1)
    # a function of w that is not one of q
    assert can.as_g_polynomial(w / (w + 1), r) is None
    # a function of q that is not a polynomial in G = q/(1 + q)
    q = frame.q()
    assert can.as_g_polynomial(1 / (q + 2), r) is None
    g = can.as_g_polynomial(can.g_in_w(r), r)
    assert g == Poly.monomial(g.field, 1)


def test_equiv_pairing_values():
    # r=1, k=l=0: C(2,1)/lam^3
    val = can.equiv_pairing(1, 0, 0)
    assert val == EquivScalar.lam_power(CycField(4), 2, -3, 2)
    for r in RS:
        # k+l = r gives lam^-(r+1)
        assert can.equiv_pairing(r, r, 0) == EquivScalar.lam_power(
            CycField(2 * (r + 1)), r + 1, -(r + 1), 1)
        assert can.equiv_pairing(r, r, 1).is_zero()


def test_lemma_zero():
    for r in RS:
        for k in range(r):
            assert can.lemma_zero_value(r, k).is_zero()
        # at k = r the pairing is lam^(-(2r+1)), not zero
        top = can.lemma_zero_value(r, r)
        assert top == EquivScalar.lam_power(CycField(2 * (r + 1)), r + 1, -(2 * r + 1), 1)


def test_canonical_basis_duality():
    for r in RS:
        frame = can.build_spectrum(r)
        for i in range(r + 1):
            for j in range(r + 1):
                want = 1 if i == j else 0
                assert can.du_of_eps(frame, i, j) == want


def test_canonical_basis_orthogonality_and_norm():
    for r in RS:
        frame = can.build_spectrum(r)
        for i in range(r + 1):
            for j in range(r + 1):
                got = can.eps_pairing(frame, i, j)
                if i != j:
                    assert got.is_zero()
                else:
                    assert got == can.eps_norm_closed_form(frame, i)


def test_delta_i_inverse_property_and_closed_form():
    for r in RS:
        frame = can.build_spectrum(r)
        deltas = can.delta_i(frame)
        one = EquivScalar.one(frame.field, frame.u)
        for i in range(r + 1):
            assert deltas[i] * can.eps_pairing(frame, i, i) == one
        prod = one
        for d in deltas:
            prod = prod * d
        assert prod == can.delta_product_closed_form(frame)


def test_delta_i_r1_explicit():
    # r=1, i=0: 2 lam q^-1 c_0^-1 p_0^2
    frame = can.build_spectrum(1)
    deltas = can.delta_i(frame)
    expected = (EquivScalar(frame.field, frame.u, 1, frame.q().inverse() * frame.c[0].inverse() * 2)
                * frame.p[0] ** 2)
    assert deltas[0] == expected


def test_term_log_delta():
    for r in RS:
        frame = can.build_spectrum(r)
        got = can.term_log_delta(frame)
        g = can.g_in_w(r)
        want = (RatFunc.one(frame.field, frame.u) - g * Fraction(2 * (-1) ** r)) * r
        assert got == want
    # r=1: (1+q)/(1-q)
    frame = can.build_spectrum(1)
    got_q = can.term_log_delta(frame).as_q_function()
    q = RatFunc.monomial(frame.field, 1, 1)
    assert got_q == (1 + q) / (1 - q)
    # r=2: 2(1 - 2G) with G = q/(1+q)
    frame = can.build_spectrum(2)
    got_q = can.term_log_delta(frame).as_q_function()
    q = RatFunc.monomial(frame.field, 1, 1)
    assert got_q == (RatFunc.one(frame.field, 1) - q / (1 + q) * 2) * 2
    # q -> 0 limit is r
    for r in RS:
        frame = can.build_spectrum(r)
        val = can.term_log_delta(frame).as_q_function().eval_rational(0)
        assert val.as_rational() == r


def test_term_c_minus_one():
    for r in RS:
        frame = can.build_spectrum(r)
        want = can.g_in_w(r) * Fraction((-1) ** r * (r + 1) ** 2, 24)
        assert can.term_c_minus_one(frame) == want
    # r=1: -G/6
    assert can.term_c_minus_one(can.build_spectrum(1)) == can.g_in_w(1) * Fraction(-1, 6)
    # r=2: (9/24) G
    assert can.term_c_minus_one(can.build_spectrum(2)) == can.g_in_w(2) * Fraction(9, 24)


def mat_mul(A, B):
    """The schoolbook matrix product, every entry a full sum."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + row[k] * B[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def plain_sym_omitting(frame, i):
    """S^i_0(a), ..., S^i_r(a): the symmetric functions of the a_l with l != i,
    multiplied out in rational functions."""
    return elementary_symmetric(frame.a[:i] + frame.a[i + 1:], RatFunc.one(frame.field, frame.u))


def plain_m_inverse(frame):
    """(M^-1)_{mu, j} = (-1)^mu (q c_j/(r+1)) lam^(r - mu) S^j_mu(a), each
    column from its own symmetric functions."""
    r, fld, u = frame.r, frame.field, frame.u
    cols = []
    for j in range(u):
        sym = plain_sym_omitting(frame, j)
        pref = frame.q() * frame.c[j] * Fraction(1, u)
        cols.append([EquivScalar(fld, u, r - mu, pref * sym[mu] * Fraction((-1) ** mu))
                     for mu in range(u)])
    return [[cols[j][mu] for j in range(u)] for mu in range(u)]


def m_inverse(frame):
    """All of M^-1, column j the rotation sigma^j of column 0
    (``can.m_inverse_column``): sigma fixes q and sends c_0 to c_j and
    S^0_mu(a) to S^j_mu(a)."""
    return [[x.rotate(j) for j in range(frame.u)] for x in can.m_inverse_column(frame)]


def plain_connection(frame, signs=None, pair_flip=None):
    """The connection from the whole core M dM^-1, every entry derived:
    e_i e_j zeta^(i-j) core_ij off the diagonal, core_ii - r/(2(r+1)) on it."""
    r = frame.r
    e = signs or [1] * (r + 1)
    dMinv = [[x.delta() for x in row] for row in plain_m_inverse(frame)]
    core = mat_mul(can.m_matrix(frame), dMinv)
    out = []
    for i in range(r + 1):
        row = []
        for j in range(r + 1):
            if i == j:
                entry = core[i][i] - Fraction(r, 2 * (r + 1))
            else:
                entry = core[i][j] * frame.zeta ** (i - j) * (e[i] * e[j])
            assert entry.weight == 0 and entry.value.is_constant()
            row.append(entry.value.constant_value())
        out.append(row)
    if pair_flip is not None:
        i, j = pair_flip
        out[i][j], out[j][i] = -out[i][j], -out[j][i]
    return out


def plain_r1_offdiagonal(frame, conn):
    """conn_ij / (p_i - p_j) at every i != j, each divided."""
    zero = EquivScalar.zero(frame.field, frame.u)
    return [[zero if i == j else EquivScalar.from_ratfunc(frame.rat_const(c))
             / (frame.p[i] - frame.p[j]) for j, c in enumerate(row)]
            for i, row in enumerate(conn)]


def test_m_matrix_inverse_exact():
    for r in RS:
        frame = can.build_spectrum(r)
        assert m_inverse(frame) == plain_m_inverse(frame)
        prod = mat_mul(can.m_matrix(frame), m_inverse(frame))
        for i, row in enumerate(prod):
            for j, entry in enumerate(row):
                assert entry == (1 if i == j else 0)


def test_connection_zero_diagonal_and_antisymmetry():
    for r in (1, 2, 3, 4, 5):
        frame = can.build_spectrum(r)
        conn = can.connection_form(frame)
        disp = can.connection_display_form(frame)
        n = r + 1
        for i in range(n):
            assert conn[i][i].is_zero()
            assert disp[i][i].is_zero()
            for j in range(n):
                assert (conn[i][j] + conn[j][i]).is_zero()
                assert (disp[i][j] + disp[j][i]).is_zero()


def test_connection_matches_display_up_to_branch():
    # the derived connection under the default branch is the entrywise
    # negative of the closed-form display (the opposite square root)
    for r in (1, 2, 3, 4, 5):
        frame = can.build_spectrum(r)
        conn = can.connection_form(frame)
        disp = can.connection_display_form(frame)
        for i in range(r + 1):
            for j in range(r + 1):
                assert conn[i][j] == -disp[i][j]


def test_connection_display_example_r1():
    # entry (0,1): -zeta_4/4
    frame = can.build_spectrum(1)
    disp = can.connection_display_form(frame)
    assert disp[0][1] == -frame.zeta * Fraction(1, 4)
    # and the genuine branch e = (1, -1) reproduces the display exactly
    flipped = can.connection_form(frame, signs=[1, -1])
    for i in range(2):
        for j in range(2):
            assert flipped[i][j] == disp[i][j]


def test_r1_offdiagonal_matches_display_and_symmetry():
    for r in (1, 2, 3, 4, 5):
        frame = can.build_spectrum(r)
        off = can.r1_offdiagonal(frame)
        disp = can.r1_offdiagonal_display(frame)
        for i in range(r + 1):
            for j in range(r + 1):
                if i == j:
                    continue
                assert off[i][j] == -disp[i][j]
                assert off[i][j] == off[j][i]
                assert off[i][j].weight == -1


def xi_constant(r):
    return can.xi_constant(can.xi_g_terms(r))


def test_xi_constant():
    assert xi_constant(1) == Fraction(-1, 2)
    assert xi_constant(2) == -3
    assert xi_constant(8) == -270
    for r in range(1, 9):
        assert xi_constant(r) == Fraction(-(r + 2) * (r + 1) ** 2 * r, 24)
        assert can.xi_constant_pair_identity(can.xi_g_terms(r))


def test_an_appendix_cell_derives_the_xi_terms_once(monkeypatch):
    # the diagonal constant and its pair identity read one derivation of the
    # pairs (xi^k, g_k)
    real = can.xi_g_terms
    calls = []

    def counted(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(can, "xi_g_terms", counted)
    for r in (1, 2, 3):
        calls.clear()
        assert suites.appendix_suite(r).all_pass()
        assert calls == [r]


def test_r1_diagonal_closed_form():
    for r in (1, 2, 3, 4, 5):
        frame = can.build_spectrum(r)
        off = can.r1_offdiagonal(frame)
        diag = can.r1_diagonal(frame, off)
        closed = can.r1_diagonal_closed_form(frame)
        for i in range(r + 1):
            assert diag[i] == closed[i]


def test_r1_diagonal_round_trip():
    r = 2
    frame = can.build_spectrum(r)
    off = can.r1_offdiagonal(frame)
    diag = can.r1_diagonal(frame, off)
    for i in range(r + 1):
        integrand = EquivScalar.zero(frame.field, frame.u)
        for j in range(r + 1):
            if j != i:
                integrand = integrand - off[i][j] * off[j][i] * (frame.p[i] - frame.p[j])
        assert diag[i].delta() == integrand


def test_r1_diagonal_weight_structure():
    # lam * R1_ii is weight-free, so the nonequivariant limit of lam*R1_ii exists
    frame = can.build_spectrum(3)
    off = can.r1_offdiagonal(frame)
    for entry in can.r1_diagonal(frame, off):
        assert entry.weight == -1


def test_genus_one_form_matches_expected():
    for r in (1, 2, 3):
        form, const = can.genus_one_form(r)
        assert form.root_order == 1
        assert form == can.genus_one_expected(r)
        assert const == Fraction(-r * (r + 1), 48)


def test_genus_one_form_branch_independence():
    r = 2
    base, _ = can.genus_one_form(r)
    for signs in ([1, -1, 1], [-1, -1, 1]):
        got, _ = can.genus_one_form(r, signs=signs)
        assert got == base
    for flip in ((0, 1), (0, 2), (1, 2)):
        got, _ = can.genus_one_form(r, pair_flip=flip)
        assert got == base


def test_genus_one_table():
    assert can.genus_one_table(1, 10) == [Fraction(1, 12 * d) for d in range(1, 11)]
    assert can.genus_one_table(2, 1) == [Fraction(-1, 8)]
    assert can.genus_one_table(3, 2)[1] == Fraction(1, 12)
    for r in (1, 2, 3):
        table = can.genus_one_table(r, 8)
        for d in range(1, 9):
            assert table[d - 1] == Fraction((-1) ** (d * (r + 1)) * (r + 1), 24 * d)


def test_recursion_r1_consistency():
    for r in (1, 2):
        frame = can.build_spectrum(r)
        mats, report = can.r_matrix_recursion(r, 2)
        off = can.r1_offdiagonal(frame)
        diag = can.r1_diagonal(frame, off)
        for i in range(r + 1):
            for j in range(r + 1):
                want = diag[i] if i == j else off[i][j]
                assert mats[1][i][j] == want


def test_recursion_unitarity_exact():
    for r in (1, 2, 3):
        mats, report = can.r_matrix_recursion(r, 3)
        assert all(report["unitarity_exact"][n] for n in (1, 2, 3))


def test_recursion_unitarity_n1_symmetry():
    mats, _ = can.r_matrix_recursion(2, 1)
    r1 = mats[1]
    for i in range(3):
        for j in range(3):
            assert r1[i][j] == r1[j][i]


def test_recursion_zero_mode_documented_failure():
    # dropping the even-order diagonal constants breaks exact unitarity at n=2
    _, report = can.r_matrix_recursion(1, 2, diag_mode="zero")
    assert report["unitarity_exact"][1]
    assert not report["unitarity_exact"][2]


def test_recursion_branch_independent_diagonal():
    mats_a, _ = can.r_matrix_recursion(2, 2)
    mats_b, _ = can.r_matrix_recursion(2, 2, signs=[1, -1, 1])
    for i in range(3):
        assert mats_a[1][i][i] == mats_b[1][i][i]
        assert mats_a[2][i][i] == mats_b[2][i][i]


# --- the factored idempotent basis against the schoolbook forms ----------------


def pair_p_polynomials(r, A, B):
    """Schoolbook pairing of two elements written on the basis 1, p, ..., p^r."""
    out = EquivScalar.zero(CycField(2 * (r + 1)), r + 1)
    for k, ak in enumerate(A):
        for l, bl in enumerate(B):
            out = out + ak * bl * can.equiv_pairing(r, k, l)
    return out


def substitute_p(frame, coeffs, j):
    """sum_k coeffs[k] p_j^k, term by term."""
    out = EquivScalar.zero(frame.field, frame.u)
    for k, c in enumerate(coeffs):
        out = out + c * frame.p[j] ** k
    return out


def plain_eps_factors(frame):
    """The prefactors pref_i = q c_i a_i^r/(r+1) and the signed symmetric
    functions s_ik = (-1)^k S^i_k(a), in rational functions."""
    r = frame.r
    prefs = [frame.q() * c * a ** r * Fraction(1, r + 1) for c, a in zip(frame.c, frame.a)]
    signed = [[s * (-1) ** k for k, s in enumerate(plain_sym_omitting(frame, i))]
              for i in range(r + 1)]
    return prefs, signed


def expanded_basis(frame):
    """Coefficient arrays of the idempotent basis on 1, p, ..., p^r:
    eps_i = (q c_i/(r+1)) a_i^r prod_(l != i) (1 - a_l p/lam)."""
    prefs, signed = plain_eps_factors(frame)
    return [[EquivScalar(frame.field, frame.u, -k, pref * s) for k, s in enumerate(row)]
            for pref, row in zip(prefs, signed)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_factored_pairing_and_duality_match_the_expanded_basis(r):
    frame = can.build_spectrum(r)
    eps = expanded_basis(frame)
    for i in range(r + 1):
        for j in range(r + 1):
            assert can.eps_pairing(frame, i, j) == pair_p_polynomials(r, eps[i], eps[j])
            assert can.du_of_eps(frame, i, j) == substitute_p(frame, eps[i], j)


def integrate(x):
    """Integrate the value of an EquivScalar in t."""
    return EquivScalar(x.field, x.root_order, x.weight, x.value.integrate_in_t())


def signed_sum(mats, n, lo):
    """sum_{a=lo..n-lo} (-1)^a R_a^T R_(n-a), every entry of every product."""
    zero = EquivScalar.zero(mats[0][0][0].field, mats[0][0][0].root_order)
    acc = [[zero] * len(mats[0]) for _ in mats[0]]
    for a in range(lo, n - lo + 1):
        term = mat_mul(can.mat_transpose(mats[a]), mats[n - a])
        acc = [[x + (-t if a % 2 else t) for x, t in zip(xr, tr)] for xr, tr in zip(acc, term)]
    return acc


def plain_r_matrix_recursion(r, order, diag_mode):
    """The recursion with every product a full mat_mul: the plain connection
    as a matrix of scalars, the whole of both connection products, every
    entry divided and integrated, and each R_a^T R_b multiplied wherever it
    is used."""
    frame = can.build_spectrum(r)
    size = r + 1
    zero = EquivScalar.zero(frame.field, frame.u)
    conn = [[EquivScalar(frame.field, frame.u, 0, frame.rat_const(c)) for c in row]
            for row in plain_connection(frame)]
    dp = [[frame.p[i] - frame.p[j] for j in range(size)] for i in range(size)]
    mats = [[[EquivScalar.one(frame.field, frame.u) if i == j else zero for j in range(size)]
             for i in range(size)]]
    constants = {}
    for n in range(1, order + 1):
        prev = mats[-1]
        source = mat_mul(conn, prev)
        new = [[zero if i == j else (source[i][j] + prev[i][j].delta()) / dp[i][j]
                for j in range(size)] for i in range(size)]
        follow = mat_mul(conn, new)
        for i in range(size):
            new[i][i] = integrate(-follow[i][i])
        if diag_mode == "unitarity" and n % 2 == 0:
            mid = signed_sum(mats, n, 1)
            for i in range(size):
                gap = mid[i][i] * Fraction(-1, 2) - new[i][i]
                if not gap.is_zero():
                    const = gap.value.laurent_items()[0]
                    new[i][i] = new[i][i] + EquivScalar(frame.field, frame.u, gap.weight,
                                                        frame.rat_const(const))
                    constants[f"{n},{i}"] = repr(const)
        mats.append(new)
    residuals = {n: all(x.is_zero() for row in signed_sum(mats, n, 0) for x in row)
                 for n in range(1, order + 1)}
    return mats, constants, residuals


@pytest.mark.parametrize("diag_mode", ["unitarity", "zero"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_r_matrix_shortcuts_match_a_plain_recursion(r, diag_mode):
    mats, report = can.r_matrix_recursion(r, 3, diag_mode)
    want_mats, want_constants, want_residuals = plain_r_matrix_recursion(r, 3, diag_mode)
    assert mats == want_mats
    assert report["constants"] == want_constants
    assert report["unitarity_exact"] == want_residuals
    assert report["diagonal_mode"] == diag_mode
    failing = {n for n, ok in want_residuals.items() if not ok}
    assert report["unitarity_first_nonzero"].keys() == failing


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_r_matrix_recursion_on_a_signs_branch_is_the_gauge(r):
    signs = [1] * r + [-1]
    mats, report = can.r_matrix_recursion(r, 3, signs=signs)
    base, base_report = can.r_matrix_recursion(r, 3)
    assert report["unitarity_exact"] == {1: True, 2: True, 3: True}
    assert report["constants"] == base_report["constants"]
    for got, want in zip(mats, base):
        assert got == [[x * (signs[i] * signs[j]) for j, x in enumerate(row)]
                       for i, row in enumerate(want)]
    # the gauge shows: an entry with one index on the -1 sign changes sign
    assert not base[1][0][r].is_zero() and mats[1][0][r] == -base[1][0][r]


def test_r_matrix_recursion_names_a_diagonal_constant_term(monkeypatch):
    # a connection entry off by a factor: the fill carries it to the entries
    # row 0 reads back, so the first diagonal integrand stays integrable, but
    # the second order's unitarity gap is not a constant, which the
    # calibration rejects instead of dropping
    connection_form = can.connection_form

    def corrupted(frame, signs=None, pair_flip=None):
        conn = connection_form(frame, signs, pair_flip)
        conn[0][1] = conn[0][1] * 3
        return conn

    monkeypatch.setattr(can, "connection_form", corrupted)
    want = r"^order 2, diagonal 0: unitarity gap is not a constant$"
    with pytest.raises(can.FlatnessError, match=want):
        can.r_matrix_recursion(2, 2)


# --- negative controls of the idempotent anchors ---------------------------------


def verify_appendix_r2(capsys):
    code = cli.main(["verify", "appendix", "--r", "2", "--format", "json"])
    entries = {e["anchor"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    return code, entries


def install_frame(monkeypatch, change_factors):
    """A fresh r = 2 frame whose eps_factors stage (the polynomials pref_i and
    s_ik w^k) is changed before any use."""
    frame = can.build_spectrum(2)
    prefs, signed = can._eps_factors(frame)
    frame.stages["eps_factors"] = change_factors([list(prefs), [list(row) for row in signed]])
    monkeypatch.setattr(can, "_FRAMES", {2: frame})
    monkeypatch.setattr(can, "_GENUS_ONE", {})


def test_idempotent_anchors_pass_with_a_zero_residual(capsys, monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {})
    code, entries = verify_appendix_r2(capsys)
    assert code == 0
    for anchor in ("appendix/idempotent-duality", "appendix/idempotent-orthogonality"):
        assert entries[anchor]["status"] == "pass" and entries[anchor]["residual"] == "0"


def test_control_one_signed_symmetric_function(capsys, monkeypatch):
    def change(factors):
        s = factors[1][1][1]  # s_11 w
        factors[1][1][1] = s + Poly.monomial(s.field, 1)  # s_11 + 1, times w
        return factors

    install_frame(monkeypatch, change)
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    duality = entries["appendix/idempotent-duality"]
    ortho = entries["appendix/idempotent-orthogonality"]
    assert duality["status"] == "fail"
    assert duality["residual"].startswith("first failing (i, j) = (1, 0):")
    assert ortho["status"] == "fail"
    assert ortho["residual"] == "first failing (i, j) = (0, 1): the pairing is not zero"
    assert entries["appendix/connection-form"]["status"] == "pass"


def test_control_one_prefactor(capsys, monkeypatch):
    def change(factors):
        factors[0][1] = factors[0][1] * 2  # pref_1
        return factors

    install_frame(monkeypatch, change)
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    duality = entries["appendix/idempotent-duality"]
    ortho = entries["appendix/idempotent-orthogonality"]
    assert duality["status"] == "fail"
    assert duality["residual"].startswith("first failing (i, j) = (1, 1):")
    # a scaled prefactor keeps the off-diagonal zeros; only the norm shows it
    assert ortho["status"] == "fail"
    assert ortho["residual"] == "first failing (i, j) = (1, 1): the norm is not the closed form"


def test_control_pairing_weight_off_by_one(capsys, monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_pairing_weight", lambda r, d: comb(2 * r - d + 1, r - d + 1))
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    ortho = entries["appendix/idempotent-orthogonality"]
    assert ortho["status"] == "fail"
    assert ortho["residual"] == "first failing (i, j) = (0, 0): the norm is not the closed form"
    # the duality never reads the pairing
    assert entries["appendix/idempotent-duality"]["status"] == "pass"


# --- R1 once per unordered pair and once per branch ---------------------------------


def reference_r1_diagonal(frame, off):
    """The diagonal integrated from every ordered (i, j) term, one i at a time."""
    r = frame.r
    out = []
    for i in range(r + 1):
        integrand = EquivScalar.zero(frame.field, frame.u)
        for j in range(r + 1):
            if j != i:
                integrand = integrand - off[i][j] * off[j][i] * (frame.p[i] - frame.p[j])
        if 0 in integrand.value.laurent_items():
            raise can.FlatnessError(
                f"diagonal {i} integrand has a constant term at weight {integrand.weight}")
        out.append(integrate(integrand))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except can.FlatnessError as exc:
        return str(exc)


def branches(r):
    signs = [1] * r + [-1]
    return [{}, {"pair_flip": (0, 1)}, {"signs": signs}]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_r1_diagonal_matches_the_ordered_pair_reference(r):
    frame = can.frame_for(r)
    for branch in branches(r):
        off = can.r1_offdiagonal(frame, **branch)
        assert can.r1_diagonal(frame, off) == reference_r1_diagonal(frame, off)
    # a corrupted entry: at r = 1 a different diagonal, beyond it a constant
    # term that flatness rejects at the same diagonal
    off = [list(row) for row in can.r1_offdiagonal(frame)]
    off[0][1] = off[0][1] * 3
    got = outcome(can.r1_diagonal, frame, off)
    assert got == outcome(reference_r1_diagonal, frame, off)
    assert got != can.r1_diagonal(frame, can.r1_offdiagonal(frame))
    assert isinstance(got, list) if r == 1 else got.startswith("diagonal 0 ")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_first_order_keeps_only_the_default_branch(r):
    frame = can.build_spectrum(r)
    for branch in branches(r):
        off, diag = can.first_order(frame, **branch)
        assert isinstance(off, tuple) and all(isinstance(row, tuple) for row in off)
        assert isinstance(diag, tuple)
        want_off = can.r1_offdiagonal(frame, **branch)
        assert [list(row) for row in off] == want_off
        assert list(diag) == can.r1_diagonal(frame, want_off)
        # another call gauges the off-diagonal afresh, except on the default branch
        again = can.first_order(frame, **branch)
        assert again == (off, diag)
        assert (again is can.first_order(frame)) == (branch == {})
    # the default signs written out are the default branch, the one kept
    assert can.first_order(frame, signs=[1] * (r + 1)) is can.first_order(frame)
    assert frame.stages["first_order"] is can.first_order(frame)
    with pytest.raises(ValueError):
        can.first_order(frame, pair_flip=(1, 1))
    with pytest.raises(ValueError):
        can.first_order(frame, signs=[1] * r)


# --- the deck rotation's fill against plain derivations ---------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_filled_connection_and_r1_match_a_plain_derivation(r):
    frame = can.build_spectrum(r)
    for branch in branches(r):
        conn = plain_connection(frame, **branch)
        assert can.connection_form(frame, **branch) == conn
        off = plain_r1_offdiagonal(frame, conn)
        assert can.r1_offdiagonal(frame, **branch) == off
        got_off, got_diag = can.first_order(frame, **branch)
        assert [list(row) for row in got_off] == off
        assert list(got_diag) == reference_r1_diagonal(frame, off)


def verify_appendix_r3_json(capsys, *extra):
    code = cli.main(["verify", "appendix", "--r", "3", "--format", "json", *extra])
    return code, {(e["anchor"], e["params"].get("n")): e
                  for e in json.loads(capsys.readouterr().out)["entries"]}


def test_control_the_fill_wrap_sign(capsys, monkeypatch):
    # zeta^(r+1) taken as +1: every row 0 is still derived, but each filled
    # entry whose index wraps past r has the wrong sign
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    monkeypatch.setattr(can, "_WRAP_SIGN", 1)
    assert cli.main(["verify", "appendix", "--r", "3"]) == 1
    fails = [x for x in capsys.readouterr().err.splitlines() if x.startswith("FAIL ")]
    assert any(x.startswith("FAIL appendix/connection-form ") for x in fails)
    assert any(x.startswith("FAIL appendix/recursion-unitarity ") for x in fails)

    code, entries = verify_appendix_r3_json(capsys)
    assert code == 1
    conn = entries["appendix/connection-form", None]
    assert conn["status"] == "fail"
    assert conn["residual"] == "first failing (i, j) = (0, 1): the form is not antisymmetric"
    # the second order's calibration stops the recursion, and names where
    stopped = "the recursion stopped: order 2, diagonal 0: unitarity gap is not a constant"
    for n in (1, 2):
        entry = entries["appendix/recursion-unitarity", n]
        assert entry["status"] == "fail" and entry["residual"] == stopped
    # the idempotent basis does not use the fill
    assert entries["appendix/idempotent-duality", None]["status"] == "pass"

    # at order 1 the recursion completes, and the residual names the entry
    code, entries = verify_appendix_r3_json(capsys, "--rmatrix-order", "1")
    assert code == 1
    entry = entries["appendix/recursion-unitarity", 1]
    assert entry["status"] == "fail"
    assert entry["residual"] == "first nonzero (i, j) = (0, 1); diagonal constants: unitarity"
    assert entries["appendix/recursion-first-order-match", None]["status"] == "pass"


# --- negative controls of the connection and first-order anchors ---------------------


BRANCH_NOTE = "derived equals display under the opposite square-root branch"


def failing_line(capsys, anchor):
    assert cli.main(["verify", "appendix", "--r", "2"]) == 1
    err = capsys.readouterr().err
    return next(x for x in err.splitlines() if x.startswith(f"FAIL {anchor}"))


def test_connection_and_first_order_pass_with_the_branch_note(capsys):
    code, entries = verify_appendix_r2(capsys)
    assert code == 0
    for anchor in ("appendix/connection-form", "appendix/first-order-offdiagonal"):
        assert entries[anchor]["status"] == "pass" and entries[anchor]["residual"] == BRANCH_NOTE


def test_control_connection_display_entry(capsys, monkeypatch):
    real = can.connection_display_form

    def display(frame):
        out = real(frame)
        out[1][2] = out[1][2] * 2
        return out

    monkeypatch.setattr(can, "connection_display_form", display)
    line = failing_line(capsys, "appendix/connection-form")
    assert line.endswith("first failing (i, j) = (1, 2): derived is not minus the display")


def test_control_first_order_display_entry(capsys, monkeypatch):
    real = can.r1_offdiagonal_display

    def display(frame):
        out = real(frame)
        out[2][1] = -out[2][1]
        return out

    monkeypatch.setattr(can, "r1_offdiagonal_display", display)
    line = failing_line(capsys, "appendix/first-order-offdiagonal")
    assert line.endswith("first failing (i, j) = (2, 1): derived is not minus the display")
    # the connection itself is untouched
    _, entries = verify_appendix_r2(capsys)
    assert entries["appendix/connection-form"]["status"] == "pass"


def test_control_first_order_entry_of_the_wrong_weight(capsys, monkeypatch):
    # each off-diagonal R1 entry times lam has weight 0; the weight is
    # checked before the values, so the residual names it
    real = can.first_order

    def scaled(frame, signs=None, pair_flip=None):
        off, diag = real(frame, signs, pair_flip)
        lam = frame.lam()
        return tuple(tuple(x if i == j else x * lam for j, x in enumerate(row))
                     for i, row in enumerate(off)), diag

    monkeypatch.setattr(can, "first_order", scaled)
    code = cli.main(["verify", "appendix", "--r", "2", "--jobs", "1", "--format", "json"])
    entries = {e["anchor"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    assert code == 1
    entry = entries["appendix/first-order-offdiagonal"]
    assert entry["status"] == "fail"
    assert entry["residual"] == "first failing (i, j) = (0, 1): the entry is not of weight lam^-1"
    assert entries["appendix/connection-form"]["status"] == "pass"


# --- the known-factor stages against the plain RatFunc derivations ---------------


def plain_charpoly_coefficients(frame):
    """e_1..e_(r+1) of the spectrum roots, every product and sum reduced."""
    one = EquivScalar.one(frame.field, frame.u)
    return elementary_symmetric(frame.p, one)[1:]


def plain_term_log_delta(frame):
    """delta f / f for the product f of the Delta_i."""
    prod = EquivScalar.one(frame.field, frame.u)
    for d in can.delta_i(frame):
        prod = prod * d
    f = prod.value
    return f.delta() / f


def plain_du_of_eps(frame, factors, i, j):
    """pref_i (sum_k s_ik a_j^(r-k)) / a_j^r, the Horner sum in rational
    functions, from the ``plain_eps_factors``."""
    prefs, signed = factors
    a_j = frame.a[j]
    acc = signed[i][0]
    for s in signed[i][1:]:
        acc = acc * a_j + s
    return EquivScalar(frame.field, frame.u, 0, prefs[i] * acc / a_j ** frame.r)


def plain_eps_pairing(frame, factors, i, j):
    """pref_i pref_j lam^-(2r+1) sum_k s_ik T_k, the convolution in rational
    functions, from the ``plain_eps_factors``."""
    r = frame.r
    prefs, signed = factors
    total = RatFunc.zero(frame.field, frame.u)
    for k in range(r + 1):
        t_k = RatFunc.zero(frame.field, frame.u)
        for l in range(r + 1 - k):
            t_k = t_k + signed[j][l] * comb(2 * r - k - l, r - k - l)
        total = total + signed[i][k] * t_k
    return EquivScalar(frame.field, frame.u, -(2 * r + 1), prefs[i] * prefs[j] * total)


def plain_spectrum_sum(frame, xs):
    """sum_i x_i p_i, one reduced sum per term."""
    out = EquivScalar.zero(frame.field, frame.u)
    for x, p in zip(xs, frame.p):
        out = out + x * p
    return out


def plain_term_c_minus_one(frame):
    total = sum(frame.p, EquivScalar.zero(frame.field, frame.u))
    return (frame.lam(-1, Fraction(frame.r + 1, 24)) * total).nonequivariant_limit()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_known_factor_stages_match_the_plain_derivations(r):
    frame = can.build_spectrum(r)
    assert can.charpoly_coefficients(frame) == plain_charpoly_coefficients(frame)
    assert can.term_log_delta(frame) == plain_term_log_delta(frame)
    assert can.term_c_minus_one(frame) == plain_term_c_minus_one(frame)
    factors = plain_eps_factors(frame)
    for i in range(r + 1):
        for j in range(r + 1):
            assert can.du_of_eps(frame, i, j) == plain_du_of_eps(frame, factors, i, j)
            assert can.eps_pairing(frame, i, j) == plain_eps_pairing(frame, factors, i, j)


def plain_spectrum(r):
    """c_i = (-1)^r xi^i w^(-1), a_i = 1 + c_i and p_i = lam/a_i, every sum
    and inverse reduced."""
    fld, u = CycField(2 * (r + 1)), r + 1
    xi = fld.zeta() ** 2
    c = [RatFunc.monomial(fld, u, -1, xi ** i * (-1) ** r) for i in range(u)]
    a = [RatFunc.one(fld, u) + c_i for c_i in c]
    return c, a, [EquivScalar(fld, u, 1, a_i.inverse()) for a_i in a]


def plain_delta_i(frame):
    """Delta_i = (r+1) lam q^(-1) c_i^(-1) p_i^(2r), every product reduced."""
    r = frame.r
    qinv = frame.q().inverse()
    return [EquivScalar(frame.field, frame.u, 1, qinv * c.inverse() * (r + 1)) * p ** (2 * r)
            for c, p in zip(frame.c, frame.p)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_linear_factor_forms_match_the_plain_derivations(r):
    frame = can.build_spectrum(r)
    assert (frame.c, frame.a, frame.p) == plain_spectrum(r)
    w, one = RatFunc.monomial(frame.field, frame.u, 1), Poly.one(frame.field)
    for i in range(r + 1):
        want = [s * w ** k for k, s in enumerate(plain_sym_omitting(frame, i))]
        assert [RatFunc(frame.field, frame.u, s, one) for s in can._sym_omitting(frame, i)] == want
    assert can.delta_i(frame) == plain_delta_i(frame)
    assert can._p_differences(frame) == tuple(
        tuple(p_i - p_j for p_j in frame.p) for p_i in frame.p)
    assert m_inverse(frame) == plain_m_inverse(frame)


@pytest.mark.parametrize("r", range(1, 13))
def test_closed_form_symmetric_functions_match_the_products(r):
    # e_k(L) and every E^i_k written down equal the products multiplied out,
    # and the column of M^-1 that the connection reads is column 0 of the
    # plain M^-1
    frame = can.build_spectrum(r)
    one = Poly.one(frame.field)
    es = elementary_symmetric(frame.L, one)
    assert can._linear_factors(frame) == tuple(es)
    for i in range(r + 1):
        want = elementary_symmetric_omitting(frame.L, i, one, es)
        assert can._sym_omitting(frame, i) == tuple(want)
    assert can.m_inverse_column(frame) == [row[0] for row in plain_m_inverse(frame)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_the_linear_factor_forms_run_no_euclid(monkeypatch, r):
    # the spectrum, the E^i_k, the differences p_i - p_j and the Delta_i are
    # written down reduced, with no gcd
    calls = []
    gcd = Poly.gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    frame = can.build_spectrum(r)
    for i in range(r + 1):
        can._sym_omitting(frame, i)
    can._p_differences(frame)
    can.delta_i(frame)
    can.m_inverse_column(frame)
    assert calls == []


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_spectrum_sum_of_the_r1_diagonal_matches_the_plain_sum(r):
    frame = can.frame_for(r)
    for branch in branches(r):
        _, diag = can.first_order(frame, **branch)
        got = can._spectrum_sum(frame, diag)
        assert got.weight == 0
        assert got == plain_spectrum_sum(frame, diag)


def test_the_spectrum_sum_rejects_other_shapes():
    frame = can.build_spectrum(2)
    one, lam = EquivScalar.one(frame.field, frame.u), frame.lam()
    with pytest.raises(InhomogeneousError):
        can._spectrum_sum(frame, [one, lam, one])
    # a value off the powers of w has no place over the known denominator
    with pytest.raises(ValueError, match="is not a polynomial"):
        can._spectrum_sum(frame, [EquivScalar.from_ratfunc(frame.a[0].inverse())] * 3)


# --- negative controls of the known-factor anchors ---------------------------------


def install_stage(monkeypatch, name, change):
    """A fresh r = 2 frame whose stage ``name`` is changed before any use."""
    frame = can.build_spectrum(2)
    build = {"linear_factors": can._linear_factors, "delta_i": can.delta_i}[name]
    frame.stages[name] = change(frame, build(frame))
    monkeypatch.setattr(can, "_FRAMES", {2: frame})
    monkeypatch.setattr(can, "_GENUS_ONE", {})


def change_symmetric(m, change):
    """A change of the linear-factor stage that replaces e_m(L) by
    change(frame, e_m(L)).  The E^i_k are written down on their own, so the
    change reaches only the stages that read the e_m(L) themselves."""
    def apply(frame, es):
        es = list(es)
        es[m] = change(frame, es[m])
        return tuple(es)
    return lambda monkeypatch: install_stage(monkeypatch, "linear_factors", apply)


def w_poly(frame):
    return Poly.monomial(frame.field, 1)


def one_pairing_weight(monkeypatch):
    # C(2r-d, r-d) at d = r is 1; make it 2
    weight = can._pairing_weight
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_pairing_weight", lambda r, d: weight(r, d) + (d == r))


def one_negated_delta(monkeypatch):
    def negate(frame, deltas):
        return tuple(-d if i == 1 else d for i, d in enumerate(deltas))
    install_stage(monkeypatch, "delta_i", negate)


# anchor -> (perturbation of one input, the failing residual, an anchor that
# must still pass); every perturbation keeps the values functions of q, so the
# whole suite still runs
KNOWN_FACTOR_CONTROLS = {
    # e_1(L) = 3w gains a w, so e_2(p) = lam^2 w^2 e_1(L) / D is 4/3 of itself
    "appendix/charpoly-coefficients-in-g": (
        change_symmetric(1, lambda frame, e: e + w_poly(frame)),
        "first failing k = 2: e_2 is not the closed form", "appendix/log-norm-term"),
    # D = w^3 + 1 becomes w^3 + 2, which changes its log-derivative
    "appendix/log-norm-term": (
        change_symmetric(3, lambda frame, e: e + Poly.one(frame.field)),
        "d log prod_i Delta_i is not r (1 - 2 (-1)^r G)", "appendix/idempotent-duality"),
    # D doubled leaves w D'/D alone but halves every sum over the spectrum
    "appendix/chern-localization-term": (
        change_symmetric(3, lambda frame, e: e * 2),
        "the first-Chern term is not (-1)^r (r+1)^2 G / 24", "appendix/log-norm-term"),
    "appendix/genus-one-form": (
        change_symmetric(3, lambda frame, e: e * 2),
        "dropped constant -1/24", "appendix/log-norm-term"),
    "appendix/norm-inverse-product": (
        one_pairing_weight, "first failing i = 0: Delta_i times the norm is not 1",
        "appendix/norm-product-closed-form"),
    # term_log_delta no longer reads the Delta_i, so its anchor still passes
    "appendix/norm-product-closed-form": (
        one_negated_delta, "prod_i Delta_i is not the closed form", "appendix/log-norm-term"),
}


def test_known_factor_anchors_pass_with_a_zero_residual(capsys, monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    code, entries = verify_appendix_r2(capsys)
    assert code == 0
    for anchor in KNOWN_FACTOR_CONTROLS:
        assert entries[anchor]["status"] == "pass"
        if anchor != "appendix/genus-one-form":  # that one notes the dropped constant
            assert entries[anchor]["residual"] == "0"


@pytest.mark.parametrize("anchor", sorted(KNOWN_FACTOR_CONTROLS))
def test_control_known_factor_anchor(capsys, monkeypatch, anchor):
    perturb, residual, sibling = KNOWN_FACTOR_CONTROLS[anchor]
    perturb(monkeypatch)
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    assert entries[anchor]["status"] == "fail"
    assert entries[anchor]["residual"] == residual
    assert entries[sibling]["status"] == "pass"


def test_a_diagonal_that_does_not_integrate_fails_its_anchors(capsys, monkeypatch):
    # moving the root of L_1 by 1 leaves a constant in R1's diagonal
    # integrand: the FlatnessError fails every anchor that reads R1 or the
    # genus-one form, with its text as the residual, instead of escaping
    frame = can.build_spectrum(2)
    frame.L[1] = frame.L[1] + Poly.one(frame.field)
    monkeypatch.setattr(can, "_FRAMES", {2: frame})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    assert cli.main(["verify", "appendix", "--r", "2"]) == 1
    capsys.readouterr()
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    error = "diagonal 0 integrand has a constant term at weight -1"
    for anchor in ("appendix/first-order-offdiagonal", "appendix/first-order-diagonal",
                   "appendix/genus-one-form", "appendix/genus-one-dropped-constant",
                   "appendix/genus-one-table"):
        assert entries[anchor]["status"] == "fail" and entries[anchor]["residual"] == error
    assert entries["appendix/genus-one-branch-independence"]["residual"] == \
        f"first failing branch: pair_flip = (0, 1): {error}"
    assert entries["appendix/diagonal-constant"]["status"] == "pass"


def test_control_the_fill_wrap_sign_names_each_failing_index(capsys, monkeypatch):
    # the anchors that read R1's diagonal or the genus-one form name where
    # they first fail, under the wrong wrap sign of the fill
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    monkeypatch.setattr(can, "_WRAP_SIGN", 1)
    code, entries = verify_appendix_r3_json(capsys)
    assert code == 1
    want = {
        "appendix/first-order-diagonal": "first failing i = 0: derived is not the closed form",
        "appendix/genus-one-branch-independence": "first failing branch: pair_flip = (0, 1)",
        "appendix/genus-one-table": "first failing d = 1: got 17/12, want 1/6",
    }
    for anchor, residual in want.items():
        entry = entries[anchor, None]
        assert entry["status"] == "fail" and entry["residual"] == residual


# --- a gauge branch reads the default diagonal; any other branch integrates ---------


def one_sided_branch(base, e, pair_flip=None, branch=can._branch):
    """``_branch`` with a pair flip that negates (i, j) but not (j, i): no
    gauge of the default, since the product R1_ij R1_ji changes sign."""
    out = branch(base, e)
    if pair_flip is not None:
        i, j = pair_flip
        out[i][j] = -out[i][j]
    return out


@pytest.mark.parametrize("r", ORBIT_RS)
def test_a_gauge_branch_returns_the_default_diagonal(r):
    frame = can.build_spectrum(r)
    default = can.first_order(frame)[1]
    for branch in branches(r)[1:]:
        off, diag = can.first_order(frame, **branch)
        assert diag is default
        assert list(diag) == can.r1_diagonal(frame, off)


def test_a_gauge_branch_shares_the_default_genus_one_form(monkeypatch):
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    for r in (1, 2, 3):
        # assembled once, whichever branch asks first
        first = can.genus_one_form(r, pair_flip=(0, 1))
        assert first[0] == can.genus_one_expected(r)
        for branch in branches(r):
            assert can.genus_one_form(r, **branch) is first


@pytest.mark.parametrize("r", [1, 2, 3])
def test_a_one_sided_flip_integrates_every_diagonal(r, monkeypatch):
    # at r = 1 the flipped product integrates to another diagonal; beyond it
    # diagonal 0 keeps a constant term, as r1_diagonal finds
    frame = can.build_spectrum(r)
    default = can.first_order(frame)[1]
    monkeypatch.setattr(can, "_branch", one_sided_branch)
    off = can.r1_offdiagonal(frame, pair_flip=(0, 1))
    got = outcome(lambda: list(can.first_order(frame, pair_flip=(0, 1))[1]))
    assert got == outcome(can.r1_diagonal, frame, off)
    assert got != list(default)
    assert isinstance(got, list) if r == 1 else got.startswith("diagonal 0 ")


def test_control_a_one_sided_pair_flip(capsys, monkeypatch):
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    monkeypatch.setattr(can, "_branch", one_sided_branch)
    code, entries = verify_appendix_r3_json(capsys)
    assert code == 1
    entry = entries["appendix/genus-one-branch-independence", None]
    assert entry["status"] == "fail"
    assert entry["residual"] == ("first failing branch: pair_flip = (0, 1):"
                                 " diagonal 0 integrand has a constant term at weight -1")
    # the default branch never flips a pair
    for anchor in ("appendix/genus-one-form", "appendix/first-order-diagonal"):
        assert entries[anchor, None]["status"] == "pass"


# --- the norm product over D^(2r) against the running product ---------------------


def running_product(frame, deltas):
    prod = EquivScalar.one(frame.field, frame.u)
    for d in deltas:
        prod = prod * d
    return prod


@pytest.mark.parametrize("r", ORBIT_RS)
def test_the_norm_product_matches_the_running_product(r):
    frame = can.build_spectrum(r)
    deltas = can.delta_i(frame)
    got = can.delta_product(frame, deltas)
    assert got == running_product(frame, deltas)
    assert got == can.delta_product_closed_form(frame)


def factor_of(frame, p):
    return EquivScalar.from_ratfunc(RatFunc(frame.field, frame.u, p, Poly.one(frame.field)))


# Delta_1 changed -> (the change, whether the product stays over D^(2r))
DELTA_CHANGES = {
    "doubled numerator": (lambda frame, d: d * 2, True),
    "numerator gains 1": (lambda frame, d: EquivScalar(
        frame.field, frame.u, d.weight,
        RatFunc(frame.field, frame.u, d.value.num + Poly.one(frame.field), d.value.den)), False),
    "denominator L_1^(2r-1)": (lambda frame, d: d * factor_of(frame, frame.L[1]), False),
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(DELTA_CHANGES))
def test_the_norm_product_of_a_changed_factor(r, name, monkeypatch):
    change, over_d = DELTA_CHANGES[name]
    frame = can.build_spectrum(r)
    deltas = can.delta_i(frame)
    deltas[1] = change(frame, deltas[1])
    want = running_product(frame, deltas)
    products = []
    mul = EquivScalar.__mul__
    monkeypatch.setattr(EquivScalar, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    assert can.delta_product(frame, deltas) == want
    # the fallback is the running product, r + 1 products
    assert len(products) == (0 if over_d else r + 1)


@pytest.mark.parametrize("name", sorted(DELTA_CHANGES))
def test_control_a_changed_delta_fails_both_norm_anchors(capsys, monkeypatch, name):
    change, _ = DELTA_CHANGES[name]
    install_stage(monkeypatch, "delta_i", lambda frame, deltas: tuple(
        change(frame, d) if i == 1 else d for i, d in enumerate(deltas)))
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    want = {"appendix/norm-inverse-product": "first failing i = 1: Delta_i times the norm is not 1",
            "appendix/norm-product-closed-form": "prod_i Delta_i is not the closed form"}
    for anchor, residual in want.items():
        assert entries[anchor]["status"] == "fail" and entries[anchor]["residual"] == residual
    assert entries["appendix/log-norm-term"]["status"] == "pass"


# --- the deck rotation's orbit shortcuts against all-pairs references --------------



@pytest.mark.parametrize("r", ORBIT_RS)
def test_the_rotated_r1_diagonal_is_the_integrated_one(r):
    frame = can.build_spectrum(r)
    off, diag = can.first_order(frame)
    assert list(diag) == can.r1_diagonal(frame, off)


@pytest.mark.parametrize("r", ORBIT_RS)
def test_each_idempotent_value_is_the_rotation_of_its_row_0_value(r):
    frame = can.build_spectrum(r)
    u = frame.u
    for derive in (can.du_of_eps, can.eps_pairing):
        row = [derive(frame, 0, k) for k in range(u)]
        [by_orbit] = can.by_orbit(frame, derive)
        for i in range(u):
            for j in range(u):
                got = derive(frame, i, j)
                assert got == row[(j - i) % u].rotate(i)
                assert by_orbit(i, j) == got


def perturbed_frame(r, change):
    """A fresh frame whose linear factors or basis factors ``change`` edits in
    place, before anything reads them."""
    frame = can.build_spectrum(r)
    change(frame)
    return frame


def moved_root(frame):
    frame.L[1] = frame.L[1] + Poly.one(frame.field)


def moved_root_after_the_factors(frame):
    # the basis factors keep the true L_1; du_of_eps reads the moved one
    can._eps_factors(frame)
    moved_root(frame)


def doubled_pref_1(frame):
    prefs, signed = can._eps_factors(frame)
    frame.stages["eps_factors"] = ((prefs[0], prefs[1] * 2) + prefs[2:], signed)


def s_21_gains_1(frame):
    prefs, signed = can._eps_factors(frame)
    row = list(signed[2])
    row[1] = row[1] + Poly.monomial(frame.field, 1)  # s_21 w + w
    frame.stages["eps_factors"] = (prefs, signed[:2] + (tuple(row),) + signed[3:])


ORBIT_BREAKERS = {
    "moved root of L_1": moved_root,
    "moved root of L_1 after the basis factors": moved_root_after_the_factors,
    "doubled pref_1": doubled_pref_1,
    "s_21 gains 1": s_21_gains_1,
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(ORBIT_BREAKERS))
def test_a_pair_off_the_orbit_is_derived_directly(r, name):
    # inputs that sigma does not carry onto each other: every value is still
    # the direct derivation, where a rotation of row 0 would not be
    frame = perturbed_frame(r, ORBIT_BREAKERS[name])
    rotated_differs = False
    for derive in (can.du_of_eps, can.eps_pairing):
        [by_orbit] = can.by_orbit(frame, derive)
        for i in range(frame.u):
            for j in range(frame.u):
                got = derive(frame, i, j)
                assert by_orbit(i, j) == got
                rotated_differs |= got != by_orbit(0, (j - i) % frame.u).rotate(i)
    assert rotated_differs


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(can, name)

    def counted(frame, i, j):
        calls.append((i, j))
        return real(frame, i, j)

    monkeypatch.setattr(can, name, counted)
    return calls


def test_the_idempotent_anchors_derive_row_0_only(monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    duality = count_calls(monkeypatch, "du_of_eps")
    pairing = count_calls(monkeypatch, "eps_pairing")
    rep = suites.appendix_suite(4)
    assert rep.all_pass()
    assert duality == pairing == [(0, k) for k in range(5)]


def all_pairs_duality(frame):
    """The duality anchor's residual from du_of_eps at every (i, j)."""
    n = frame.u
    return next((f"first failing (i, j) = {(i, j)}: du_j(eps_i) is not delta_ij"
                 for i in range(n) for j in range(n)
                 if can.du_of_eps(frame, i, j) != (1 if i == j else 0)), "0")


def all_pairs_orthogonality(frame):
    """The orthogonality anchor's residual from eps_pairing at every i <= j."""
    n = frame.u
    for i in range(n):
        for j in range(i, n):
            got = can.eps_pairing(frame, i, j)
            if i == j and got != can.eps_norm_closed_form(frame, i):
                return f"first failing (i, j) = {(i, j)}: the norm is not the closed form"
            if i != j and not got.is_zero():
                return f"first failing (i, j) = {(i, j)}: the pairing is not zero"
    return "0"


def idempotent_rows(frame, monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {frame.r: frame})
    monkeypatch.setattr(can, "_GENUS_ONE", {})
    entries = {e.anchor: e for e in suites.appendix_suite(frame.r).entries}
    return (entries["appendix/idempotent-duality"].residual,
            entries["appendix/idempotent-orthogonality"].residual)


@pytest.mark.parametrize("r", ORBIT_RS)
def test_the_idempotent_anchors_match_the_all_pairs_references(r, monkeypatch):
    frame = can.build_spectrum(r)
    assert idempotent_rows(frame, monkeypatch) == ("0", "0")
    assert (all_pairs_duality(frame), all_pairs_orthogonality(frame)) == ("0", "0")


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(ORBIT_BREAKERS))
def test_the_idempotent_anchors_off_the_orbit_match_the_references(r, name, monkeypatch):
    frame = perturbed_frame(r, ORBIT_BREAKERS[name])
    want = (all_pairs_duality(frame), all_pairs_orthogonality(frame))
    assert want != ("0", "0")
    assert idempotent_rows(frame, monkeypatch) == want


@pytest.mark.parametrize("diag_mode", ["unitarity", "zero"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_the_row_0_unitarity_residual_is_the_full_matrix_residual(r, diag_mode):
    mats, report = can.r_matrix_recursion(r, 3, diag_mode)
    for n in (1, 2, 3):
        full = signed_sum(mats, n, 0)
        first = next(((i, j) for i, row in enumerate(full) for j, x in enumerate(row)
                      if not x.is_zero()), None)
        assert report["unitarity_first_nonzero"].get(n) == first
        assert report["unitarity_exact"][n] == (first is None)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_the_row_0_unitarity_residual_under_the_wrong_wrap_sign(r, monkeypatch):
    # zeta^(r+1) taken as +1: each R_a^T R_b still obeys the fill's rule with
    # that sign, so the full sum's first nonzero entry is still in row 0
    monkeypatch.setattr(can, "_FRAMES", {})
    monkeypatch.setattr(can, "_WRAP_SIGN", 1)
    mats, report = can.r_matrix_recursion(r, 1)
    full = signed_sum(mats, 1, 0)
    first = next((i, j) for i, row in enumerate(full) for j, x in enumerate(row)
                 if not x.is_zero())
    assert report["unitarity_first_nonzero"] == {1: first}


@pytest.mark.parametrize("shift, failing", [(lambda i: i + 1, 0), (lambda i: 2 * i, 1)])
def test_control_a_diagonal_rotated_to_the_wrong_index(capsys, monkeypatch, shift, failing):
    # diagonal i taken as sigma^shift(i) of diagonal 0: the anchor names the
    # first i whose rotation is wrong, and the off-diagonal still passes
    real = can.first_order

    def rotated(frame, signs=None, pair_flip=None):
        off, diag = real(frame, signs, pair_flip)
        if signs is None and pair_flip is None:
            diag = tuple(diag[0].rotate(shift(i)) for i in range(frame.u))
        return off, diag

    monkeypatch.setattr(can, "first_order", rotated)
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    entry = entries["appendix/first-order-diagonal"]
    assert entry["status"] == "fail"
    assert entry["residual"] == f"first failing i = {failing}: derived is not the closed form"
    assert entries["appendix/first-order-offdiagonal"]["status"] == "pass"


# --- negative controls of the anchors that compare one value or one window ----------


def one_spectrum_root(monkeypatch):
    frame = can.build_spectrum(2)
    frame.p[1] = frame.p[1] * 2
    monkeypatch.setattr(can, "_FRAMES", {2: frame})
    monkeypatch.setattr(can, "_GENUS_ONE", {})


def one_pairing_weight_at(d0):
    def perturb(monkeypatch):
        weight = can._pairing_weight
        monkeypatch.setattr(can, "_FRAMES", {})
        monkeypatch.setattr(can, "_pairing_weight", lambda r, d: weight(r, d) + (d == d0))
    return perturb


# anchor -> (perturbation, the failing residual, an anchor that must still pass)
VALUE_CONTROLS = {
    # m_matrix reads p_0 only, so the other rows' checks see nothing of it
    "appendix/spectrum-char-residual": (
        one_spectrum_root, "first failing i = 1: q (lam - p_i)^(r+1) is not p_i^(r+1)",
        "appendix/charpoly-coefficients-in-g"),
    # C(2r-d, r-d) at d = r is 1; make it 2
    "appendix/pairing-closed-form": (
        one_pairing_weight_at(2), "first failing (k, l) = (2, 0): the pairing is not lam^-3",
        "appendix/idempotent-duality"),
    # at d = 0 the weight enters every window term with k = 0, and not p^r's pairing
    "appendix/pairing-vanishing-window": (
        one_pairing_weight_at(0),
        "first failing k = 0: the pairing of (p/lam)^k (1 - p/lam)^(2r-k) is not zero",
        "appendix/pairing-closed-form"),
}


def test_value_anchors_pass_with_a_zero_residual(capsys, monkeypatch):
    monkeypatch.setattr(can, "_FRAMES", {})
    code, entries = verify_appendix_r2(capsys)
    assert code == 0
    for anchor in VALUE_CONTROLS:
        assert entries[anchor]["status"] == "pass" and entries[anchor]["residual"] == "0"


@pytest.mark.parametrize("anchor", sorted(VALUE_CONTROLS))
def test_control_value_anchor(capsys, monkeypatch, anchor):
    perturb, residual, sibling = VALUE_CONTROLS[anchor]
    perturb(monkeypatch)
    code, entries = verify_appendix_r2(capsys)
    assert code == 1
    assert entries[anchor]["status"] == "fail"
    assert entries[anchor]["residual"] == residual
    assert entries[sibling]["status"] == "pass"
