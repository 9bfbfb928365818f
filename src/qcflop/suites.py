"""Verification suites: each runs a family of exact identity checks for one r
and returns report entries carrying stable anchors."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from qcflop import batyrev, canonical, cohomology, flopcheck, weyl
from qcflop.algebra import EquivScalar, Poly, linalg
from qcflop.report import Report


def cohomology_suite(r: int) -> Report:
    rep = Report(suite="cohomology")
    rank = len(cohomology.basis(r))
    rep.add("cohomology/ring-rank", {"r": r}, rank == (r + 1) * (r + 2), str(rank))
    gram_det = linalg.det(cohomology.pairing_matrix(r), Fraction(1))
    rep.add("cohomology/poincare-unimodular", {"r": r}, abs(gram_det) == 1, str(gram_det))
    c1 = cohomology.chern_class(r, 1)
    ok = c1 == cohomology.monomial(r, 0, 1, r + 2)
    rep.add("cohomology/first-chern-fiber-class", {"r": r}, ok,
            "0" if ok else f"c_1 = {c1}, not {r + 2}*x")
    pairing = cohomology.chern_flop_identity(r)
    rep.add("cohomology/chern-flop-pairing", {"r": r},
            pairing == -(r + 1), str(pairing))
    probe = cohomology.monomial(r, 1, 0, 2) + cohomology.monomial(r, 0, 1, -1)
    g1val = cohomology.genus1_degree0(r, probe)
    rep.add("cohomology/genus-one-degree-zero", {"r": r},
            g1val == Fraction(r + 1, 24), str(g1val))
    if r == 1:
        v = cohomology.c3_minus_c2c1(1)
        v_swapped = cohomology.c3_minus_c2c1_swapped(1)
        rep.add("cohomology/threefold-chern-number", {"r": 1},
                v == v_swapped, f"{v} vs {v_swapped}")
    return rep


def _first_differing_term(what: str, got: dict, want: dict) -> str | None:
    """None when two term maps are equal, else ``what`` with the first key,
    in sorted order, where they differ and both coefficients there."""
    return next((f"{what}: first failing term {key}: got {got.get(key, 0)}, want {want.get(key, 0)}"
                 for key in sorted(got.keys() | want.keys()) if got.get(key) != want.get(key)), None)


def flop_suite(r: int, max_m: int = 7, max_n: int = 6, series_order: int = 30) -> Report:
    rep = Report(suite="flop")
    sign = (-1) ** (r + 1)
    g = flopcheck.g_function(r)
    ok = flopcheck.verify_reflection(r)
    rep.add("flop/reflection", {"r": r}, ok,
            "0" if ok else f"G(q) + G(1/q) = {g + g.subs_reciprocal()}, not {(-1) ** r}")
    p1 = flopcheck.delta_g_polynomial(r, 1)
    ok = p1 == Poly(flopcheck.Q, [0, 1, sign])
    rep.add("flop/delta-g-closed-form", {"r": r}, ok,
            "0" if ok else f"p_1 has G-coefficients {_g_coefficients(p1)}, not [0, 1, {sign}]")
    base = g.series_expand(series_order)
    for m in range(max_m + 1):
        poly = flopcheck.delta_g_polynomial(r, m)
        value = flopcheck.evaluate_g_polynomial(poly, r)
        if poly.den != 1:
            bad = f"p_{m} has G-coefficients {_g_coefficients(poly)}, not all integers"
        elif value != flopcheck.delta_g_direct(r, m):
            bad = f"p_{m}(G) is not delta^{m} G by direct differentiation"
        else:
            got = value.series_expand(series_order)
            bad = next((f"first failing d = {d}: the q^{d} coefficient of p_{m}(G) is {x},"
                        f" not {y * d ** m} = d^{m} times that of G"
                        for d, (x, y) in enumerate(zip(got, base)) if x != y * d ** m), None)
        rep.add("flop/delta-g-polynomial", {"r": r, "m": m}, bad is None, bad or "0")
    for m in range(1, max_m + 1):
        ok = flopcheck.reciprocal_antisymmetry(r, m)
        rep.add("flop/reciprocal-antisymmetry", {"r": r, "m": m}, ok,
                "0" if ok else _antisymmetry_failure(f"delta^{m} G", m - 1))
    x = flopcheck.RingRElement(r, {(2, 1, 2): Fraction(3), (0, 2, 1): Fraction(-1, 2)})
    twice = flopcheck.flop_transform(flopcheck.flop_transform(x))
    bad = _first_differing_term("F(F(x)) is not x", twice.terms, x.terms)
    rep.add("flop/transform-involution", {"r": r}, bad is None, bad or "0")
    kappa = flopcheck.genus1_kappa(r)
    rep.add("flop/genus-one-kappa", {"r": r},
            kappa == Fraction((-1) ** (r + 1) * (r + 1), 24), str(kappa))
    for n in range(2, max_n + 1):
        ok = flopcheck.genus1_npoint_invariance(r, n, kappa=kappa)
        rep.add("flop/genus-one-npoint-invariance", {"r": r, "n": n}, ok,
                "0" if ok else _antisymmetry_failure(f"kappa delta^{n - 1} G", n - 2))
    defect = flopcheck.genus1_onepoint_defect(r, kappa=kappa)
    rep.add("flop/genus-one-onepoint-defect", {"r": r}, defect == 0, str(defect))
    if r == 1:
        for m in (1, 3, 5):
            ok = flopcheck.fp_generating_invariance(m)
            rep.add("flop/zero-point-series-invariance", {"r": 1, "m": m}, ok,
                    "0" if ok else _zero_point_failure(m))
    return rep


def _g_coefficients(p: Poly) -> str:
    """The coefficients of a polynomial in G over Q, ascending, as [c_0, c_1, ...]."""
    return f"[{', '.join(map(str, p.coeffs))}]"


def _antisymmetry_failure(what: str, power: int) -> str:
    return f"{what}(1/q) is not (-1)^{power} {what}(q)"


def _zero_point_failure(m: int) -> str:
    """Which route of fp_generating_invariance(m) fails: the antisymmetry of
    delta^m G at r = 1, or else the first q^d coefficient that is not d^m."""
    if not flopcheck.reciprocal_antisymmetry(1, m):
        return _antisymmetry_failure(f"delta^{m} G", m - 1)
    coeffs = flopcheck.delta_g_direct(1, m).series_expand(10)
    d = next(d for d in range(1, 11) if coeffs[d] != d ** m)
    return f"first failing d = {d}: the q^{d} coefficient of delta^{m} G is {coeffs[d]}, not {d ** m}"


def _first_failing_pair(r: int, checks) -> str | None:
    """The first (i, j), in row order, where one of ``checks(i, j)``, a
    sequence of (what fails, passed), did not pass."""
    return next((f"first failing (i, j) = {(i, j)}: {what}"
                 for i in range(r + 1) for j in range(r + 1)
                 for what, passed in checks(i, j) if not passed), None)


def _derived(derive, *args, **kwargs):
    """(derive(*args, **kwargs), None), or (None, the error text) when the
    derivation raises a ValueError: the FlatnessError of a diagonal that does
    not integrate, a CancellationError, or the ValueError of a value that is
    not a function of q.  The anchors that read the value fail with that text."""
    try:
        return derive(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


def appendix_suite(r: int, rmatrix_order: int = 2) -> Report:
    rep = Report(suite="appendix")
    frame = canonical.frame_for(r)
    residuals = canonical.char_residuals(frame)
    bad = next((f"first failing i = {i}: q (lam - p_i)^(r+1) is not p_i^(r+1)"
                for i, res in enumerate(residuals) if not res.is_zero()), None)
    rep.add("appendix/spectrum-char-residual", {"r": r}, bad is None, bad or "0")
    bad = None
    for k, ek in enumerate(canonical.charpoly_coefficients(frame), start=1):
        # the closed form has weight k and is linear in G, so it is checked first
        if ek != canonical.charpoly_expected(frame, k):
            bad = f"first failing k = {k}: e_{k} is not the closed form"
        elif ek.weight != k or canonical.as_g_polynomial(ek.value, r) is None:
            bad = f"first failing k = {k}: e_{k} is not lam^{k} times a polynomial in G"
        if bad:
            break
    rep.add("appendix/charpoly-coefficients-in-g", {"r": r}, bad is None, bad or "0")
    if canonical.equiv_pairing(r, r, 0) != EquivScalar.lam_power(frame.field, frame.u, -(r + 1), 1):
        bad = f"first failing (k, l) = {(r, 0)}: the pairing is not lam^-{r + 1}"
    elif not canonical.equiv_pairing(r, r, 1).is_zero():
        bad = f"first failing (k, l) = {(r, 1)}: the pairing is not zero"
    else:
        bad = None
    rep.add("appendix/pairing-closed-form", {"r": r}, bad is None, bad or "0")
    bad = next((f"first failing k = {k}: the pairing of (p/lam)^k (1 - p/lam)^(2r-k) is not zero"
                for k in range(r) if not canonical.lemma_zero_value(r, k).is_zero()), None)
    rep.add("appendix/pairing-vanishing-window", {"r": r}, bad is None, bad or "0")
    # each check derives its row 0 and covers the other rows by the deck rotation
    duality, pairing = canonical.by_orbit(frame, canonical.du_of_eps, canonical.eps_pairing)
    bad = _first_failing_pair(r, lambda i, j: (
        ("du_j(eps_i) is not delta_ij", duality(i, j) == (1 if i == j else 0)),))
    rep.add("appendix/idempotent-duality", {"r": r}, bad is None, bad or "0")
    bad = None
    norms = []
    for i in range(r + 1):
        for j in range(i, r + 1):  # the pairing is symmetric
            got = pairing(i, j)
            if i == j:
                norms.append(got)
                ok = got == canonical.eps_norm_closed_form(frame, i)
            else:
                ok = got.is_zero()
            if not ok and bad is None:
                what = "the norm is not the closed form" if i == j else "the pairing is not zero"
                bad = f"first failing (i, j) = {(i, j)}: {what}"
    rep.add("appendix/idempotent-orthogonality", {"r": r}, bad is None, bad or "0")
    deltas = canonical.delta_i(frame)
    bad = next((f"first failing i = {i}: Delta_i times the norm is not 1"
                for i in range(r + 1) if deltas[i] * norms[i] != 1), None)
    rep.add("appendix/norm-inverse-product", {"r": r}, bad is None, bad or "0")
    # a failing single-value anchor names what it compared
    ok = canonical.delta_product(frame, deltas) == canonical.delta_product_closed_form(frame)
    rep.add("appendix/norm-product-closed-form", {"r": r}, ok,
            "0" if ok else "prod_i Delta_i is not the closed form")
    g = canonical.g_in_w(r)
    ok = canonical.term_log_delta(frame) == (1 - g * Fraction(2 * (-1) ** r)) * r
    rep.add("appendix/log-norm-term", {"r": r}, ok,
            "0" if ok else "d log prod_i Delta_i is not r (1 - 2 (-1)^r G)")
    ok = canonical.term_c_minus_one(frame) == g * Fraction((-1) ** r * (r + 1) ** 2, 24)
    rep.add("appendix/chern-localization-term", {"r": r}, ok,
            "0" if ok else "the first-Chern term is not (-1)^r (r+1)^2 G / 24")
    branch_note = "derived equals display under the opposite square-root branch"
    conn = canonical.connection_form(frame)
    disp = canonical.connection_display_form(frame)
    bad = _first_failing_pair(r, lambda i, j: (
        ("the diagonal is not zero", i != j or conn[i][i].is_zero()),
        ("the form is not antisymmetric", (conn[i][j] + conn[j][i]).is_zero()),
        ("derived is not minus the display", conn[i][j] == -disp[i][j])))
    rep.add("appendix/connection-form", {"r": r}, bad is None, bad or branch_note)
    first, r1_error = _derived(canonical.first_order, frame)
    bad = r1_error
    if first is not None:
        off, diag = first
        off_disp = canonical.r1_offdiagonal_display(frame)
        bad = _first_failing_pair(r, lambda i, j: () if i == j else (
            ("the entry is not of weight lam^-1", off[i][j].weight == -1),
            ("derived is not minus the display", off[i][j] == -off_disp[i][j]),
            ("R1 is not symmetric", off[i][j] == off[j][i])))
    rep.add("appendix/first-order-offdiagonal", {"r": r}, bad is None, bad or branch_note)
    # the pairs (xi^k, g_k) are derived once per cell, for both checks
    xi_terms = canonical.xi_g_terms(r)
    xi_val = canonical.xi_constant(xi_terms)
    xi_want = Fraction(-(r + 2) * (r + 1) ** 2 * r, 24)
    rep.add("appendix/diagonal-constant", {"r": r},
            xi_val == xi_want and canonical.xi_constant_pair_identity(xi_terms), str(xi_val))
    closed = canonical.r1_diagonal_closed_form(frame)
    bad = r1_error or next((f"first failing i = {i}: derived is not the closed form"
                            for i in range(r + 1) if diag[i] != closed[i]), None)
    rep.add("appendix/first-order-diagonal", {"r": r}, bad is None, bad or "0")
    genus_one, error = _derived(canonical.genus_one_form, r)
    expected = canonical.genus_one_expected(r)
    if error:
        rep.add("appendix/genus-one-form", {"r": r}, False, error)
        rep.add("appendix/genus-one-dropped-constant", {"r": r}, False, error)
    else:
        form, const = genus_one
        rep.add("appendix/genus-one-form", {"r": r}, form == expected,
                f"dropped constant {const}")
        rep.add("appendix/genus-one-dropped-constant", {"r": r},
                const == Fraction(-r * (r + 1), 48), str(const))
    # the one reader of another square-root branch: each must be a gauge of
    # the default branch, which makes its genus-one form the default's
    flip, signs = (0, min(1, r)), [1] * r + [-1]
    bad = None
    for name, value, branch in (("pair_flip", flip, ([1] * (r + 1), flip)),
                                ("signs", signs, (signs,))):
        pair, error = _derived(canonical.branch_failure, frame, *branch)
        if pair is not None:
            error = f"R1 at the pair {pair} is not a gauge of the default branch"
        elif error is None:
            genus_one, error = _derived(canonical.genus_one_form, r)
        if error or genus_one[0] != expected:
            bad = f"first failing branch: {name} = {value}" + (f": {error}" if error else "")
            break
    rep.add("appendix/genus-one-branch-independence", {"r": r}, bad is None, bad or "0")
    if rmatrix_order >= 1:
        recursion, error = _derived(canonical.r_matrix_recursion, r, rmatrix_order)
        if error:
            # the recursion stopped at the order and diagonal the error names
            stopped = f"the recursion stopped: {error}"
            rep.add("appendix/recursion-first-order-match", {"r": r}, False, stopped)
            for n in range(1, rmatrix_order + 1):
                rep.add("appendix/recursion-unitarity", {"r": r, "n": n}, False, stopped)
        else:
            mats, info = recursion
            bad = r1_error or _first_failing_pair(r, lambda i, j: (
                ("R_1 of the recursion is not the first-order R1",
                 mats[1][i][j] == (diag[i] if i == j else off[i][j])),))
            rep.add("appendix/recursion-first-order-match", {"r": r}, bad is None, bad or "0")
            note = f"diagonal constants: {info['diagonal_mode']}"
            for n in range(1, rmatrix_order + 1):
                bad = info["unitarity_first_nonzero"].get(n)
                rep.add("appendix/recursion-unitarity", {"r": r, "n": n},
                        info["unitarity_exact"][n],
                        note if bad is None else f"first nonzero (i, j) = {bad}; {note}")
    return rep


def genus_one_table_suite(r: int, dmax: int) -> Report:
    rep = Report(suite="genus1-table")
    table, error = _derived(canonical.genus_one_table, r, dmax)
    wants = [Fraction((-1) ** (d * (r + 1)) * (r + 1), 24 * d) for d in range(1, dmax + 1)]
    bad = error or next((f"first failing d = {d}: got {got}, want {want}"
                         for d, (got, want) in enumerate(zip(table, wants), start=1)
                         if got != want), None)
    rep.add("appendix/genus-one-table", {"r": r, "dmax": dmax}, bad is None, bad or "0")
    return rep


def _product_failure(r: int, orbits: list) -> str:
    """The first orbit whose h the leading monomial does not divide, or the
    first term where the product of the unit parts leaves the closed form."""
    order = batyrev.product_order(r)
    prod = batyrev.eigenvalue_unit_product(r, order, orbits)
    if prod is None:
        unit_order = order - (r + 1) * (r + 2) + 1
        i = next(i for i, orbit in enumerate(orbits)
                 if orbit.h.truncate(unit_order).divide_monomial(1, 1) is None)
        return f"h_{i}0 has a term that q1^(1/(r+1)) q2^(1/(r+2)) does not divide"
    return _first_differing_term("prod of the unit parts is not -1/(1 + (-1)^r q1)",
                                 prod.terms, batyrev.unit_product_closed_form(r, prod).terms)


def _spectrum_structure_failure(r: int) -> str:
    """The first omega^i that no equivariant root equals."""
    roots = {root.coeffs for root in batyrev.equivariant_roots(r)}
    i = next(i for i, root in enumerate(batyrev.closed_form_roots(r)) if root.coeffs not in roots)
    return f"omega^{i} is none of the equivariant roots (-1)^r xi^(-k), k = 0..{r}"


def _commutator_failure(H: list[dict], X: list[dict]) -> str:
    """The first nonzero entry of HX - XH, by row and then column."""
    i, row = next((i, row) for i in range(len(H)) if (row := batyrev.commutator_row(H, X, i)))
    j = min(row)
    return f"first nonzero entry of HX - XH at (i, j) = ({i}, {j}): {row[j]}"


def batyrev_suite(r: int, order: int = 10,
                  sample=((Fraction(3, 10), Fraction(0)), (Fraction(7, 10), Fraction(0))),
                  gap_tol: float = 1e-6, match_tol: float = 1e-9) -> Report:
    rep = Report(suite="batyrev")
    # each eta-orbit is derived once, at the larger order the two checks read
    n = (r + 1) * (r + 2)
    orbits = batyrev.orbit_representatives(r, max(order, batyrev.product_order(r) - n + 1))
    relations = batyrev.verify_eigen_relations(r, order, orbits)
    residual = f"{relations['pairs_checked']} pairs checked"
    if relations["failures"]:
        first = relations["failures"][0]
        residual += (f", {len(relations['failures'])} residuals nonzero; first at"
                     f" (i, j) = ({first['i']}, {first['j']}), {first['relation']},"
                     f" leading exponent {tuple(first['leading_exponent'])}")
    rep.add("batyrev/eigen-relations", {"r": r, "order": order},
            not relations["failures"], residual)
    distinct = relations["leading_coefficients"]
    rep.add("batyrev/eigenvalue-count", {"r": r}, distinct == n,
            "0" if distinct == n else f"{distinct} distinct leading coefficients of {n}")
    ok = batyrev.eigenvalue_product_identity(r, orbits=orbits)
    rep.add("batyrev/eigenvalue-product", {"r": r}, ok,
            "0" if ok else _product_failure(r, orbits))
    ok = batyrev.spectrum_structure_match(r)
    rep.add("batyrev/spectrum-structure-match", {"r": r}, ok,
            "0" if ok else _spectrum_structure_failure(r))
    q1s, q2s = sample
    params = {"r": r, "q1": [str(q1s[0]), str(q1s[1])], "q2": [str(q2s[0]), str(q2s[1])]}
    # one ring per cell: the certificate and the commutator read its matrices
    matrices = batyrev.multiplication_matrices(r, q1s, q2s)
    try:
        cert = batyrev.semisimplicity_certificate(r, q1s, q2s, matrices, gap_tol, match_tol)
        # a failing row names each bound it failed after the two tolerances
        rep.add("batyrev/semisimplicity-certificate", params, cert["certified"],
                ", ".join([f"min gap {cert['min_gap']:.3e}",
                           f"spectrum match {cert['spectrum_match']:.3e}",
                           *cert["failed_bounds"]]))
    except ValueError as exc:  # SemisimplicityError is a ValueError
        rep.add("batyrev/semisimplicity-certificate", params, False, str(exc))
    ok = batyrev.matrices_commute_at(*matrices)
    rep.add("batyrev/multiplication-commutes", {"r": r}, ok,
            "0" if ok else _commutator_failure(*matrices))
    return rep


# a formula that breaks the quantization makes its anchor fail with the error
# in place of a value, as _derived does for the appendix
_QUANTIZATION_ERRORS = (weyl.FormalismError, weyl.NonSymplecticError)


def quantization_suite(dim: int = 2, cutoff: int = 3) -> Report:
    rep = Report(suite="quantization")
    K = 5
    try:
        P = weyl.hamiltonian_of(weyl.EndoLaurent.scalar_z_power(1, -1), 1, K)
    except _QUANTIZATION_ERRORS as exc:
        bad = f"P(1/z): {exc}"
    else:
        # P(1/z) = -q_0^2/2 - sum_m q_(m+1) p_m
        string = {((), ((0, 0), (0, 0))): Fraction(-1, 2)}
        string.update({(((0, m),), ((0, m + 1),)): Fraction(-1) for m in range(K)})
        bad = _first_differing_term("P(1/z) is not the string hamiltonian", P.terms, string)
    rep.add("quantization/string-hamiltonian", {"cutoff": K}, bad is None, bad or "0")
    variables = [(i, k) for i in range(dim) for k in range(cutoff + 1)]
    bad = None
    # the monomials are stored sorted, so (v, w) and (w, v) build the same P1
    # and P2; the first failure in product order has v <= w
    for v, w in combinations_with_replacement(variables, 2):
        P1 = weyl.QuadHamiltonian(dim, cutoff, {((v, w), ()): 1})
        P2 = weyl.QuadHamiltonian(dim, cutoff, {((), (v, w)): 1})
        try:
            got, want = weyl.commutator_cocycle(P1, P2), weyl.expected_cocycle(P1, P2)
        except _QUANTIZATION_ERRORS as exc:
            bad = f"first failing (v, w) = {(v, w)}: {exc}"
            break
        if got != want:
            bad = f"first failing (v, w) = {(v, w)}: got {got}, want {want}"
            break
    rep.add("quantization/cocycle-table", {"dim": dim, "cutoff": cutoff}, bad is None, bad or "0")
    B = [[1, 2], [2, -1]]
    C = [[0, 1], [1, 3]]
    bad = None
    for exp1, exp2 in ((-1, -1), (-1, -3), (1, 1)):
        A1 = weyl.EndoLaurent.matrix_z_power(2, exp1, B)
        A2 = weyl.EndoLaurent.matrix_z_power(2, exp2, C)
        pair = f"first failing (exp1, exp2) = {(exp1, exp2)}"
        try:
            lhs = weyl.hamiltonian_of(A1.commutator(A2), 2, cutoff)
            rhs = weyl.poisson_bracket(weyl.hamiltonian_of(A1, 2, cutoff),
                                       weyl.hamiltonian_of(A2, 2, cutoff))
        except _QUANTIZATION_ERRORS as exc:
            bad = f"{pair}: {exc}"
            break
        if lhs != rhs:
            bad = f"{pair}: P([A1, A2]) is not {{P(A1), P(A2)}}"
            break
    rep.add("quantization/hamiltonian-lie-homomorphism", {"dim": 2, "cutoff": cutoff},
            bad is None, bad or "0")
    shifted = weyl.dilaton_shift({}, cutoff)
    if shifted != {(0, 1): Fraction(1)}:
        bad = "the shift of the origin is not t^0_1 = 1"
    else:
        bad = "the unshift of the shift is not the origin" if weyl.dilaton_unshift(shifted) else None
    rep.add("quantization/dilaton-shift", {"dim": dim}, bad is None, bad or "0")
    return rep
