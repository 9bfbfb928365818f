"""L2 micro-benchmark: the idempotent checks and the R-matrix recursion of
the appendix suite.

    PYTHONPATH=src python -m pytest benchmarks/test_l2_appendix.py --benchmark-only

Each stage runs at r = 4..8 on the shared frame of that r, with the frame's
basis and connection built before timing starts, as the suite has them when
it reaches these checks: ``eps_pairing`` over the upper triangle i <= j (the
pairing is symmetric), ``du_of_eps`` over every (i, j), and
``r_matrix_recursion(r, 2)``, the suite's default order; the recursion also
runs to order 6 at r = 4 and 8, where the Laurent products of its later
orders dominate.  ``branch_failure`` runs on the shared frame, with R1
built, over the two branches that the suite's branch-independence check
reads (the pair (0, 1) flipped, and the last sign -1): the one place a
branch is read.  ``connection_form`` runs on a fresh frame per round, with
nothing built before it but the spectrum, and ``first_order`` on the
default branch of a fresh frame at r = 20, with nothing built before it but
the spectrum, so the connection and R1 are derived in the timed call.

The stages built over the spectrum's known factors run at r = 8, 12 and 16,
three rounds each: ``charpoly_coefficients`` and ``term_log_delta`` on a
fresh frame per round, so the factors they share are built in the timed
call, ``delta_product`` of the shared frame's Delta_i, the norm product of
the appendix suite, and ``genus_one_form`` with the shared frame of that
r, which keeps the form, dropped before each round, so each round derives
the whole chain, as a fresh process does.

The frame's symmetric functions run at r = 12, 20 and 40, three rounds each
on a fresh frame: ``canonical._linear_factors``, the e_m(L), and
``canonical._sym_omitting`` at every omit index, the E^i_k, each checked
against the products multiplied out (the E^i_k by the reference in
tests/helpers.py); and ``connection_form``, which reads them,
checked against minus the closed-form display.  Apart from these two
stages, only the public canonical API is used.
"""

import sys
from pathlib import Path

import pytest

from qcflop import canonical
from qcflop.algebra import Poly, elementary_symmetric

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import diagonal, elementary_symmetric_omitting, filled  # noqa: E402

RS = [4, 5, 6, 7, 8]


def ready_frame(r: int) -> canonical.CanonicalFrame:
    frame = canonical.frame_for(r)
    canonical.du_of_eps(frame, 0, 0)  # builds the factors of the basis
    canonical.connection_form(frame)
    return frame


@pytest.mark.parametrize("r", RS)
def test_eps_pairing_upper_triangle(benchmark, r):
    frame = ready_frame(r)
    pairs = [(i, j) for i in range(r + 1) for j in range(i, r + 1)]

    def run():
        return [canonical.eps_pairing(frame, i, j) for i, j in pairs]

    values = benchmark(run)
    assert all(v.is_zero() == (i != j) for (i, j), v in zip(pairs, values))


@pytest.mark.parametrize("r", RS)
def test_du_of_eps(benchmark, r):
    frame = ready_frame(r)

    def run():
        return [[canonical.du_of_eps(frame, i, j) for j in range(r + 1)] for i in range(r + 1)]

    values = benchmark(run)
    assert all(values[i][j] == (1 if i == j else 0) for i in range(r + 1) for j in range(r + 1))


@pytest.mark.parametrize("r", RS)
def test_r_matrix_recursion(benchmark, r):
    ready_frame(r)
    _, report = benchmark(canonical.r_matrix_recursion, r, 2)
    assert all(report["unitarity_exact"].values())


@pytest.mark.parametrize("r", [4, 8])
def test_r_matrix_recursion_order_6(benchmark, r):
    ready_frame(r)
    _, report = benchmark.pedantic(canonical.r_matrix_recursion, args=(r, 6), rounds=3)
    assert all(report["unitarity_exact"].values())


@pytest.mark.parametrize("r", RS)
def test_connection_form_fresh_frame(benchmark, r):
    def fresh_frame():
        return (canonical.build_spectrum(r),), {}

    conn = benchmark.pedantic(canonical.connection_form, setup=fresh_frame, rounds=5)
    assert filled(conn) == filled(canonical.connection_form(canonical.frame_for(r)))


@pytest.mark.parametrize("r", RS)
def test_branch_failure_on_the_suite_branches(benchmark, r):
    frame = ready_frame(r)
    canonical.first_order(frame)
    branches = [([1] * (r + 1), (0, 1)), ([1] * r + [-1], None)]

    def run():
        return [canonical.branch_failure(frame, e, flip) for e, flip in branches]

    assert benchmark(run) == [None, None]


def test_first_order_fresh_frame_r20(benchmark):
    def fresh_frame():
        return (canonical.build_spectrum(20),), {}

    r1 = benchmark.pedantic(canonical.first_order, setup=fresh_frame, rounds=3)
    assert diagonal(r1) == canonical.r1_diagonal_closed_form(canonical.frame_for(20))


LARGE_RS = [8, 12, 16]


def fresh_frame_of(r: int):
    def fresh_frame():
        return (canonical.build_spectrum(r),), {}
    return fresh_frame


@pytest.mark.parametrize("r", LARGE_RS)
def test_charpoly_coefficients_fresh_frame(benchmark, r):
    es = benchmark.pedantic(canonical.charpoly_coefficients, setup=fresh_frame_of(r), rounds=3)
    frame = canonical.frame_for(r)
    assert all(ek == canonical.charpoly_expected(frame, k) for k, ek in enumerate(es, start=1))


@pytest.mark.parametrize("r", LARGE_RS)
def test_term_log_delta_fresh_frame(benchmark, r):
    got = benchmark.pedantic(canonical.term_log_delta, setup=fresh_frame_of(r), rounds=3)
    g = canonical.g_in_w(r)
    assert got == (1 - g * (2 * (-1) ** r)) * r


@pytest.mark.parametrize("r", LARGE_RS)
def test_delta_product(benchmark, r):
    frame = canonical.frame_for(r)
    deltas = canonical.delta_i(frame)
    prod = benchmark.pedantic(canonical.delta_product, args=(frame, deltas), rounds=3)
    assert prod == canonical.delta_product_closed_form(frame)


@pytest.mark.parametrize("r", LARGE_RS)
def test_genus_one_form(benchmark, r):
    def no_memo():
        canonical._FRAMES.pop(r, None)
        return (r,), {}

    form, _ = benchmark.pedantic(canonical.genus_one_form, setup=no_memo, rounds=3)
    assert form == canonical.genus_one_expected(r)


FACTOR_RS = [12, 20, 40]


@pytest.mark.parametrize("r", FACTOR_RS)
def test_linear_factors_fresh_frame(benchmark, r):
    es = benchmark.pedantic(canonical._linear_factors, setup=fresh_frame_of(r), rounds=3)
    frame = canonical.frame_for(r)
    assert es == tuple(elementary_symmetric(frame.L, Poly.one(frame.field)))


def every_omit_index(frame):
    return [canonical._sym_omitting(frame, i) for i in range(frame.u)]


@pytest.mark.parametrize("r", FACTOR_RS)
def test_sym_omitting_fresh_frame(benchmark, r):
    got = benchmark.pedantic(every_omit_index, setup=fresh_frame_of(r), rounds=3)
    frame = canonical.frame_for(r)
    one = Poly.one(frame.field)
    es = elementary_symmetric(frame.L, one)
    assert got == [tuple(elementary_symmetric_omitting(frame.L, i, one, es))
                   for i in range(frame.u)]


@pytest.mark.parametrize("r", FACTOR_RS)
def test_connection_form_large_fresh_frame(benchmark, r):
    conn = benchmark.pedantic(canonical.connection_form, setup=fresh_frame_of(r), rounds=3)
    disp = canonical.connection_display_form(canonical.frame_for(r))
    assert filled(conn) == [[-x for x in row] for row in disp]
