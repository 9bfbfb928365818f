"""L2 micro-benchmark: stages that ``verify all`` calls repeatedly.

    PYTHONPATH=src python -m pytest benchmarks/test_l2_verify_all.py --benchmark-only

* ``evaluate_g_polynomial`` of delta^7 G as a polynomial in G (a ``Poly``
  over Q), at r = 1..3, the largest m of the flop suite.
* R1 on the default branch of a fresh frame at r = 4..8, its connection
  already built: ``first_order(frame)``, off the diagonal and on it.
* ``hamiltonian_of`` for the three operator pairs of the quantization
  suite's homomorphism check at dim 2, cutoff 3 (six operators, the
  symplectic test included).
* The whole quantization cell, ``quantization_suite(2, 3)``, which does not
  depend on r.
* The cohomology cell ``cohomology_suite(r)`` at r = 1..3, each round in the
  state of a fresh process: a module-level memo of the total Chern class,
  where the module has one, is emptied before the round.

``verify_eigen_relations`` at the batyrev suite's order 10 is timed in
``test_l2_batyrev.py``.

The file uses the public API of each module, so it times any version of them.
"""

import pytest

from qcflop import canonical, cohomology, flopcheck, suites, weyl


@pytest.mark.parametrize("r", [1, 2, 3])
def test_evaluate_g_polynomial(benchmark, r):
    poly = flopcheck.delta_g_polynomial(r, 7)
    value = benchmark(flopcheck.evaluate_g_polynomial, poly, r)
    assert value == flopcheck.delta_g_direct(r, 7)


@pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
def test_first_order(benchmark, r):
    def fresh_frame():
        frame = canonical.build_spectrum(r)
        canonical.connection_form(frame)
        return (frame,), {}

    _, diag = benchmark.pedantic(canonical.first_order, setup=fresh_frame, rounds=5)
    assert list(diag) == canonical.r1_diagonal_closed_form(canonical.frame_for(r))


def test_hamiltonian_of(benchmark):
    B = [[1, 2], [2, -1]]
    C = [[0, 1], [1, 3]]
    ops = []
    for exp1, exp2 in ((-1, -1), (-1, -3), (1, 1)):
        ops.append(weyl.EndoLaurent.matrix_z_power(2, exp1, B))
        ops.append(weyl.EndoLaurent.matrix_z_power(2, exp2, C))

    def run():
        return [weyl.hamiltonian_of(A, 2, 3) for A in ops]

    assert all(not P.is_zero() for P in benchmark(run))


def test_quantization_suite(benchmark):
    assert benchmark(suites.quantization_suite, 2, 3).all_pass()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cohomology_suite(benchmark, r):
    def cold_memo():
        vars(cohomology).get("_TOTAL_CHERN", {}).clear()
        return (r,), {}

    rep = benchmark.pedantic(suites.cohomology_suite, setup=cold_memo, rounds=50)
    assert rep.all_pass()
