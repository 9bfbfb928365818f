"""L2 micro-benchmark: the idempotent checks and the R-matrix recursion of
the appendix suite.

    PYTHONPATH=src python -m pytest benchmarks/test_l2_appendix.py --benchmark-only

Each stage runs at r = 4..8 on the shared frame of that r, with the frame's
basis and connection built before timing starts, as the suite has them when
it reaches these checks: ``eps_pairing`` over the upper triangle i <= j (the
pairing is symmetric), ``du_of_eps`` over every (i, j), and
``r_matrix_recursion(r, 2)``, the suite's default order.  Only the public
canonical API is used, so the file times any version of the module.
"""

import pytest

from qcflop import canonical

RS = [4, 5, 6, 7, 8]


def ready_frame(r: int) -> canonical.CanonicalFrame:
    frame = canonical.frame_for(r)
    canonical.canonical_basis(frame)
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
