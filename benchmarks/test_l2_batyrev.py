"""L2 micro-benchmark: the stages of the batyrev suite.

    PYTHONPATH=src python -m pytest benchmarks/test_l2_batyrev.py --benchmark-only

Each stage runs at r = 3, 4, 5 with the suite's own arguments: the
eigenvalue product identity at its default order, the construction of the
ring at the commutator's sample point (where the embedding is built), the
multiplication matrices of h and x, as sparse rows, with the ring built at
the point (one elimination gives the non-unit columns of both), the exact
commutator check (with the ring and its matrices built at the point, as a
batyrev cell builds them once for it and the certificate), the float
semisimplicity certificate on the exact matrices of the suite's default
sample point, and the eigen relations at the suite's default order 10.  All
but the ring construction and the commutator also run at r = 8 and 10, the
frontier of the per-suite r-ceiling.  Only the public batyrev API is used,
so the file times any version of the module.
"""

from fractions import Fraction

import pytest

from qcflop import batyrev

RS = [3, 4, 5]
RS_FRONTIER = RS + [8, 10]
Q1, Q2 = Fraction(1, 3), Fraction(1, 7)
SAMPLE = ((Fraction(3, 10), Fraction(0)), (Fraction(7, 10), Fraction(0)))


@pytest.mark.parametrize("r", RS_FRONTIER)
def test_eigenvalue_product_identity(benchmark, r):
    assert benchmark(batyrev.eigenvalue_product_identity, r)


@pytest.mark.parametrize("r", RS)
def test_ring_at_point(benchmark, r):
    benchmark(batyrev.ring_at_point, r, batyrev.gauss(Q1), batyrev.gauss(Q2))


@pytest.mark.parametrize("r", RS_FRONTIER)
def test_multiplication_matrices(benchmark, r):
    h, xi = benchmark(batyrev.multiplication_matrices, r, (Q1, 0), (Q2, 0))
    assert len(h) == len(xi) == (r + 1) * (r + 2)


@pytest.mark.parametrize("r", RS)
def test_matrices_commute_at(benchmark, r):
    def run():
        return batyrev.matrices_commute_at(*batyrev.multiplication_matrices(r, (Q1, 0), (Q2, 0)))

    assert benchmark(run)


@pytest.mark.parametrize("r", RS_FRONTIER)
def test_semisimplicity_certificate(benchmark, r):
    h_rows = batyrev.multiplication_matrices(r, *SAMPLE)[0]
    # a call that returns certifies the point; a failing one raises
    report = benchmark(batyrev.semisimplicity_certificate, r, *SAMPLE, h_rows)
    assert report["eigenvalues"] == (r + 1) * (r + 2)


@pytest.mark.parametrize("r", RS_FRONTIER)
def test_verify_eigen_relations(benchmark, r):
    report = benchmark(batyrev.verify_eigen_relations, r, 10)
    assert not report["failures"]
