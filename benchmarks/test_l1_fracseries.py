"""L1 micro-benchmark: FracSeries product, scaling by a root of unity, and power.

    PYTHONPATH=src python -m pytest benchmarks/test_l1_fracseries.py --benchmark-only

The operands are the closed-form eigenvalue series of the batyrev suite over
Q(zeta_(r+1)(r+2)), at r = 3, 5, 8:

* ``test_orbit_product``: h_00 * h_10, the product of the h-eigenvalues of
  two orbits, at order 3(r+1) + 1.  That is the order at which
  ``eigenvalue_unit_product`` expands each h_ij when the product identity
  runs at its default order (r+5)(r+1), so the operands have the shape of
  the dense unit parts it multiplies.
* ``test_eta_scale``: h_10 and xi_10 times eta^j for j = 1..r+1, eta the
  root of unity of order r+2, at the suite's order 10; ``eigen_formulas``
  and ``verify_eigen_relations`` scale by these.
* ``test_difference_power``: (xi_10 - h_10)^(r+1) at order 10, the power in
  ``eigen_relation_residuals``.

Only the public batyrev and FracSeries API is used, so the file times any
version of the kernel.
"""

import pytest

from qcflop import batyrev

RS = [3, 5, 8]
ORDER = 10


@pytest.mark.parametrize("r", RS)
def test_orbit_product(benchmark, r):
    order = 3 * (r + 1) + 1
    a = batyrev.eigen_formulas(r, 0, 0, order).h
    b = batyrev.eigen_formulas(r, 1, 0, order).h
    assert not benchmark(lambda: a * b).is_zero()


@pytest.mark.parametrize("r", RS)
def test_eta_scale(benchmark, r):
    pair = batyrev.eigen_formulas(r, 1, 0, ORDER)
    eta = batyrev.eigen_field(r).zeta(r + 1)
    powers = [eta**j for j in range(1, r + 2)]
    benchmark(lambda: [(pair.h * c, pair.xi * c) for c in powers])


@pytest.mark.parametrize("r", RS)
def test_difference_power(benchmark, r):
    pair = batyrev.eigen_formulas(r, 1, 0, ORDER)
    diff = pair.xi - pair.h
    assert not benchmark(lambda: diff ** (r + 1)).is_zero()
