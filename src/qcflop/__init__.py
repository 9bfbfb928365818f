"""qcflop: exact verification of quantum cohomology identities for local flop models.

The package is organized around exact arithmetic (no floating point except in
the one numeric eigenvalue certificate):

- ``qcflop.algebra``    -- cyclotomic numbers, rational functions in a root of
                           the Novikov variable, homogeneous values in the
                           equivariant weight, truncated fractional-exponent
                           series
- ``qcflop.cohomology`` -- the classical cohomology ring of the local model
- ``qcflop.batyrev``    -- the small quantum (Batyrev) ring and its spectrum
- ``qcflop.canonical``  -- canonical coordinates, the connection one-form,
                           the R-matrix and the genus-one potential
- ``qcflop.flopcheck``  -- analytic-continuation / flop-invariance identities
- ``qcflop.weyl``       -- the quadratic-hamiltonian quantization toy model
- ``qcflop.cli``        -- the ``qcflop`` command line front end
"""

__version__ = "0.1.0"
