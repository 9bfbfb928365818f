"""L1 micro-benchmark: Poly product, divmod and gcd, and RatFunc mul, add, div,
series_expand, delta and subs_reciprocal.

    PYTHONPATH=src python -m pytest benchmarks/test_l1_ratfunc.py --benchmark-only

Each benchmark call applies one operation to the same 8 fixed-seed operand
pairs, so a per-operation time is the reported time divided by 8.  The
operands are shaped like those of the canonical-coordinate pipeline: a
denominator is w^k times split factors (w +- xi^i), xi = zeta_N, and a
numerator is w^j times a small random polynomial, sometimes with one of those
factors, so that products and sums have something to cancel.  ``test_gcd``
takes the gcd of a full unreduced product (num_f num_g, den_f den_g), the
shape a reduction meets.  ``test_poly_mul`` multiplies the cross products
num_f den_g and num_g den_f of a sum, and ``test_poly_divmod`` divides
num_f num_g den_f by den_g times the non-rational scalar zeta + 2 (2 + 1 = 3
at order 1), so the divisor is not monic and a remainder is left.  The three
one-operand rows take the first function f of each pair: ``test_delta`` and
``test_subs_reciprocal`` apply the operation to f, and ``test_series_expand``
expands f times the power of w that clears its pole at 0 through w^30, the
order of the flop suite.  Order 1 is the rational base field Q, order 10 the
field of the appendix suite at r = 4 and order 14 that of genus_one_form(6).
Only the public Poly/RatFunc API is used, so the file times any version of
the kernel.
"""

import random
from fractions import Fraction

import pytest

from qcflop.algebra import CycField, Poly, RatFunc

ORDERS = [1, 10, 14]
PAIRS = 8
SEED = 20261
SERIES = 30


def operands(order: int) -> list[tuple[RatFunc, RatFunc]]:
    field = CycField(order)
    rng = random.Random(SEED + order)
    pool = [Poly(field, [s * field.zeta(i), 1]) for i in range(order) for s in (1, -1)]

    def scalar():
        return field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree))

    def numerator():
        p = Poly(field, [scalar() for _ in range(rng.randint(1, 4))])
        if p.is_zero():
            p = Poly.one(field)
        p = p * Poly.monomial(field, rng.randint(0, 2))
        return p * rng.choice(pool) if rng.random() < 0.5 else p

    def denominator():
        p = Poly.monomial(field, rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            p = p * rng.choice(pool)
        return p

    def ratfunc():
        return RatFunc(field, 1, numerator(), denominator())

    return [(ratfunc(), ratfunc()) for _ in range(PAIRS)]


@pytest.mark.parametrize("order", ORDERS)
def test_gcd(benchmark, order):
    pairs = [(f.num * g.num, f.den * g.den) for f, g in operands(order)]
    benchmark(lambda: [a.gcd(b) for a, b in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_mul(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [f * g for f, g in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_add(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [f + g for f, g in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_div(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [f / g for f, g in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_poly_mul(benchmark, order):
    pairs = [(f.num * g.den, g.num * f.den) for f, g in operands(order)]
    benchmark(lambda: [a * b for a, b in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_poly_divmod(benchmark, order):
    field = CycField(order)
    lead = field.zeta() + 2
    pairs = [(f.num * g.num * f.den, g.den * lead) for f, g in operands(order)]
    benchmark(lambda: [a.divmod(b) for a, b in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_series_expand(benchmark, order):
    fs = []
    for f, _ in operands(order):
        v = next(k for k, c in enumerate(f.den.coeffs) if not c.is_zero())
        fs.append(f * RatFunc.monomial(f.field, 1, v))
    benchmark(lambda: [f.series_expand(SERIES) for f in fs])


@pytest.mark.parametrize("order", ORDERS)
def test_delta(benchmark, order):
    fs = [f for f, _ in operands(order)]
    benchmark(lambda: [f.delta() for f in fs])


@pytest.mark.parametrize("order", ORDERS)
def test_subs_reciprocal(benchmark, order):
    fs = [f for f, _ in operands(order)]
    benchmark(lambda: [f.subs_reciprocal() for f in fs])
