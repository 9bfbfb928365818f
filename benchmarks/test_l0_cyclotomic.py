"""L0 micro-benchmark: CycNumber mul, add and inverse.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

Each benchmark call applies one operation to the same 16 fixed-seed operand
pairs, so a per-operation time is the reported time divided by 16.  Order 1
is the rational base field Q, order 10 the degree-4 field of the appendix
suite at r = 4 and order 14 the degree-6 field of genus_one_form(6).  Only the
public CycField/CycNumber API is used, so the file times any version of the
kernel.
"""

import random
from fractions import Fraction

import pytest

from qcflop.algebra import CycField

ORDERS = [1, 10, 14]
PAIRS = 16
SEED = 20260


def operands(order: int) -> list[tuple]:
    field = CycField(order)
    rng = random.Random(SEED + order)

    def element():
        return field.element(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(field.degree))

    pairs = []
    while len(pairs) < PAIRS:
        a, b = element(), element()
        if not b.is_zero():
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("order", ORDERS)
def test_mul(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [a * b for a, b in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_add(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [a + b for a, b in pairs])


@pytest.mark.parametrize("order", ORDERS)
def test_inverse(benchmark, order):
    pairs = operands(order)
    benchmark(lambda: [b.inverse() for _, b in pairs])
