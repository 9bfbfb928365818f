"""Square-and-multiply powers for the exact value types."""

from __future__ import annotations

import operator


def binary_power(base, n: int, one, mul=operator.mul):
    """base ** n for n >= 0 by square-and-multiply under the product ``mul``.

    Scans the bits of n from the lowest.  The first set bit takes the current
    square as the result instead of multiplying it into ``one``, and the loop
    stops after the top bit, so no square is formed that the result never
    uses.  ``one`` is returned only for n == 0, and ``base`` itself for n == 1,
    so a caller must not change the result in place.
    """
    if n < 0:
        raise ValueError("binary_power needs a nonnegative exponent")
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)
