"""Deterministic JSON-friendly serialization of the exact value types."""

from __future__ import annotations

from fractions import Fraction

from qcflop.algebra import RatFunc


def fraction_str(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def ratfunc_q_to_json(f: RatFunc) -> dict:
    """Compact form for rational functions of q with rational coefficients."""
    def side(poly):
        return [fraction_str(c.as_rational()) for c in poly.coeffs]
    return {"num": side(f.num), "den": side(f.den)}
