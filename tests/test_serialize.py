"""Tests for the JSON-friendly serialization helpers."""

from fractions import Fraction

from qcflop.algebra import CycField, RatFunc
from qcflop.serialize import fraction_str, ratfunc_q_to_json


def test_fraction_round_trip():
    for x in (Fraction(3, 4), Fraction(-5), Fraction(0), Fraction(22, 7)):
        assert Fraction(fraction_str(x)) == x
    assert fraction_str(Fraction(3, 4)) == "3/4"
    assert fraction_str(5) == "5/1"


def test_ratfunc_serialization():
    Q = CycField(1)
    f = RatFunc.monomial(Q, 1, 1) / (RatFunc.one(Q, 1) - RatFunc.monomial(Q, 1, 1))
    compact = ratfunc_q_to_json(f)
    assert compact == {"num": ["0/1", "-1/1"], "den": ["-1/1", "1/1"]}
