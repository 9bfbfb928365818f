"""Negative controls: each registered anchor fails under a perturbation of one
formula, and its failing row names what it compared.

The registry maps an anchor to (perturbation, suite, r, residual).  The
perturbation monkeypatches one formula that the anchor reads; ``cli.main``
must then exit 1, with that anchor failing and the residual given.  The
quantization suite does not depend on r, so its entries carry r = None.
"""

import json
from fractions import Fraction
from math import comb

import pytest

from qcflop import cli, weyl
from qcflop import cohomology as coh
from qcflop import flopcheck as fc
from qcflop.algebra.linalg import add_term, mul_terms


def wrong_sign_in_the_second_bundle(monkeypatch):
    # (1 + x - h)^(r+1) read as (1 + x + h)^(r+1): c_1 gains 2(r+1) h
    def total_chern_raw(r):
        one_h = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        one_x = {(0, 0): Fraction(1), (0, 1): Fraction(1)}
        one_x_plus_h = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1)}
        return mul_terms(coh.raw_pow(one_h, r + 1),
                         mul_terms(one_x, coh.raw_pow(one_x_plus_h, r + 1)))

    monkeypatch.setattr(coh, "total_chern_raw", total_chern_raw)


def genus_one_degree_zero_without_its_sign(monkeypatch):
    # +(1/24) (c_(2r) . alpha) in place of -(1/24) (c_(2r) . alpha)
    monkeypatch.setattr(coh, "genus1_degree0", lambda r, alpha: Fraction(1, 24) * coh.integrate(
        coh.chern_class(r, 2 * r) * alpha))


def substitute_h_by_x_plus_h(monkeypatch):
    # h^a x^b goes to (x + h)^a x^b.  The identity substitution would not
    # fail the anchor: integrating the reduced form already gives -18 twice
    def substitute(p):
        out = {}
        for (a, b), c in p.items():
            for k in range(a + 1):
                add_term(out, (k, a - k + b), c * comb(a, k))
        return out

    monkeypatch.setattr(coh, "substitute_h_by_x_minus_h", substitute)


def darboux_p_without_its_sign(monkeypatch):
    # p^i_k -> (-1)^k T_i z^(-k-1): every p q term of a hamiltonian flips sign
    original = weyl.darboux_vector

    def darboux_vector(dim, cutoff, kind, var):
        vec = original(dim, cutoff, kind, var)
        return vec.scale(-1) if kind == "p" else vec

    monkeypatch.setattr(weyl, "darboux_vector", darboux_vector)


def commutator_reversed(monkeypatch):
    # [A1, A2] read as [A2, A1], so P([A1, A2]) is minus the bracket
    original = weyl.EndoLaurent.commutator
    monkeypatch.setattr(weyl.EndoLaurent, "commutator", lambda a, b: original(b, a))


def dilaton_shift_in_mode_zero(monkeypatch):
    # the shift lands on q^0_0 instead of q^0_1
    def dilaton_shift(coords, cutoff):
        out = {k: Fraction(v) for k, v in coords.items()}
        add_term(out, (0, 0), Fraction(1))
        return out

    monkeypatch.setattr(weyl, "dilaton_shift", dilaton_shift)


def flop_transform_without_the_sign_of_g(monkeypatch):
    # G -> (-1)^r + G in place of (-1)^r - G, which is not an involution
    def flop_transform(x):
        out = {}
        for (el, eg, k), c in x.terms.items():
            for j in range(k + 1):
                add_term(out, (eg - el, eg, j), c * comb(k, j) * (-1) ** (x.r * (k - j)))
        return fc.RingRElement(x.r, out)

    monkeypatch.setattr(fc, "flop_transform", flop_transform)


CONTROLS = {
    "cohomology/first-chern-fiber-class": (
        wrong_sign_in_the_second_bundle, "cohomology", 2, "c_1 = 4*x + 6*h, not 4*x"),
    "cohomology/genus-one-degree-zero": (
        genus_one_degree_zero_without_its_sign, "cohomology", 2, "-1/8"),
    "cohomology/threefold-chern-number": (
        substitute_h_by_x_plus_h, "cohomology", 1, "-18 vs -14"),
    "quantization/string-hamiltonian": (
        darboux_p_without_its_sign, "quantization", None,
        "P(1/z) is not the string hamiltonian: first failing term (((0, 0),), ((0, 1),)):"
        " got 1, want -1"),
    "quantization/hamiltonian-lie-homomorphism": (
        commutator_reversed, "quantization", None,
        "first failing (exp1, exp2) = (-1, -1): P([A1, A2]) is not {P(A1), P(A2)}"),
    "quantization/dilaton-shift": (
        dilaton_shift_in_mode_zero, "quantization", None,
        "the shift of the origin is not t^0_1 = 1"),
    "flop/transform-involution": (
        flop_transform_without_the_sign_of_g, "flop", 2,
        "F(F(x)) is not x: first failing term (0, 2, 0): got -1, want 0"),
}


def verify(suite, r, capsys):
    """The exit code and the entries, by anchor, of one serial verify run."""
    args = ["verify", suite, "--format", "json", "--jobs", "1"]
    code = cli.main(args + (["--r", str(r)] if r is not None else []))
    entries = json.loads(capsys.readouterr().out)["entries"]
    return code, {e["anchor"]: e for e in entries}


@pytest.mark.parametrize("anchor", sorted(CONTROLS))
def test_the_anchor_passes_unperturbed(capsys, anchor):
    _, suite, r, _ = CONTROLS[anchor]
    code, entries = verify(suite, r, capsys)
    assert code == 0 and entries[anchor]["status"] == "pass"


@pytest.mark.parametrize("anchor", sorted(CONTROLS))
def test_one_perturbed_formula_fails_the_anchor(capsys, monkeypatch, anchor):
    perturb, suite, r, residual = CONTROLS[anchor]
    perturb(monkeypatch)
    code, entries = verify(suite, r, capsys)
    assert code == 1
    assert entries[anchor]["status"] == "fail"
    assert entries[anchor]["residual"] == residual


def test_an_unshift_that_does_not_undo_the_shift_fails_the_dilaton_anchor(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "dilaton_unshift", lambda coords: dict(coords))
    code, entries = verify("quantization", None, capsys)
    assert code == 1
    assert entries["quantization/dilaton-shift"]["residual"] == (
        "the unshift of the shift is not the origin")
