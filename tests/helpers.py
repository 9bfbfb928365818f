"""Helpers that more than one test module reads: the product reference for
the symmetric functions the canonical frame writes in closed form, and the
perturbations of the Batyrev eigen formulas.  Not a test module, so pytest
collects nothing here.
"""

from qcflop import batyrev as bat
from qcflop.algebra import FracSeries, elementary_symmetric


def elementary_symmetric_omitting(values, omit, ring_one, es=None):
    """e_0..e_(n-1) of the n values with the one at index ``omit`` left out.

    They are the e_0..e_n of all the values (``es``, formed here when not
    given) divided by 1 + v t for the omitted v, so
    e_k(omitting v) = e_k - v e_(k-1)(omitting v), an exact division over any
    commutative ring.  The reference for ``canonical._sym_omitting``.
    """
    if not 0 <= omit < len(values):
        raise IndexError(f"omit index {omit} out of range")
    if es is None:
        es = elementary_symmetric(values, ring_one)
    v = values[omit]
    out = [es[0]]
    for e_k in es[1:-1]:
        out.append(e_k - v * out[-1])
    return out


def record_calls(monkeypatch, change=None):
    """eigen_formulas that records each (i, j) it is called for and, given
    ``change``, returns change(pair) instead of the pair."""
    real = bat.eigen_formulas
    calls = []

    def formulas(r, i, j, order):
        calls.append((i, j))
        pair = real(r, i, j, order)
        return pair if change is None else change(pair)

    monkeypatch.setattr(bat, "eigen_formulas", formulas)
    return calls


def corrupt_orbit(monkeypatch, orbit, which="h"):
    """eigen_formulas with eta^j q1^(3/(r+1)) q2^(1/(r+2)) added to h (or xi)
    at every pair (orbit, j), so the pairs stay eta^j times (orbit, 0);
    returns the list of the (i, j) it was called for."""
    def change(pair):
        if pair.i == orbit:
            r, order = pair.r, pair.h.trunc
            eta_j = pair.h.field.zeta(pair.j * (r + 1))
            extra = FracSeries.monomial(pair.h.field, r + 1, r + 2, order, 3, 1, eta_j)
            setattr(pair, which, getattr(pair, which) + extra)
        return pair

    return record_calls(monkeypatch, change)
