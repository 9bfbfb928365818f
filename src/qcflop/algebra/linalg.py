"""Exact linear algebra over a field: one sparse Gauss-Jordan elimination.

The scalars may be Fractions, ``CycNumber``s or ``RatFunc``s, anything with
+, -, *, / and ==.  Zero is tested one way, ``x == zero`` with
``zero = one - one``.  A row is a dict {column: nonzero entry}, and a row
update touches only the columns where the pivot row is nonzero, so the work
follows the fill of the matrix rather than its square.

There is one matrix format, a list of such sparse rows, and one elimination,
``row_reduce``, whose pivot columns give the rank.  ``det`` reads its scale;
a caller that solves for several right-hand sides augments the rows with all
of them and reduces once.

The sparse exact values (cohomology classes, Fock operators, continuation-ring
elements) are term maps {key: nonzero coefficient}, built by four
operations: ``add_term`` accumulates one term into a map in place, and
``add_terms`` (sum or difference), ``mul_terms`` (keys are exponent tuples,
added componentwise) and ``scale_terms`` return new maps.  Their one zero
rule: a coefficient is zero when its truth value is false, which ``Fraction``,
``CycNumber`` and ``RatFunc`` make exactly at zero, and a zero drops its key.
"""

from __future__ import annotations

from operator import add


def add_term(target: dict, key, value) -> None:
    """target[key] += value, dropping the key when the sum is zero, so a
    sparse row built by it holds nonzero entries only.  The values need
    ``+`` and a truth value that is false exactly at zero."""
    cur = target.get(key)
    new = value if cur is None else cur + value
    if new:
        target[key] = new
    else:
        target.pop(key, None)


def add_terms(p: dict, q: dict, sign: int = 1) -> dict:
    """The term map p + q, or p - q for sign = -1."""
    out = dict(p)
    for key, c in q.items():
        add_term(out, key, -c if sign < 0 else c)
    return out


def mul_terms(p: dict, q: dict) -> dict:
    """p * q for term maps keyed by exponent tuples, added componentwise."""
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            add_term(out, tuple(map(add, k1, k2)), c1 * c2)
    return out


def scale_terms(p: dict, c) -> dict:
    """c times the term map p."""
    return {key: w for key, v in p.items() if (w := v * c)}


def row_reduce(rows: list[dict], one, ncols: int) -> tuple[list[int], object]:
    """Gauss-Jordan elimination of sparse rows in place, pivoting in columns
    < ncols; returns (pivot columns, scale).

    Afterwards row k carries a one in column pivots[k] and a zero in every
    other pivot column, and the rows past len(pivots) are zero in the columns
    below ``ncols``.  Columns from ``ncols`` on (an augmented part) are
    carried along but never pivoted on.  ``scale`` is the product of the
    pivots, sign-corrected for row swaps: the determinant when the matrix is
    square and regular.
    """
    zero = one - one
    pivots: list[int] = []
    scale = one
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if col in rows[i]), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            scale = zero - scale
        lead = rows[k].pop(col)
        scale = scale * lead
        inv = one / lead
        rest = [(c, v * inv) for c, v in rows[k].items()]
        rows[k] = dict(rest)
        rows[k][col] = one
        for i, row in enumerate(rows):
            f = row.pop(col, None) if i != k else None
            if f is None:
                continue
            neg = zero - f
            for c, v in rest:
                term = neg * v
                cur = row.get(c)
                if cur is None:
                    row[c] = term
                else:
                    cur = cur + term
                    if cur == zero:
                        del row[c]
                    else:
                        row[c] = cur
        pivots.append(col)
    return pivots, scale


def det(rows: list[dict], one):
    """Determinant of the square matrix given by its sparse rows."""
    n = len(rows)
    pivots, scale = row_reduce([dict(row) for row in rows], one, n)
    return scale if len(pivots) == n else one - one
