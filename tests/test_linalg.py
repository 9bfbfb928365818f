"""Tests for the sparse exact elimination and the sparse accumulation."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop import batyrev as bat
from qcflop.algebra import linalg


def sparse(matrix):
    """The rows of a dense matrix as {column: nonzero entry}."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def leibniz_det(matrix):
    """Reference determinant: the signed sum over all permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


# small integers and a few fractions; zeros are common, so singular
# matrices (repeated or zero rows) turn up often
entries = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # force a singular matrix: one row a multiple of another
        i, j = draw(st.sampled_from([(a, b) for a in range(n) for b in range(n) if a != b]))
        rows[i] = [c * draw(entries) for c in rows[j]]
    return rows


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_matches_leibniz(matrix):
    rows = sparse(matrix)
    assert linalg.det(rows, Fraction(1)) == leibniz_det(matrix)
    assert rows == sparse(matrix)  # the argument is left as it was


def inverse(rows, one):
    """The rows of M^-1, each as {column: nonzero entry}, for the square
    matrix M given by its rows in the same form: one elimination of M
    augmented with the identity.  Raises ZeroDivisionError when M is
    singular."""
    n = len(rows)
    rows = [dict(row) for row in rows]
    for i, row in enumerate(rows):
        row[n + i] = one
    pivots, _ = linalg.row_reduce(rows, one, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [{c - n: v for c, v in row.items() if c >= n} for row in rows]


def embedding_rows(ring):
    """The embedding matrix as sparse rows, one per (h, y)-monomial."""
    return [{k: vec[mono] for k, vec in enumerate(ring._embed) if mono in vec}
            for mono in ring.basis]


def assert_left_inverse(inv_rows, rows, one):
    zero = one - one
    n = len(rows)
    for i in range(n):
        for j in range(n):
            acc = zero
            for k, c in inv_rows[i].items():
                acc = acc + c * rows[k].get(j, zero)
            assert acc == (one if i == j else zero)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_inverse_of_embedding_over_gaussian_rationals(r):
    ring = bat.ring_at_point(r, bat.gauss(Fraction(1, 3), Fraction(1, 2)),
                             bat.gauss(Fraction(-2, 5)))
    rows = embedding_rows(ring)
    inv = inverse(rows, bat.GAUSS.one)
    assert_left_inverse(inv, rows, bat.GAUSS.one)
    assert not any(c.is_zero() for row in inv for c in row.values())


def test_inverse_of_embedding_over_rational_functions():
    one = bat.q1_field_one()
    ring = bat.QuantumRing(2, bat.q1_symbol(), one * Fraction(2, 3), one)
    rows = embedding_rows(ring)
    inv = inverse(rows, one)
    assert_left_inverse(inv, rows, one)
    assert not any(c.is_zero() for row in inv for c in row.values())


def test_inverse_of_singular_matrix_raises():
    matrix = [[Fraction(1), Fraction(2), Fraction(0)],
              [Fraction(2), Fraction(4), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(1)]]
    with pytest.raises(ZeroDivisionError):
        inverse(sparse(matrix), Fraction(1))
    assert linalg.det(sparse(matrix), Fraction(1)) == 0


def test_row_reduce_of_a_deficient_augmented_matrix():
    # the third column is the sum of the first two: rank 2 of 3, and the
    # augmented column 3 is carried along, never pivoted on
    matrix = [[Fraction(1), Fraction(0), Fraction(1), Fraction(3)],
              [Fraction(0), Fraction(1), Fraction(1), Fraction(5)],
              [Fraction(1), Fraction(1), Fraction(2), Fraction(8)],
              [Fraction(2), Fraction(-1), Fraction(1), Fraction(1)]]
    rows = sparse(matrix)
    pivots, _ = linalg.row_reduce(rows, Fraction(1), 3)
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: 1, 3: 3}, {1: 1, 2: 1, 3: 5}, {}, {}]


def test_add_term_drops_cancelled_entries():
    acc = {}
    linalg.add_term(acc, "a", Fraction(1, 2))
    linalg.add_term(acc, "b", Fraction(2))
    linalg.add_term(acc, "a", Fraction(-1, 2))
    assert acc == {"b": Fraction(2)}
    linalg.add_term(acc, "c", Fraction(0))
    assert acc == {"b": Fraction(2)}


def term_maps(arity):
    """Term maps with exponent tuples of the given length as keys."""
    keys = st.tuples(*[st.integers(-2, 3)] * arity)
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return st.dictionaries(keys, values, max_size=5)


def reference_product(p, q):
    """The product by a double loop that spells out each key sum."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


@settings(max_examples=40, deadline=None)
@given(term_maps(2), term_maps(2), st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_a_map_minus_itself_and_a_map_times_zero_are_empty(p, q, c):
    before = (dict(p), dict(q))
    assert linalg.add_terms(p, linalg.scale_terms(p, -1)) == {}
    assert linalg.add_terms(p, p, sign=-1) == {}
    assert linalg.scale_terms(p, 0) == {}
    total = linalg.add_terms(p, q)
    assert linalg.add_terms(total, q, sign=-1) == p
    assert all(linalg.scale_terms(p, c).values()) and all(total.values())
    linalg.mul_terms(p, q)
    assert (p, q) == before


@pytest.mark.parametrize("arity", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_terms_matches_the_double_loop(arity, data):
    p, q = data.draw(term_maps(arity)), data.draw(term_maps(arity))
    before = (dict(p), dict(q))
    assert linalg.mul_terms(p, q) == reference_product(p, q)
    assert (p, q) == before
