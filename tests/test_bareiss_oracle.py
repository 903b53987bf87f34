"""
`polyring._echelon` skips every product with a zero factor and the division
by a previous pivot of 1. Both skips are exact, so the elimination must
leave the matrix, the pivots and the sign of `bareiss_oracle.echelon`, the
loop that forms every entry, and `solve_linear` and `determinant` must give
what they give on that loop.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from grhecke import center, polyring
from grhecke.errors import SingularSystemError
from grhecke.polyring import IntPoly, determinant, solve_linear

from bareiss_oracle import echelon

ZERO, ONE, X = IntPoly(), IntPoly.const(1), IntPoly.xi()

small = st.lists(st.integers(-3, 3), max_size=3).map(IntPoly)
# mostly zeros, as in the block-triangular level matrices
entries = st.one_of(st.just(ZERO), st.just(ZERO), st.just(IntPoly.const(1)), small)


@st.composite
def systems(draw):
    """A sparse A over Z[x] with zero rows and columns, and 1 to 3 right-hand sides."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    A = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, 5), max_size=2)):
        if r < nrows:
            A[r] = [ZERO] * ncols
    for c in draw(st.sets(st.integers(0, 5), max_size=2)):
        if c < ncols:
            for row in A:
                row[c] = ZERO
    if nrows >= 3 and draw(st.booleans()):
        # rank-deficient: one row a Z[x]-combination of two others
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        a, b = draw(small), draw(small)
        A[k] = [a * u + b * v for u, v in zip(A[i], A[j])]
    columns = [[draw(entries) for _ in range(nrows)] for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        # consistent: A times an integer vector
        x = [draw(small) for _ in range(ncols)]
        columns[0] = [sum((u * v for u, v in zip(row, x)), ZERO) for row in A]
    return A, columns


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularSystemError as exc:
        return "singular", exc.rank, str(exc)


def by_oracle(fn, *args):
    with patch.object(polyring, "_echelon", echelon):
        return outcome(fn, *args)


def assert_same_elimination(A, columns):
    ncols = len(A[0]) if A else 0
    got = [list(row) + [b[r] for b in columns] for r, row in enumerate(A)]
    want = [list(row) for row in got]
    assert polyring._echelon(got, ncols) == echelon(want, ncols)
    assert got == want
    assert outcome(solve_linear, A, columns) == by_oracle(solve_linear, A, columns)
    m = min(len(A), ncols)
    square = [row[:m] for row in A[:m]]
    assert outcome(determinant, square) == by_oracle(determinant, square)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_elimination_matches_the_oracle(system):
    assert_same_elimination(*system)


# (A, columns, whether every column is consistent)
CASES = {
    "zero row and column": ([[ONE, ZERO, X], [ZERO, ZERO, ZERO], [X, ZERO, ONE]], [[ONE, ZERO, X]], True),
    "rank-deficient": ([[ONE, X], [X, X * X]], [[ONE, X]], True),
    "inconsistent": ([[ONE, X], [X, X * X]], [[ONE, ONE]], False),
    "several right-hand sides": ([[X, ONE], [ONE, X]], [[ONE, ZERO], [ZERO, ONE], [X, X]], True),
}


@pytest.mark.parametrize("name", CASES)
def test_each_kind_of_system(name):
    A, columns, consistent = CASES[name]
    assert_same_elimination(A, columns)
    result = outcome(solve_linear, A, columns)
    if consistent:
        ys, d = result
        assert len(ys) == len(columns) and d
    else:
        assert result == ("singular", 1, "inconsistent linear system (rank 1)")


@pytest.mark.parametrize("n", range(1, 8))
def test_every_level_matrix_of_the_basis(n, monkeypatch, fresh_memos):
    seen = []
    solve = center.solve_linear
    monkeypatch.setattr(center, "solve_linear",
                        lambda A, columns: seen.append((A, columns)) or solve(A, columns))
    center.gamma_basis(n, 4)
    assert len(seen) == min(4, n - 1) + 1
    for A, columns in seen:
        assert_same_elimination(A, columns)
