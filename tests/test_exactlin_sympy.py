"""Differential tests of the elimination kernel against sympy.

Every rank, nullspace, reduced echelon form and rational solve in
``exactlin`` runs on the one fraction-free kernel; sympy's exact
rational matrices are the independent reference.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from verolink.exactlin import (IntMatrix, RatMatrix, rational_nullspace,  # noqa: E402
                               rational_rank, rational_rref, solve_rational)

SEEDS = range(30)


def random_matrix(rng, rows, cols, fractional, rank=None):
    """Random IntMatrix, or RatMatrix when fractional; rank-capped if asked.

    A rank cap r builds the matrix as a (rows x r)(r x cols) product, so
    most such matrices are rank deficient.
    """
    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.randint(-5, 5)
        return Fraction(num, rng.randint(1, 4)) if fractional else num

    def block(r, c):
        data = [[entry() for _ in range(c)] for _ in range(r)]
        return RatMatrix(data, cols=c) if fractional else IntMatrix(data, cols=c)

    if rank is None:
        return block(rows, cols)
    return block(rows, rank).mul(block(rank, cols))


def shaped_matrix(seed, fractional):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    rank = rng.choice([None, rng.randint(1, min(rows, cols))])
    return random_matrix(rng, rows, cols, fractional, rank)


def to_sympy(M):
    return sympy.Matrix(M.rows, M.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in M.data for x in row])


def to_fractions(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)]
            for i in range(S.rows)]


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_sympy(seed, fractional):
    M = shaped_matrix(seed, fractional)
    rows, pivots = rational_rref(M)
    expected, expected_pivots = to_sympy(M).rref()
    assert pivots == list(expected_pivots)
    assert rows == to_fractions(expected)


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rank_matches_sympy(seed, fractional):
    M = shaped_matrix(seed, fractional)
    assert rational_rank(M) == to_sympy(M).rank()


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_is_a_kernel_basis(seed, fractional):
    M = shaped_matrix(seed, fractional)
    N = rational_nullspace(M)
    rank = to_sympy(M).rank()
    assert N.rows == M.cols
    assert N.cols == M.cols - rank
    if N.cols:
        assert (to_sympy(M) * to_sympy(N)).is_zero_matrix
        assert to_sympy(N).rank() == N.cols


def full_column_rank(rng, fractional):
    while True:
        k = rng.randint(1, 5)
        A = random_matrix(rng, rng.randint(k, 7), k, fractional)
        if to_sympy(A).rank() == k:
            return A


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_sympy(seed, fractional):
    rng = random.Random(1000 + seed)
    A = full_column_rank(rng, fractional)
    X = random_matrix(rng, A.cols, rng.randint(1, 3), fractional)
    B = A.mul(X)
    solved = solve_rational(A, B)
    expected = to_sympy(A).solve(to_sympy(B))
    assert to_fractions(to_sympy(solved)) == to_fractions(expected)
    assert solved == RatMatrix(X.data, cols=X.cols)


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_solve_refuses_a_rank_deficient_system(seed, fractional):
    rng = random.Random(2000 + seed)
    k = rng.randint(2, 5)
    A = random_matrix(rng, rng.randint(k + 1, 7), k, fractional,
                      rank=rng.randint(1, k - 1))
    # A wide B makes the system inconsistent too, with more pivots than A
    # has columns; the rank deficiency is still the error reported.
    B = random_matrix(rng, A.rows, k + 1, fractional)
    assert to_sympy(A.hstack(B)).rank() > k
    with pytest.raises(ValueError, match="rank deficient"):
        solve_rational(A, B)
    with pytest.raises(ValueError, match="rank deficient"):
        solve_rational(A, A.mul(random_matrix(rng, k, 1, fractional)))


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_solve_refuses_an_inconsistent_system(seed, fractional):
    rng = random.Random(3000 + seed)
    while True:
        A = full_column_rank(rng, fractional)
        B = random_matrix(rng, A.rows, 1, fractional)
        if to_sympy(A.hstack(B)).rank() > A.cols:
            break
    with pytest.raises(ValueError, match="inconsistent system"):
        solve_rational(A, B)
