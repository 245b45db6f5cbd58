"""Differential tests of the elimination kernel and the integer normal
forms against sympy.

Every rank, nullspace, reduced echelon form and rational solve in
``exactlin`` runs on the one Euclidean echelon pass, ``_echelon``;
sympy's exact rational matrices are the independent reference.  A
Fraction matrix enters ``exactlin`` as the IntMatrix of its rows cleared
of denominators, which has the same row space, and so the same rank,
reduced echelon form and nullspace, and sympy gets the Fraction matrix
itself.  Hermite and Smith forms are checked
against ``sympy.matrices.normalforms``.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from test_exactlin import check_snf, nonzero_diagonal  # noqa: E402
from test_verify import TORSION_COUNTS  # noqa: E402
from verolink.exactlin import (IntMatrix, clear_denominators,  # noqa: E402
                               hermite_normal_form, rational_nullspace,
                               rational_rank, rational_rref,
                               smith_normal_form, solve_rational)
from verolink.ideals import generator_lattice, higher_veronese_gens  # noqa: E402
from verolink.verify import higher_torsion  # noqa: E402

SEEDS = range(30)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def random_rows(rng, rows, cols, fractional, rank=None):
    """Random rows of ints, or of Fractions when fractional; rank-capped
    if asked.

    A rank cap r builds the matrix as a (rows x r)(r x cols) product, so
    most such matrices are rank deficient.
    """
    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.randint(-5, 5)
        return Fraction(num, rng.randint(1, 4)) if fractional else num

    def block(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    if rank is None:
        return block(rows, cols)
    return matmul(block(rows, rank), block(rank, cols))


def cleared(rows):
    """The IntMatrix of the rows, each cleared of denominators."""
    return IntMatrix([clear_denominators(row) for row in rows])


def cleared_system(A, B):
    """``[A | B]`` cleared row by row and split again: the same solutions."""
    k = len(A[0])
    rows = [clear_denominators(a + b) for a, b in zip(A, B)]
    return (IntMatrix([row[:k] for row in rows], cols=k),
            IntMatrix([row[k:] for row in rows], cols=len(B[0])))


def shaped_rows(seed, fractional):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    rank = rng.choice([None, rng.randint(1, min(rows, cols))])
    return random_rows(rng, rows, cols, fractional, rank)


def to_sympy(rows):
    return sympy.Matrix(len(rows), len(rows[0]),
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in row])


def to_fractions(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)]
            for i in range(S.rows)]


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_sympy(seed, fractional):
    data = shaped_rows(seed, fractional)
    rows, pivots = rational_rref(cleared(data))
    expected, expected_pivots = to_sympy(data).rref()
    assert pivots == list(expected_pivots)
    assert rows == to_fractions(expected)


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rank_matches_sympy(seed, fractional):
    data = shaped_rows(seed, fractional)
    assert rational_rank(cleared(data)) == to_sympy(data).rank()


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_is_a_kernel_basis(seed, fractional):
    data = shaped_rows(seed, fractional)
    M = cleared(data)
    N = rational_nullspace(M)
    rank = to_sympy(data).rank()
    assert N.rows == M.cols
    assert N.cols == M.cols - rank
    if N.cols:
        assert (to_sympy(data) * to_sympy(N.data)).is_zero_matrix
        assert to_sympy(N.data).rank() == N.cols


def check_rank_rref_nullspace(M):
    """Rank, reduced echelon form and nullspace of M all equal sympy's.

    sympy's nullspace vectors have a 1 at each free column and minus
    that column of the reduced form at the pivots; ours are those
    vectors cleared of denominators."""
    S = to_sympy(M.data)
    rows, pivots = rational_rref(M)
    expected, expected_pivots = S.rref()
    assert pivots == list(expected_pivots)
    assert rows == to_fractions(expected)
    assert rational_rank(M) == len(expected_pivots)
    N = rational_nullspace(M)
    assert [list(c) for c in N.columns()] == [
        clear_denominators([Fraction(int(x.p), int(x.q)) for x in v])
        for v in S.nullspace()]


def walsh_sign(s, g):
    return -1 if (s & g).bit_count() & 1 else 1


@pytest.mark.parametrize("k, dropped", [(k, s) for k in range(2, 6)
                                        for s in range(1 << k)])
def test_walsh_rows_with_one_row_dropped(k, dropped):
    # The +-1 character matrices of laurent-check and of the target-rank
    # formula in verify._character_rank.
    size = 1 << k
    check_rank_rref_nullspace(IntMatrix(
        [[walsh_sign(s, g) for g in range(size)]
         for s in range(size) if s != dropped], cols=size))


@pytest.mark.parametrize("k, s_star", [(k, s) for k in range(1, 6)
                                       for s in range(1 << k)])
def test_rank_one_translate_matrices(k, s_star):
    # The translates of prod_i (1 + chi(t_i) t_i) in the group algebra
    # of (Z/2)^k, as group_algebra_subintersection builds them.
    size = 1 << k
    q = [1] + [0] * (size - 1)
    for i in range(k):
        e = 1 << i
        q = [q[g] + walsh_sign(s_star, e) * q[g ^ e] for g in range(size)]
    M = IntMatrix([[q[g ^ h] for h in range(size)] for g in range(size)],
                  cols=size)
    assert rational_rank(M) == 1
    check_rank_rref_nullspace(M)


def large_entry_matrix(seed):
    """Integer matrix up to 8x8: entries up to +-10^6, or Vandermonde
    rows of small, sometimes repeated, nodes.

    Both make the Euclidean steps below a pivot run longest."""
    rng = random.Random(6000 + seed)
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    if seed % 4 == 3:
        nodes = [rng.randint(-9, 9) for _ in range(rows)]
        return IntMatrix([[x ** j for j in range(cols)] for x in nodes], cols=cols)
    if seed % 4 == 1:
        # A product through a narrower middle has lower rank.
        mid = rng.randint(1, min(rows, cols))
        left = IntMatrix([[rng.randint(-300, 300) for _ in range(mid)]
                          for _ in range(rows)], cols=mid)
        right = IntMatrix([[rng.randint(-300, 300) for _ in range(cols)]
                           for _ in range(mid)], cols=cols)
        return left.mul(right)
    return IntMatrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(cols)]
                      for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("seed", range(20))
def test_large_entries_and_vandermonde_rows(seed):
    check_rank_rref_nullspace(large_entry_matrix(seed))


def product_operands(seed):
    """IntMatrix operands of a product, shapes 0..5 so that empty rows,
    columns and inner dimensions all occur, entries up to +-10^6."""
    rng = random.Random(7000 + seed)
    rows, inner, cols = (rng.randint(0, 5) for _ in range(3))

    def entries(r, c):
        return [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(c)]
                for _ in range(r)]

    return (IntMatrix(entries(rows, inner), cols=inner),
            IntMatrix(entries(inner, cols), cols=cols),
            [rng.randint(-10 ** 6, 10 ** 6) for _ in range(inner)])


def sympy_of(M):
    return sympy.Matrix(M.rows, M.cols, [x for row in M.data for x in row])


@pytest.mark.parametrize("seed", range(60))
def test_products_match_sympy(seed):
    A, B, v = product_operands(seed)
    AB = A.mul(B)
    assert (AB.rows, AB.cols) == (A.rows, B.cols)
    assert sympy_of(AB) == sympy_of(A) * sympy_of(B)
    assert A @ B == AB
    Av = A.mul_vector(v)
    assert type(Av) is tuple
    assert sympy.Matrix(len(Av), 1, list(Av)) == (
        sympy_of(A) * sympy.Matrix(len(v), 1, v))


def test_product_seeds_cover_every_empty_dimension():
    shapes = [(A.rows, A.cols, B.cols)
              for A, B, _ in map(product_operands, range(60))]
    for i in range(3):
        assert any(shape[i] == 0 for shape in shapes)


@pytest.mark.parametrize("seed", range(10))
def test_mismatched_products_raise_as_before(seed):
    A, B, v = product_operands(seed)
    wide = IntMatrix([row + [1] for row in A.data], cols=A.cols + 1)
    with pytest.raises(ValueError, match="^inner dimensions differ$"):
        wide.mul(B)
    with pytest.raises(ValueError, match="^inner dimensions differ$"):
        wide @ B
    with pytest.raises(ValueError,
                       match="^vector length differs from column count$"):
        A.mul_vector(v + [1])
    if v:
        with pytest.raises(ValueError,
                           match="^vector length differs from column count$"):
            A.mul_vector(v[:-1])


def full_column_rank(rng, fractional):
    while True:
        k = rng.randint(1, 5)
        A = random_rows(rng, rng.randint(k, 7), k, fractional)
        if to_sympy(A).rank() == k:
            return A


def hstack(A, B):
    return [a + b for a, b in zip(A, B)]


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_sympy(seed, fractional):
    rng = random.Random(1000 + seed)
    A = full_column_rank(rng, fractional)
    X = random_rows(rng, len(A[0]), rng.randint(1, 3), fractional)
    B = matmul(A, X)
    solved = solve_rational(*cleared_system(A, B))
    expected = to_sympy(A).solve(to_sympy(B))
    assert solved == to_fractions(expected)
    assert solved == X


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_solve_refuses_a_rank_deficient_system(seed, fractional):
    rng = random.Random(2000 + seed)
    k = rng.randint(2, 5)
    A = random_rows(rng, rng.randint(k + 1, 7), k, fractional,
                    rank=rng.randint(1, k - 1))
    # A wide B makes the system inconsistent too, with more pivots than A
    # has columns; the rank deficiency is still the error reported.
    B = random_rows(rng, len(A), k + 1, fractional)
    assert to_sympy(hstack(A, B)).rank() > k
    with pytest.raises(ValueError, match="rank deficient"):
        solve_rational(*cleared_system(A, B))
    with pytest.raises(ValueError, match="rank deficient"):
        solve_rational(*cleared_system(
            A, matmul(A, random_rows(rng, k, 1, fractional))))


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_solve_refuses_an_inconsistent_system(seed, fractional):
    rng = random.Random(3000 + seed)
    while True:
        A = full_column_rank(rng, fractional)
        B = random_rows(rng, len(A), 1, fractional)
        if to_sympy(hstack(A, B)).rank() > len(A[0]):
            break
    with pytest.raises(ValueError, match="inconsistent system"):
        solve_rational(*cleared_system(A, B))


def lattice_matrix(seed):
    """Random integer matrix up to 5x5, rank deficient about half the time."""
    rng = random.Random(4000 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    rank = rng.choice([None, rng.randint(1, min(rows, cols))])
    return IntMatrix(random_rows(rng, rows, cols, False, rank))


def reversed_rows(rows):
    """Rows and columns both in reverse order."""
    return [row[::-1] for row in rows[::-1]]


@pytest.mark.parametrize("seed", range(50))
def test_smith_factors_match_sympy(seed):
    M = lattice_matrix(seed)
    ours = nonzero_diagonal(smith_normal_form(M)[1])
    theirs = invariant_factors(sympy.Matrix(M.data), domain=sympy.ZZ)
    assert ours == [abs(int(x)) for x in theirs if x != 0]


def wide_lattice_matrix(seed):
    """Random integer matrix up to 8x8 with entries up to +-30.

    Non-square shapes, rank deficiency (as a product through a narrower
    middle) and zeroed rows or columns each occur in a share of seeds.
    """
    rng = random.Random(5000 + seed)
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    rank = rng.choice([None, rng.randint(1, min(rows, cols))])
    while True:
        if rank is None:
            data = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        else:
            left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
            data = IntMatrix(left).mul(IntMatrix(right)).data
        if max(abs(x) for row in data for x in row) <= 30:
            break
    if rng.random() < 0.3:
        data[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = 0
    return IntMatrix(data)


@pytest.mark.parametrize("seed", range(60))
def test_smith_form_of_wide_matrices(seed):
    M = wide_lattice_matrix(seed)
    ours = nonzero_diagonal(check_snf(M)[1])
    theirs = invariant_factors(sympy.Matrix(M.data), domain=sympy.ZZ)
    assert ours == [abs(int(x)) for x in theirs if x != 0]


@pytest.mark.parametrize("seed", range(50))
def test_hermite_form_matches_sympy(seed):
    # sympy's form is column-style with pivots at the bottom right; on
    # the reversed transpose it is this module's row-style form, reversed.
    M = lattice_matrix(seed)
    H, _ = hermite_normal_form(M)
    theirs = sympy_hnf(sympy.Matrix(reversed_rows(M.data)).T).T
    assert [row for row in H.data if any(row)] == reversed_rows(
        [[int(x) for x in theirs.row(i)] for i in range(theirs.rows)])


@pytest.mark.parametrize("d,n", sorted(TORSION_COUNTS))
def test_torsion_is_sympys_smith_factors_of_the_generator_matrix(d, n):
    L = generator_lattice(higher_veronese_gens(d, n))
    theirs = invariant_factors(sympy.Matrix(L.data), domain=sympy.ZZ)
    assert higher_torsion(d, n) == [abs(int(x)) for x in theirs if abs(x) > 1]
