"""Unit tests for the exact linear algebra core."""

import hashlib
import random
from fractions import Fraction

import pytest

from verolink import exactlin
from verolink.exactlin import (IntMatrix, clear_denominators,
                               column_lattice_basis, det,
                               hermite_normal_form, invariant_factors,
                               kernel_lattice,
                               rational_nullspace, rational_rank,
                               rational_rref, same_column_space,
                               smith_normal_form, solve_rational)
from verolink.verify import higher_torsion


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def random_unimodular(rng, k, steps=12):
    """Product of elementary row operations; determinant is +-1."""
    data = IntMatrix.identity(k).data
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        data[i] = [a + q * b for a, b in zip(data[i], data[j])]
    return IntMatrix(data)


# -- Hermite normal form -------------------------------------------------

def test_hnf_identity():
    M = IntMatrix.identity(2)
    H, U = hermite_normal_form(M)
    assert H == M
    assert U == IntMatrix.identity(2)


def test_hnf_already_diagonal():
    M = IntMatrix([[2, 0], [0, 2]])
    H, _ = hermite_normal_form(M)
    assert H == M


def test_hnf_hand_reduction():
    # Row reduction over the integers: subtracting the rows leaves (0, -2),
    # normalized to positive pivot 2; the entry above stays reduced.
    M = IntMatrix([[1, 1], [1, -1]])
    H, U = hermite_normal_form(M)
    assert H == IntMatrix([[1, 1], [0, 2]])
    assert U.mul(M) == H
    assert abs(det(U)) == 1


@pytest.mark.parametrize("seed", range(8))
def test_hnf_random_invariants(seed):
    rng = random.Random(seed)
    M = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    H, U = hermite_normal_form(M)
    assert U.mul(M) == H
    assert abs(det(U)) == 1
    # Echelon shape with positive pivots and reduced entries above.
    previous = -1
    for i in range(H.rows):
        row = H.data[i]
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            assert all(all(x == 0 for x in H.data[k]) for k in range(i, H.rows))
            break
        assert lead > previous
        assert row[lead] > 0
        for k in range(i):
            assert 0 <= H.data[k][lead] < row[lead]
        previous = lead


# -- Smith normal form ---------------------------------------------------

def nonzero_diagonal(S):
    """The invariant factors on the diagonal of a Smith form S."""
    return [d for d in S.diagonal() if d != 0]


def check_snf(M):
    U, S, W = smith_normal_form(M)
    assert U.mul(M).mul(W) == S
    assert abs(det(U)) == 1
    assert abs(det(W)) == 1
    diag = S.diagonal()
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert S.data[i][j] == 0
    nonzero = nonzero_diagonal(S)
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d == 0 for d in diag[len(nonzero):])
    return U, S, W


def test_snf_divisibility_reordering():
    _, S, _ = check_snf(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 1]]))
    assert S.diagonal() == [1, 2, 2]


def test_snf_zero_matrix():
    _, S, _ = check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert S.is_zero()


def test_snf_recombination_recovers_input():
    rng = random.Random(7)
    M = random_int_matrix(rng, 4, 3)
    U, S, W = check_snf(M)
    # Unimodular transforms invert exactly over the integers.
    assert _int_inverse(U).mul(S).mul(_int_inverse(W)) == M


def _int_inverse(M):
    """Inverse of a unimodular matrix via its Hermite form (which is I)."""
    H, U = hermite_normal_form(M)
    assert H == IntMatrix.identity(M.rows)
    return U


@pytest.mark.parametrize("seed", range(10))
def test_snf_random_invariants(seed):
    rng = random.Random(100 + seed)
    check_snf(random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))


# -- kernels -------------------------------------------------------------

def test_kernel_single_relation():
    K = kernel_lattice(IntMatrix([[1, 1]]))
    assert K.columns() == [(1, -1)]


def test_kernel_of_identity_is_empty():
    K = kernel_lattice(IntMatrix.identity(3))
    assert K.cols == 0
    assert K.rows == 3


@pytest.mark.parametrize("seed", range(8))
def test_kernel_random_invariants(seed):
    rng = random.Random(200 + seed)
    M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
    K = kernel_lattice(M)
    if K.cols:
        assert M.mul(K).is_zero()
        # Saturation: all invariant factors of the kernel basis are one.
        assert all(d == 1 for d in nonzero_diagonal(smith_normal_form(K)[1]))
    assert K.cols == M.cols - rational_rank(M)


# -- invariant factors ----------------------------------------------------

def test_invariant_factors_trivial_quotient():
    M = IntMatrix([[2, 1], [0, 3]])
    assert invariant_factors(M, M) == []


def test_invariant_factors_index_two():
    sub = IntMatrix.from_columns([(2, 0), (0, 1)])
    amb = IntMatrix.identity(2)
    assert invariant_factors(sub, amb) == [2]


def test_invariant_factors_rank_drop():
    sub = IntMatrix.from_columns([(1, 0)])
    amb = IntMatrix.identity(2)
    with pytest.raises(ValueError, match="lower rank than the ambient"):
        invariant_factors(sub, amb)


@pytest.mark.parametrize("seed", range(6))
def test_invariant_factors_basis_independent(seed):
    # Re-basing the sublattice by a unimodular transform keeps the factors.
    rng = random.Random(300 + seed)
    k = rng.randint(2, 4)
    diag = sorted(rng.choice([1, 1, 2, 2, 3, 4, 6]) for _ in range(k))
    sub = IntMatrix([[diag[i] if i == j else 0 for j in range(k)]
                     for i in range(k)])
    amb = IntMatrix.identity(k)
    expected = invariant_factors(sub, amb)
    rebased = sub.mul(random_unimodular(rng, k))
    assert invariant_factors(rebased, amb) == expected


def test_invariant_factors_refuse_a_sub_off_the_ambient_lattice():
    # (1, 0) lies in the span of (2, 0) but not in its lattice.
    with pytest.raises(ValueError, match="ambient lattice"):
        invariant_factors(IntMatrix.from_columns([(1, 0)]),
                          IntMatrix.from_columns([(2, 0)]))


def test_invariant_factors_refuse_a_sub_outside_the_span():
    with pytest.raises(ValueError, match="span"):
        invariant_factors(IntMatrix.from_columns([(1, 1)]),
                          IntMatrix.from_columns([(1, 0)]))


def test_torsion_makes_no_fraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice path reached rational arithmetic")

    for name in ("solve_rational", "rational_rref", "Fraction"):
        monkeypatch.setattr(exactlin, name, refuse)
    assert higher_torsion(3, 4) == [3] * 13


def test_torsion_and_invariant_factors_build_no_smith_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factor-only path built a Smith transform")

    monkeypatch.setattr(exactlin, "smith_normal_form", refuse)
    # Every transform is carried columns; a discarded one has empty rows.
    carried = []
    carrying = exactlin._hermite_carrying

    def counting(A, T, width=None):
        carried.append(any(T))
        return carrying(A, T, width)

    monkeypatch.setattr(exactlin, "_hermite_carrying", counting)
    assert invariant_factors(IntMatrix.from_columns([(2, 0), (0, 6)]),
                             IntMatrix.identity(2)) == [2, 6]
    assert carried and not any(carried)
    # The torsion path builds no transform either: it counts the
    # kernel's rank without a kernel basis.
    assert higher_torsion(3, 4) == [3] * 13
    assert carried.count(True) == 0


@pytest.mark.parametrize("seed", range(4))
def test_normal_forms_leave_their_arguments_unchanged(seed):
    rng = random.Random(500 + seed)
    M = random_int_matrix(rng, 4, 5)
    sub = IntMatrix.from_columns([(2, 0, 1), (0, 3, 0), (1, 1, 4)])
    amb = IntMatrix.identity(3)
    copies = [IntMatrix(X.data) for X in (M, sub, amb)]
    hermite_normal_form(M)
    smith_normal_form(M)
    invariant_factors(sub, amb)
    assert [M, sub, amb] == copies


def test_a_non_integer_entry_is_refused_by_name():
    with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
        IntMatrix([[1, Fraction(1, 2)]])


def test_a_solution_is_fraction_rows():
    half = Fraction(1, 2)
    solved = solve_rational(IntMatrix([[2, 0], [0, 1], [2, 2]]),
                            IntMatrix.from_columns([(1, 2, 5)]))
    assert solved == [[half], [2]]
    assert all(isinstance(x, Fraction) for row in solved for x in row)


# -- rational nullspaces ---------------------------------------------------

def test_nullspace_identity_empty():
    N = rational_nullspace(IntMatrix.identity(3))
    assert N.cols == 0


def test_nullspace_all_ones_row():
    N = rational_nullspace(IntMatrix([[1, 1, 1, 1]]))
    assert N.cols == 3


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_random_invariants(seed):
    rng = random.Random(400 + seed)
    M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
    N = rational_nullspace(M)
    if N.cols:
        assert M.mul(N).is_zero()
    assert rational_rank(M) + N.cols == M.cols


def test_nullspace_with_fractional_entries():
    M = IntMatrix([clear_denominators([Fraction(1, 2), Fraction(1, 3)])])
    N = rational_nullspace(M)
    assert N.columns() == [(-2, 3)]
    assert M.mul(N).is_zero()


def test_nullspace_columns_are_primitive_and_positive_at_their_free_column():
    # The reduced row is (1, 1/2, 3/2), so the rational basis vectors
    # are (-1/2, 1, 0) and (-3/2, 0, 1), each with a 1 at its free column.
    N = rational_nullspace(IntMatrix([[2, 1, 3], [4, 2, 6]]))
    assert N.columns() == [(-1, 2, 0), (-3, 0, 2)]


def test_same_column_space():
    A = IntMatrix.from_columns([(1, 0), (0, 1)])
    B = IntMatrix.from_columns([(1, 1), (1, -1)])
    C = IntMatrix.from_columns([(1, 0)])
    assert same_column_space(A, B)
    assert not same_column_space(A, C)


def test_det_small_cases():
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix([[2, 1], [1, 1]])) == 1
    assert det(IntMatrix([[2, 4], [1, 2]])) == 0
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1


# -- the one elimination loop ----------------------------------------------

# Full column rank, so solve_rational(M, M) has its unique solution; the
# transpose has a kernel.
ONE_LOOP_MATRIX = IntMatrix([[2, 1, 0], [4, -3, 5], [1, 1, 1], [0, 6, -2]])
ROW_REDUCTIONS = {
    "rational_rank": rational_rank,
    "rational_rref": rational_rref,
    "rational_nullspace": lambda M: rational_nullspace(M.transpose()),
    "solve_rational": lambda M: solve_rational(M, M),
    "hermite_normal_form": hermite_normal_form,
    "smith_normal_form": smith_normal_form,
    "kernel_lattice": lambda M: kernel_lattice(M.transpose()),
    "column_lattice_basis": column_lattice_basis,
}


@pytest.mark.parametrize("name", sorted(ROW_REDUCTIONS))
def test_every_row_reduction_runs_the_echelon_pass(monkeypatch, name):
    reduce_ = ROW_REDUCTIONS[name]
    expected = reduce_(ONE_LOOP_MATRIX)
    calls = []
    echelon = exactlin._echelon

    def counting(H, width=None):
        calls.append(len(H))
        return echelon(H, width)

    monkeypatch.setattr(exactlin, "_echelon", counting)
    assert reduce_(ONE_LOOP_MATRIX) == expected
    assert calls


@pytest.mark.parametrize("name", ["rational_rank", "rational_rref",
                                  "rational_nullspace"])
def test_ranks_and_echelon_forms_need_no_hermite_form(monkeypatch, name):
    reduce_ = ROW_REDUCTIONS[name]
    expected = reduce_(ONE_LOOP_MATRIX)

    def refuse(H, width=None):
        raise AssertionError("a rational reduction reached the Hermite form")

    monkeypatch.setattr(exactlin, "_hermite", refuse)
    assert reduce_(ONE_LOOP_MATRIX) == expected


# -- exact kernel outputs ----------------------------------------------------

def _pinned_int_matrices():
    """Seeded integer matrices up to 10x12: full rank, rank deficient,
    and with zero rows or columns."""
    rng = random.Random(7919)
    out = []
    for t in range(60):
        rows, cols = rng.randint(1, 10), rng.randint(1, 12)
        if t % 3 == 1:
            # A product through a thin middle dimension has low rank.
            k = rng.randint(1, max(1, min(rows, cols) - 1))
            M = random_int_matrix(rng, rows, k, -3, 3).mul(
                random_int_matrix(rng, k, cols, -3, 3))
        else:
            M = random_int_matrix(rng, rows, cols)
        data = M.data
        if t % 4 == 2:
            data[rng.randrange(rows)] = [0] * cols
        if t % 5 == 3:
            j = rng.randrange(cols)
            for row in data:
                row[j] = 0
        out.append(IntMatrix(data, cols=cols))
    return out


def _pinned_rational_matrices():
    """Seeded Fraction matrices up to 10x12, some rank deficient, each
    given as an IntMatrix by clearing the denominators of every row."""
    rng = random.Random(104729)
    out = []
    for t in range(30):
        rows, cols = rng.randint(1, 10), rng.randint(1, 12)
        data = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
                for _ in range(rows)]
        if t % 2:
            # Repeat a combination of earlier rows to lose rank.
            for i in range(rows // 2, rows):
                a, b = rng.randrange(rows // 2 or 1), rng.randrange(rows // 2 or 1)
                q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                data[i] = [x + q * y for x, y in zip(data[a], data[b])]
        if t % 3 == 2:
            data[rng.randrange(rows)] = [Fraction(0)] * cols
        out.append(IntMatrix([clear_denominators(row) for row in data], cols=cols))
    return out


def _kernel_outputs() -> str:
    lines = []
    for M in _pinned_int_matrices():
        lines.append(repr((hermite_normal_form(M), smith_normal_form(M),
                           rational_rref(M), rational_nullspace(M),
                           rational_rank(M), kernel_lattice(M),
                           column_lattice_basis(M))))
    for M in _pinned_rational_matrices():
        lines.append(repr((rational_rref(M), rational_nullspace(M),
                           rational_rank(M))))
    return "\n".join(lines)


def test_kernel_outputs_are_pinned():
    # Exact transforms, scalings and bases, not just their properties:
    # a faster kernel must give the same bytes.
    digest = hashlib.sha256(_kernel_outputs().encode()).hexdigest()
    assert digest == KERNEL_OUTPUTS_SHA256


KERNEL_OUTPUTS_SHA256 = "c6cf1bb18c565aa5c0b661c68428a8b0d9a7921b40c5cb3d3c1ce99b16fcecc7"
