"""Unit tests for the exact linear algebra core."""

import hashlib
import random
from fractions import Fraction

import pytest

from verolink import exactlin
from verolink.errors import IndexNotFinite
from verolink.exactlin import (IntMatrix, RatMatrix, column_lattice_basis, det,
                               hermite_normal_form, invariant_factors,
                               is_unimodular, kernel_lattice,
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
    assert is_unimodular(U)


@pytest.mark.parametrize("seed", range(8))
def test_hnf_random_invariants(seed):
    rng = random.Random(seed)
    M = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    H, U = hermite_normal_form(M)
    assert U.mul(M) == H
    assert is_unimodular(U)
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

def check_snf(M):
    res = smith_normal_form(M)
    assert res.U.mul(M).mul(res.W) == res.S
    assert is_unimodular(res.U)
    assert is_unimodular(res.W)
    diag = res.S.diagonal()
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert res.S.data[i][j] == 0
    nonzero = [d for d in diag if d != 0]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d == 0 for d in diag[len(nonzero):])
    return res


def test_snf_divisibility_reordering():
    res = check_snf(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 1]]))
    assert res.S.diagonal() == [1, 2, 2]


def test_snf_zero_matrix():
    res = check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert res.S.is_zero()


def test_snf_recombination_recovers_input():
    rng = random.Random(7)
    M = random_int_matrix(rng, 4, 3)
    res = check_snf(M)
    # Unimodular transforms invert exactly over the integers.
    Uinv = _int_inverse(res.U)
    Winv = _int_inverse(res.W)
    assert Uinv.mul(res.S).mul(Winv) == M


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
        factors = smith_normal_form(K).invariant_factors
        assert all(d == 1 for d in factors)
    assert K.cols == M.cols - rational_rank(M.to_rational())


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
    with pytest.raises(IndexNotFinite):
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


# -- mixed integer and rational operands ------------------------------------

def test_mixed_operands_give_a_rational_matrix():
    half = Fraction(1, 2)
    A = IntMatrix([[2, 0], [0, 1], [1, 1]])
    B = RatMatrix.from_columns([(1, half, 1)])
    assert solve_rational(A, B) == RatMatrix([[half], [half]])
    assert IntMatrix([[1], [2]]).hstack(RatMatrix([[half], [3]])) == RatMatrix(
        [[1, half], [2, 3]])
    assert IntMatrix([[1, 2]]).mul(RatMatrix([[half], [Fraction(1, 4)]])) == RatMatrix(
        [[1]])
    assert RatMatrix([[half]]).mul(IntMatrix([[2, 4]])) == RatMatrix([[1, 2]])


def test_int_and_rational_matrices_stay_unequal():
    assert IntMatrix([[1]]) != RatMatrix([[1]])
    assert RatMatrix([[1]]) != IntMatrix([[1]])
    assert IntMatrix([[1]]).to_rational() == RatMatrix([[1]])


# -- rational nullspaces ---------------------------------------------------

def test_nullspace_identity_empty():
    N = rational_nullspace(IntMatrix.identity(3).to_rational())
    assert N.cols == 0


def test_nullspace_all_ones_row():
    N = rational_nullspace(RatMatrix([[1, 1, 1, 1]]))
    assert N.cols == 3


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_random_invariants(seed):
    rng = random.Random(400 + seed)
    M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 6)).to_rational()
    N = rational_nullspace(M)
    if N.cols:
        assert M.mul(N).is_zero()
    assert rational_rank(M) + N.cols == M.cols


def test_nullspace_with_fractional_entries():
    M = RatMatrix([[Fraction(1, 2), Fraction(1, 3)]])
    N = rational_nullspace(M)
    assert N.cols == 1
    assert M.mul(N).is_zero()


def test_same_column_space():
    A = RatMatrix.from_columns([(1, 0), (0, 1)])
    B = RatMatrix.from_columns([(1, 1), (1, -1)])
    C = RatMatrix.from_columns([(1, 0)])
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

    def counting(H, U):
        calls.append(len(H))
        return echelon(H, U)

    monkeypatch.setattr(exactlin, "_echelon", counting)
    assert reduce_(ONE_LOOP_MATRIX) == expected
    assert calls


@pytest.mark.parametrize("name", ["rational_rank", "rational_rref",
                                  "rational_nullspace"])
def test_ranks_and_echelon_forms_need_no_hermite_form(monkeypatch, name):
    reduce_ = ROW_REDUCTIONS[name]
    expected = reduce_(ONE_LOOP_MATRIX)

    def refuse(H, U):
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
        out.append(RatMatrix(data, cols=cols))
    return out


def _kernel_outputs() -> str:
    lines = []
    for M in _pinned_int_matrices():
        snf = smith_normal_form(M)
        lines.append(repr((hermite_normal_form(M), (snf.U, snf.S, snf.W),
                           rational_rref(M), rational_nullspace(M),
                           rational_rank(M), kernel_lattice(M),
                           column_lattice_basis(M))))
    for M in _pinned_rational_matrices():
        lines.append(repr((rational_rref(M), rational_nullspace(M),
                           rational_rank(M))))
    return "\n".join(lines)


def test_kernel_outputs_are_pinned():
    # Exact transforms, scalings and bases, not just their properties:
    # the digest was taken from the outputs before the kernels were sped
    # up, so a faster kernel must give the same bytes.
    digest = hashlib.sha256(_kernel_outputs().encode()).hexdigest()
    assert digest == KERNEL_OUTPUTS_SHA256


KERNEL_OUTPUTS_SHA256 = "6745197c6bfa6dad532b64d2a1a4eb5d9416fd4c44fd02c48be724b364dce671"
