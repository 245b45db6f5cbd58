"""Exact integer and rational linear algebra.

Everything here runs over Python ints (arbitrary precision) or
``fractions.Fraction``; there is no floating point anywhere.  Ranks,
nullspaces, reduced echelon forms and rational solves all run on one
fraction-free elimination kernel, ``_int_rref``, over integer rows;
rational input is scaled row by row to integers first.  The integer
normal forms return their unimodular transforms so callers can certify
results instead of trusting them:

* ``hermite_normal_form(M)`` returns ``(H, U)`` with ``U @ M == H``.
* ``smith_normal_form(M)`` returns ``(U, S, W)`` with ``U @ M @ W == S``.

Conventions are fixed so outputs are bit-stable: row-style Hermite form
with positive pivots and entries above a pivot reduced into
``[0, pivot)``; Smith pivots are chosen with minimal absolute value to
limit intermediate entry growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import IndexNotFinite, SizeMismatch


class IntMatrix:
    """Dense integer matrix with exact arithmetic.

    Entries are plain Python ints, so there are no overflow semantics.
    Instances are treated as immutable by every function in this module.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [list(row) for row in data]
        if data:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"integer entry expected, got {x!r}")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMatrix":
        columns = [list(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise ValueError("row count needed for an empty column list")
        return cls([[c[i] for c in columns] for i in range(rows)], cols=len(columns))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise SizeMismatch("row counts differ")
        return IntMatrix([self.data[i] + other.data[i] for i in range(self.rows)],
                         cols=self.cols + other.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise SizeMismatch("inner dimensions differ")
        ot = other.transpose().data
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in ot]
                          for row in self.data], cols=other.cols)

    __matmul__ = mul

    def mul_vector(self, v) -> tuple[int, ...]:
        if self.cols != len(v):
            raise SizeMismatch("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def to_rational(self) -> "RatMatrix":
        return RatMatrix([[Fraction(x) for x in row] for row in self.data],
                         cols=self.cols)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"IntMatrix({self.rows}x{self.cols}: {body})"


class RatMatrix:
    """Dense matrix over exact rationals (reduced fractions)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [[Fraction(x) for x in row] for row in data]
        if data:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "RatMatrix":
        columns = [list(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise ValueError("row count needed for an empty column list")
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(rows)],
                   cols=len(columns))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise SizeMismatch("row counts differ")
        return RatMatrix([self.data[i] + other.data[i] for i in range(self.rows)],
                         cols=self.cols + other.cols)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise SizeMismatch("inner dimensions differ")
        ot = [[other.data[i][j] for i in range(other.rows)] for j in range(other.cols)]
        return RatMatrix([[sum(a * b for a, b in zip(row, col)) for col in ot]
                          for row in self.data], cols=other.cols)

    __matmul__ = mul

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition ``U @ M @ W == S`` with unimodular U, W.

    S is diagonal and its nonzero entries form a divisibility chain
    d1 | d2 | ... with all di > 0.
    """

    U: IntMatrix
    S: IntMatrix
    W: IntMatrix

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.S.diagonal() if d != 0]


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with U unimodular and ``U @ M == H``.  Pivots are
    positive and every entry above a pivot lies in ``[0, pivot)``.
    """
    H = [row[:] for row in M.data]
    U = IntMatrix.identity(M.rows).data
    rows, cols = M.rows, M.cols

    def row_sub(i, k, q):
        if q:
            Hi, Hk = H[i], H[k]
            for j in range(cols):
                Hi[j] -= q * Hk[j]
            Ui, Uk = U[i], U[k]
            for j in range(rows):
                Ui[j] -= q * Uk[j]

    def row_swap(i, k):
        H[i], H[k] = H[k], H[i]
        U[i], U[k] = U[k], U[i]

    def row_negate(i):
        H[i] = [-x for x in H[i]]
        U[i] = [-x for x in U[i]]

    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        # Pick the nonzero entry of least magnitude as the pivot; small
        # pivots keep the elimination quotients, and thus entries, small.
        while True:
            best = None
            for i in range(pr, rows):
                v = H[i][pc]
                if v != 0 and (best is None or abs(v) < abs(H[best][pc])):
                    best = i
            if best is None:
                break
            if best != pr:
                row_swap(pr, best)
            clean = True
            for i in range(pr + 1, rows):
                if H[i][pc]:
                    row_sub(i, pr, H[i][pc] // H[pr][pc])
                    if H[i][pc]:
                        clean = False
            if clean:
                break
        if all(H[i][pc] == 0 for i in range(pr, rows)):
            continue
        if H[pr][pc] < 0:
            row_negate(pr)
        for i in range(pr):
            row_sub(i, pr, H[i][pc] // H[pr][pc])
        pr += 1

    return IntMatrix(H, cols=cols), IntMatrix(U, cols=rows)


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms.

    The diagonal entries of S are the invariant factors of the cokernel
    of M (ones included, zeros trailing).
    """
    A = [row[:] for row in M.data]
    rows, cols = M.rows, M.cols
    U = IntMatrix.identity(rows).data
    W = IntMatrix.identity(cols).data

    def row_sub(i, k, q):
        if q:
            for j in range(cols):
                A[i][j] -= q * A[k][j]
            for j in range(rows):
                U[i][j] -= q * U[k][j]

    def col_sub(j, k, q):
        if q:
            for i in range(rows):
                A[i][j] -= q * A[i][k]
            for i in range(cols):
                W[i][j] -= q * W[i][k]

    def row_swap(i, k):
        if i != k:
            A[i], A[k] = A[k], A[i]
            U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        if j != k:
            for row in A:
                row[j], row[k] = row[k], row[j]
            for row in W:
                row[j], row[k] = row[k], row[j]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    for t in range(min(rows, cols)):
        # Locate a pivot of minimal magnitude in the trailing block.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = A[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])

        while True:
            # Clear the pivot column and row; a nonzero remainder becomes
            # the new, strictly smaller pivot.
            restart = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    row_sub(i, t, A[i][t] // A[t][t])
                    if A[i][t]:
                        row_swap(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, cols):
                if A[t][j]:
                    col_sub(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        col_swap(t, j)
                        restart = True
            if restart:
                continue
            # Enforce divisibility: fold in any row holding an entry the
            # pivot does not divide, then keep reducing.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)

    for t in range(min(rows, cols)):
        if A[t][t] < 0:
            row_negate(t)

    return SnfResult(U=IntMatrix(U, cols=rows), S=IntMatrix(A, cols=cols),
                     W=IntMatrix(W, cols=cols))


def det(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise SizeMismatch("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [row[:] for row in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M: IntMatrix) -> bool:
    return M.rows == M.cols and abs(det(M)) == 1


def kernel_lattice(M: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel ``{u : M @ u == 0}``, as columns.

    The result is saturated automatically (it is the kernel of an
    integer matrix), so its Smith form over the ambient lattice has all
    invariant factors equal to one.  Columns are normalized so their
    first nonzero entry is positive.
    """
    H, U = hermite_normal_form(M.transpose())
    basis = []
    for i in range(H.rows):
        if all(x == 0 for x in H.data[i]):
            vec = U.data[i]
            lead = next((x for x in vec if x != 0), 0)
            basis.append([-x for x in vec] if lead < 0 else list(vec))
    return IntMatrix.from_columns(basis, rows=M.cols)


def column_lattice_basis(M: IntMatrix) -> IntMatrix:
    """A basis (as columns) of the lattice spanned by the columns of M."""
    H, _ = hermite_normal_form(M.transpose())
    basis = [row for row in H.data if any(x != 0 for x in row)]
    return IntMatrix.from_columns(basis, rows=M.rows)


def solve_rational(A: IntMatrix | RatMatrix, B: IntMatrix | RatMatrix) -> RatMatrix:
    """Solve ``A @ X == B`` over the rationals.

    X is read off the reduced row echelon form of ``[A | B]``.  Raises
    ValueError when the solution is not unique (A must have full column
    rank) or the system is inconsistent, checked in that order.
    """
    k = A.cols
    rows, pivots = rational_rref(A.hstack(B))
    if pivots[:k] != list(range(k)):
        raise ValueError("coefficient matrix is rank deficient")
    if len(pivots) > k:
        raise ValueError("inconsistent system")
    return RatMatrix([row[k:] for row in rows[:k]], cols=B.cols)


def invariant_factors(sub: IntMatrix, ambient: IntMatrix) -> list[int]:
    """Invariant factors (> 1) of (ambient lattice)/(sub lattice).

    Both arguments hold lattice generating sets as columns.  ``sub``
    must generate a finite-index sublattice of the lattice generated by
    ``ambient``; the factors are read off the Smith normal form of the
    coordinates of ``sub`` in an ambient basis, sorted ascending.
    """
    basis = column_lattice_basis(ambient)
    if sub.cols == 0:
        if basis.cols == 0:
            return []
        raise IndexNotFinite("empty sublattice in a positive-rank lattice")
    coords = solve_rational(basis, sub)
    int_coords = []
    for row in coords.data:
        out = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("columns of sub do not lie in the ambient lattice")
            out.append(x.numerator)
        int_coords.append(out)
    snf = smith_normal_form(IntMatrix(int_coords, cols=sub.cols))
    factors = snf.invariant_factors
    if len(factors) < basis.cols:
        raise IndexNotFinite("sublattice has lower rank than the ambient lattice")
    return [d for d in factors if d > 1]


def _int_rref(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free fully reduced row echelon form of integer rows.

    Rows are updated by cross-multiplication and renormalized by their
    gcd, so all arithmetic stays in the integers; pivot entries end up
    positive but not necessarily one, and the zero rows come last.
    Mutates ``a`` and returns (rows, pivot column indices).
    """
    m = len(a)
    k = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(k):
        if r >= m:
            break
        best = None
        for i in range(r, m):
            v = a[i][c]
            if v and (best is None or abs(v) < abs(a[best][c])):
                best = i
        if best is None:
            continue
        a[r], a[best] = a[best], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        prow = a[r]
        p = prow[c]
        for i in range(m):
            v = a[i][c]
            if i == r or not v:
                continue
            row = [x * p - v * y for x, y in zip(a[i], prow)]
            g = 0
            for x in row:
                g = gcd(g, x)
                if g == 1:
                    break
            a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return a, pivots


def _as_int_rows(M: IntMatrix | RatMatrix) -> list[list[int]]:
    """Integer rows for ``_int_rref``, always a fresh copy it may mutate.

    IntMatrix rows are copied as they are; rational rows are scaled by
    the lcm of their denominators (row scaling preserves the row space).
    """
    if isinstance(M, IntMatrix):
        return [row[:] for row in M.data]
    out = []
    for row in M.data:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def rational_rref(M: IntMatrix | RatMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivots)."""
    a, pivots = _int_rref(_as_int_rows(M))
    scales = [row[c] for row, c in zip(a, pivots)] + [1] * (len(a) - len(pivots))
    return [[Fraction(x, s) for x in row] for row, s in zip(a, scales)], pivots


def rational_rank(M: IntMatrix | RatMatrix) -> int:
    return len(_int_rref(_as_int_rows(M))[1])


def rational_nullspace(M: IntMatrix | RatMatrix) -> RatMatrix:
    """Basis of the right nullspace over the rationals, as columns.

    For each free column f the basis vector has entry 1 at f, so
    ``rank(M) + returned columns == cols(M)``.
    """
    a, pivots = _int_rref(_as_int_rows(M))
    k = M.cols
    pivot_set = set(pivots)
    basis = []
    for f in range(k):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * k
        vec[f] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = Fraction(-a[row_idx][f], a[row_idx][c])
        basis.append(vec)
    return RatMatrix.from_columns(basis, rows=k)


def same_column_space(A: RatMatrix, B: RatMatrix) -> bool:
    """Exact subspace equality via double-containment rank checks."""
    if A.rows != B.rows:
        raise SizeMismatch("ambient dimensions differ")
    ra = rational_rank(A)
    rb = rational_rank(B)
    if ra != rb:
        return False
    return rational_rank(A.hstack(B)) == ra


def contains_column_space(A: RatMatrix, B: RatMatrix) -> bool:
    """True when the column space of A contains the column space of B."""
    if A.rows != B.rows:
        raise SizeMismatch("ambient dimensions differ")
    return rational_rank(A.hstack(B)) == rational_rank(A)
