"""Exact integer and rational linear algebra.

Every matrix here is an ``IntMatrix`` of Python ints (arbitrary
precision); only reduced echelon forms and rational solves return
``fractions.Fraction`` rows, and there is no floating point anywhere.
One Euclidean elimination loop, ``_echelon``, brings integer rows to
echelon form, and every rank, reduced echelon form, nullspace, rational
solve, Hermite form, Smith form and lattice basis runs on it.  A rank
counts its pivots; a reduced echelon form back-substitutes its rows; a
Hermite form reduces the entries above each pivot.  The integer normal
forms return tuples with their unimodular transforms, so callers can
certify results instead of trusting them:

* ``hermite_normal_form(M)`` returns ``(H, U)`` with ``U @ M == H``.
* ``smith_normal_form(M)`` returns ``(U, S, W)`` with ``U @ M @ W == S``.

Conventions are fixed so outputs are bit-stable: row-style Hermite form
with positive pivots and entries above a pivot reduced into
``[0, pivot)``.  The Hermite form is the one lattice routine: the Smith
form alternates row and column Hermite forms until the matrix is
diagonal, and lattice coordinates are read off Hermite basis rows.  A
transform is carried columns: the identity rides to the right of the
matrix through the same row operations and ends up holding the
transform, so no elimination step branches on one.  Where a transform
would be discarded (invariant factors, the Smith diagonal, lattice
bases) the carried rows are empty.  Only ``det`` eliminates on its own,
by Bareiss steps, so that it can check the transforms independently.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm


class IntMatrix:
    """Dense integer matrix with exact arithmetic.

    Entries are plain Python ints, so there are no overflow semantics.
    Instances are treated as immutable by every function in this module.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [list(row) for row in data]
        for row in data:
            if not all(map(isinstance, row, repeat(int))):
                bad = next(x for x in row if not isinstance(x, int))
                raise TypeError(f"integer entry expected, got {bad!r}")
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
    def identity(cls, k: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

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
        return type(self)([[self.data[i][j] for i in range(self.rows)]
                           for j in range(self.cols)], cols=self.rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return IntMatrix([self.data[i] + other.data[i] for i in range(self.rows)],
                         cols=self.cols + other.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        ot = other.transpose().data
        return IntMatrix([[sum(map(operator.mul, row, col)) for col in ot]
                          for row in self.data], cols=other.cols)

    __matmul__ = mul

    def mul_vector(self, v) -> tuple[int, ...]:
        if self.cols != len(v):
            raise ValueError("vector length differs from column count")
        return tuple(sum(map(operator.mul, row, v)) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def __eq__(self, other):
        return (type(other) is type(self) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"{type(self).__name__}({self.rows}x{self.cols}: {body})"


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with U unimodular and ``U @ M == H``.  Pivots are
    positive and every entry above a pivot lies in ``[0, pivot)``.  U is
    the identity carried to the right of M.
    """
    H, U = _hermite_carrying(M.data, IntMatrix.identity(M.rows).data, M.cols)
    return IntMatrix(H, cols=M.cols), IntMatrix(U, cols=M.rows)


def _row_sub(H: list[list[int]], i: int, k: int, q: int, pc: int) -> None:
    """Row i minus q times row k; row k is zero left of column pc, so
    only columns ``pc..`` of row i are rewritten.  No caller passes
    q = 0: an echelon pivot has the least magnitude in its column, and
    a Hermite reduction skips entries already in ``[0, pivot)``."""
    Hi, Hk = H[i], H[k]
    H[i] = Hi[:pc] + [x - q * y for x, y in zip(Hi[pc:], Hk[pc:])]


def _echelon(H: list[list[int]], width: int | None = None) -> list[int]:
    """Bring the rows H to row echelon form in place by Euclidean steps,
    with pivots in the first ``width`` columns (in all when None); the
    columns right of them ride along.  Returns the pivot columns.

    Pivots are positive and the zero rows come last.  At pivot column
    pc, every row from the pivot row down is zero left of pc, and no
    step reads a row above it.
    """
    rows = len(H)
    if width is None:
        width = len(H[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(width):
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
                H[pr], H[best] = H[best], H[pr]
            clean = True
            for i in range(pr + 1, rows):
                if H[i][pc]:
                    _row_sub(H, i, pr, H[i][pc] // H[pr][pc], pc)
                    if H[i][pc]:
                        clean = False
            if clean:
                break
        if best is None:
            continue
        if H[pr][pc] < 0:
            H[pr] = [-x for x in H[pr]]
        pivots.append(pc)
        pr += 1
    return pivots


def _hermite(H: list[list[int]], width: int | None = None) -> None:
    """Bring the rows H to Hermite form in place, with pivots in the
    first ``width`` columns (in all when None).

    After the echelon form, the entries above each pivot are reduced
    into ``[0, pivot)``, pivot by pivot from the left; an entry already
    there is left alone.  No echelon step reads a row above its pivot,
    so H is the same as if each column were reduced as soon as its pivot
    is found.
    """
    for pr, pc in enumerate(_echelon(H, width)):
        p = H[pr][pc]
        for i in range(pr):
            if not 0 <= H[i][pc] < p:
                _row_sub(H, i, pr, H[i][pc] // p, pc)


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _hermite_carrying(A: list[list[int]], T: list[list[int]],
                      width: int | None = None
                      ) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite form of the rows A, and the rows T with the same row
    operations applied: a transform is columns carried to the right.

    One Hermite form of ``[A | T]`` gives both.  With ``width`` A's
    column count the pivots stay in A.  With ``width`` None they may go
    on into T, but A's columns come first, so A's part is still its
    Hermite form and the later pivots only combine rows that are zero on
    A; the second part is then V @ T for a unimodular V with V @ A equal
    to the first, and a transform composes without a matrix product.
    """
    k = len(A[0]) if A else 0
    H = [a + t for a, t in zip(A, T)]
    _hermite(H, width)
    return [row[:k] for row in H], [row[k:] for row in H]


def _smith(A: list[list[int]], U: list[list[int]], Wt: list[list[int]]) -> int:
    """Bring the rows A to Smith form in place and return its rank,
    applying each row operation to the rows of U and each column
    operation to the rows of Wt, the transposed column transform.  A
    caller that discards the transforms gives them as empty rows.

    Row and column Hermite forms alternate until A is diagonal (Kannan
    and Bachem 1979): each round either strictly lowers a leading pivot
    to a proper divisor or leaves its row and column clear for good.  A
    carried transform leaves A's part of a Hermite form as it is, so A
    goes through the same steps with or without them.  A row Hermite
    form puts the nonzero diagonal entries first, and 2x2 gcd/lcm steps
    then turn them into a divisibility chain.
    """
    A[:], U[:] = _hermite_carrying(A, U, len(Wt))
    while any(x for i, row in enumerate(A) for j, x in enumerate(row) if i != j):
        At, Wt[:] = _hermite_carrying(_transpose(A), Wt)
        A[:], U[:] = _hermite_carrying(_transpose(At), U)

    rank = sum(1 for i, row in enumerate(A) if i < len(row) and row[i])
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = A[i][i], A[j][j]
            if b % a == 0:
                continue
            g = gcd(a, b)
            x, y = b // g, a // g
            # [[s, t], [-b/g, a/g]] @ diag(a, b) @ [[1, -t*b/g], [1, s*a/g]]
            # is diag(g, lcm), with both factors of determinant one.
            s = pow(y, -1, x)
            t = (g - s * a) // b
            U[i], U[j] = ([s * p + t * q for p, q in zip(U[i], U[j])],
                          [y * q - x * p for p, q in zip(U[i], U[j])])
            Wt[i], Wt[j] = ([p + q for p, q in zip(Wt[i], Wt[j])],
                            [s * y * q - t * x * p for p, q in zip(Wt[i], Wt[j])])
            A[i][i], A[j][j] = g, a * x
    return rank


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with both transforms: ``(U, S, W)`` with U and W
    unimodular and ``U @ M @ W == S``.

    S is diagonal, and its entries are the invariant factors of the
    cokernel of M (ones included, zeros trailing): the nonzero ones are
    positive and form a divisibility chain d1 | d2 | ....
    """
    S = [row[:] for row in M.data]
    U = IntMatrix.identity(M.rows).data
    Wt = IntMatrix.identity(M.cols).data
    _smith(S, U, Wt)
    return (IntMatrix(U, cols=M.rows), IntMatrix(S, cols=M.cols),
            IntMatrix(Wt, cols=M.cols).transpose())


def _smith_diagonal(M: IntMatrix) -> list[int]:
    """The nonzero diagonal of the Smith form of M, without transforms."""
    S = [row[:] for row in M.data]
    rank = _smith(S, [[] for _ in S], [[] for _ in range(M.cols)])
    return [S[i][i] for i in range(rank)]


def det(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
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


def kernel_lattice(M: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel ``{u : M @ u == 0}``, as columns.

    The result is saturated automatically (it is the kernel of an
    integer matrix), so its Smith form over the ambient lattice has all
    invariant factors equal to one.  Columns are normalized so their
    first nonzero entry is positive.
    """
    H, U = hermite_normal_form(M.transpose())
    basis = []
    for row, vec in zip(H.data, U.data):
        if not any(row):
            lead = next((x for x in vec if x != 0), 0)
            basis.append([-x for x in vec] if lead < 0 else vec)
    return IntMatrix.from_columns(basis, rows=M.cols)


def column_lattice_basis(M: IntMatrix) -> IntMatrix:
    """A basis (as columns) of the lattice spanned by the columns of M."""
    H = M.transpose().data
    _hermite(H)
    basis = [row for row in H if any(x != 0 for x in row)]
    return IntMatrix.from_columns(basis, rows=M.rows)


def solve_rational(A: IntMatrix, B: IntMatrix) -> list[list[Fraction]]:
    """Solve ``A @ X == B`` over the rationals; returns the rows of X.

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
    return [row[k:] for row in rows[:k]]


def invariant_factors(sub: IntMatrix, ambient: IntMatrix) -> list[int]:
    """Invariant factors (> 1) of (ambient lattice)/(sub lattice).

    Both arguments hold lattice generating sets as columns.  ``sub``
    must generate a finite-index sublattice of the lattice generated by
    ``ambient``; the factors are read off the Smith diagonal of the
    coordinates of ``sub`` in an ambient basis, sorted ascending, and no
    transform is built.  The basis is a Hermite form, so each coordinate
    is an exact division at its pivot; a remainder, or anything left
    over once every basis vector is taken off, raises ValueError.
    """
    basis = column_lattice_basis(ambient)
    if sub.cols == 0:
        if basis.cols == 0:
            return []
        raise ValueError("empty sublattice in a positive-rank lattice")
    pivoted = [(next(i for i, x in enumerate(b) if x), b) for b in basis.columns()]
    coords = []
    for v in sub.columns():
        coord = []
        for p, b in pivoted:
            q, r = divmod(v[p], b[p])
            if r:
                raise ValueError("columns of sub do not lie in the ambient lattice")
            coord.append(q)
            if q:
                v = [x - q * y for x, y in zip(v, b)]
        if any(v):
            raise ValueError("columns of sub do not lie in the span of ambient")
        coords.append(coord)
    factors = _smith_diagonal(IntMatrix.from_columns(coords, rows=basis.cols))
    if len(factors) < basis.cols:
        raise ValueError("sublattice has lower rank than the ambient lattice")
    return [d for d in factors if d > 1]


def clear_denominators(values) -> list[int]:
    """Exact rationals times the lcm of their denominators.

    Scaling a row or a column keeps its span.
    """
    scale = lcm(*(x.denominator for x in values))
    return [int(x * scale) for x in values]


def rational_rref(M: IntMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivots).

    The echelon rows are reduced from the last pivot up: a row clears
    each later pivot column against the finished row of that pivot by
    cross-multiplication, and is divided by its gcd, so the arithmetic
    stays in the integers until the final division by the pivot.
    """
    a = [row[:] for row in M.data]
    pivots = _echelon(a)
    for r in reversed(range(len(pivots))):
        row = a[r]
        for s in range(r + 1, len(pivots)):
            v, p = row[pivots[s]], a[s][pivots[s]]
            if v:
                row = [x * p - v * y for x, y in zip(row, a[s])]
        g = gcd(*row)
        a[r] = [x // g for x in row]
    scales = [row[c] for row, c in zip(a, pivots)] + [1] * (len(a) - len(pivots))
    return [[Fraction(x, s) for x in row] for row, s in zip(a, scales)], pivots


def rational_rank(M: IntMatrix) -> int:
    return len(_echelon([row[:] for row in M.data]))


def rational_nullspace(M: IntMatrix) -> IntMatrix:
    """Basis of the right nullspace over the rationals, as integer columns.

    For each free column f the rational basis vector has entry 1 at f
    and minus column f of the reduced echelon form at the pivots; the
    column returned is its primitive integer multiple, positive at f.
    So ``rank(M) + returned columns == cols(M)``.
    """
    rows, pivots = rational_rref(M)
    k = M.cols
    pivot_set = set(pivots)
    basis = []
    for f in range(k):
        if f in pivot_set:
            continue
        vec = [0] * k
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(clear_denominators(vec))
    return IntMatrix.from_columns(basis, rows=k)


def same_column_space(A: IntMatrix, B: IntMatrix) -> bool:
    """Exact subspace equality via double-containment rank checks."""
    if A.rows != B.rows:
        raise ValueError("ambient dimensions differ")
    ra = rational_rank(A)
    rb = rational_rank(B)
    if ra != rb:
        return False
    return rational_rank(A.hstack(B)) == ra


def contains_column_space(A: IntMatrix, B: IntMatrix) -> bool:
    """True when the column space of A contains the column space of B."""
    if A.rows != B.rows:
        raise ValueError("ambient dimensions differ")
    return rational_rank(A.hstack(B)) == rational_rank(A)
