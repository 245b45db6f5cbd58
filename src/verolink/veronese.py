"""Grading matrices and lattice combinatorics of symmetric-pair variables.

Grading columns are indexed by weight-d multisets over [n].  Monomials
live in the weight-2 ring, whose variables are the unordered pairs
(i, j) with ``i <= j``, the entries of a symmetric matrix read
upper-triangularly (so the (i, j) and (j, i) positions name the same
variable); weight d enters only through the grading matrix and its
lattice.  All dense vectors in the package use one fixed column order:
multisets sorted lexicographically, e.g. (1,1), (1,2), (1,3), (2,2),
(2,3), (3,3) for d = 2, n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add

from .errors import IndexOutOfRange, SizeCapExceeded
from .exactlin import IntMatrix

#: Hard caps; fiber enumeration beyond this is out of desk scale.
MAX_N = 8
MAX_DN = 24


def check_size(d: int, n: int) -> None:
    """Reject parameter ranges that would hang rather than compute."""
    if d < 1 or n < 1:
        raise IndexOutOfRange(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if n > MAX_N or d * n > MAX_DN:
        raise SizeCapExceeded(f"size guard: n <= {MAX_N} and d*n <= {MAX_DN}, "
                              f"got d={d}, n={n}")


def pair_count(n: int) -> int:
    """Number of unordered pairs {i < j} in [n], i.e. binom(n, 2)."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    return comb(n, 2)


def pair(i: int, j: int) -> tuple[int, int]:
    """Normalize an index pair to i <= j (symmetric-variable convention)."""
    return (i, j) if i <= j else (j, i)


@lru_cache(maxsize=None)
def variable_multisets(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All weight-d multisets over [n] in lexicographic order."""
    check_size(d, n)
    return tuple(combinations_with_replacement(range(1, n + 1), d))


@lru_cache(maxsize=None)
def column_position(d: int, n: int) -> dict[tuple[int, ...], int]:
    return {ms: k for k, ms in enumerate(variable_multisets(d, n))}


@lru_cache(maxsize=None)
def column_supports(d: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per column: the (row, multiplicity) pairs of its multiset."""
    out = []
    for ms in variable_multisets(d, n):
        counts: dict[int, int] = {}
        for i in ms:
            counts[i] = counts.get(i, 0) + 1
        out.append(tuple(sorted(counts.items())))
    return tuple(out)


@lru_cache(maxsize=None)
def veronese_matrix(d: int, n: int) -> IntMatrix:
    """Grading matrix of the d-th Veronese embedding of [n].

    Its columns are ``variable_multisets(d, n)``: the entry at (i, column
    of m) is the multiplicity of i in the multiset m.  For d = 2 the
    column count is binom(n+1, 2).
    """
    check_size(d, n)
    cols = variable_multisets(d, n)
    return IntMatrix([[ms.count(i) for ms in cols] for i in range(1, n + 1)])


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial, dense in the fixed column order.

    All exponents are nonnegative; ``exps[k]`` is the exponent of the
    k-th pair variable of ``variable_multisets(2, n)``.
    """

    n: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.exps) != len(variable_multisets(2, self.n)):
            raise IndexOutOfRange("exponent vector length does not match n")
        if min(self.exps) < 0:
            raise ValueError("negative exponent")

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls(n, (0,) * len(variable_multisets(2, n)))

    @classmethod
    def variable(cls, n: int, i: int, j: int) -> "Monomial":
        return cls.from_pairs(n, {pair(i, j): 1})

    @classmethod
    def from_pairs(cls, n: int, exponents: dict[tuple[int, int], int]) -> "Monomial":
        pos = column_position(2, n)
        exps = [0] * len(pos)
        for (i, j), e in exponents.items():
            exps[pos[pair(i, j)]] += e
        return cls(n, tuple(exps))

    def get(self, i: int, j: int) -> int:
        return self.exps[column_position(2, self.n)[pair(i, j)]]

    def support(self):
        """Yield (multiset, exponent) over nonzero positions."""
        cols = variable_multisets(2, self.n)
        for k, e in enumerate(self.exps):
            if e:
                yield cols[k], e

    def degree(self) -> tuple[int, ...]:
        """Multidegree under the Veronese grading (row-count vector)."""
        deg = [0] * self.n
        supports = column_supports(2, self.n)
        for k, e in enumerate(self.exps):
            if e:
                for row, mult in supports[k]:
                    deg[row - 1] += mult * e
        return tuple(deg)

    def total_degree(self) -> int:
        return sum(self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise IndexOutOfRange("monomials over different variable sets")
        return Monomial(self.n, tuple(map(add, self.exps, other.exps)))

    __mul__ = mul

    def __str__(self):
        parts = []
        for ms, e in self.support():
            parts.extend(["x" + "".join(str(i) for i in ms)] * e)
        return "*".join(parts) if parts else "1"


def minor_vector(i: int, j: int, k: int, l: int, n: int) -> tuple[int, ...]:
    """Signed exponent vector of the 2-minor on rows {i, j}, columns {k, l}.

    This is ``e(i,k) + e(j,l) - e(i,l) - e(j,k)`` after symmetric-pair
    normalization, dense in the column order of ``variable_multisets(2,
    n)``; coinciding pairs accumulate.
    """
    for idx in (i, j, k, l):
        if not 1 <= idx <= n:
            raise IndexOutOfRange(f"index {idx} outside [1, {n}]")
    pos = column_position(2, n)
    vec = [0] * len(pos)
    vec[pos[pair(i, k)]] += 1
    vec[pos[pair(j, l)]] += 1
    vec[pos[pair(i, l)]] -= 1
    vec[pos[pair(j, k)]] -= 1
    return tuple(vec)


def veronese_lattice_basis(n: int) -> list[tuple[int, ...]]:
    """Basis of the kernel lattice of the weight-2 grading matrix.

    The basis consists of the 2-minor vectors on row pairs {i, j} of
    [n-1] against the last column; there are binom(n, 2) of them and
    deleting the last-column coordinates leaves an identity matrix, so
    the spanned lattice is saturated.
    """
    if n < 2:
        raise IndexOutOfRange("need n >= 2")
    check_size(2, n)
    return [minor_vector(i, n, j, n, n)
            for i in range(1, n) for j in range(i, n)]


def principal_minor_basis(n: int) -> list[tuple[int, ...]]:
    """Minimal generating set of the principal-minor lattice.

    Doubles of the off-diagonal kernel basis vectors together with the
    diagonal ones; binom(n-1, 2) + (n - 1) vectors in total.
    """
    if n < 2:
        raise IndexOutOfRange("need n >= 2")
    check_size(2, n)
    doubled = [tuple(2 * v for v in minor_vector(i, n, j, n, n))
               for i in range(1, n) for j in range(i + 1, n)]
    diagonal = [minor_vector(i, n, i, n, n) for i in range(1, n)]
    return doubled + diagonal

