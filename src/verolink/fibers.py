"""Fiber enumeration and equivalence classes of the grading map.

A fiber is the set of monomials of a fixed multidegree b.  Two fiber
points are equivalent modulo the principal-minor lattice exactly when
their off-diagonal entries away from the last column agree modulo two;
``off_diagonal_parities`` reads that invariant off directly, while
``connectivity_classes`` recovers the partition by brute-force walks
and serves as its independent oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import IndexOutOfRange, SizeCapExceeded, SizeMismatch
from .veronese import (GradingMatrix, LatticeVector, Monomial, check_size,
                       column_position, column_supports, minor_vector)

DEFAULT_SIZE_CAP = 10 ** 6


def size_cap() -> int:
    """Fiber-point cap; VLAB_SIZE_CAP overrides it and must be an integer."""
    raw = os.environ.get("VLAB_SIZE_CAP")
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"VLAB_SIZE_CAP must be an integer, got {raw!r}") from None
    return DEFAULT_SIZE_CAP


def degree_of(u: Monomial, V: GradingMatrix) -> tuple[int, ...]:
    """Multidegree of u, i.e. the matrix-vector product V @ u."""
    if (u.d, u.n) != (V.d, V.n):
        raise SizeMismatch("monomial not indexed compatibly with the grading")
    return u.degree()


@lru_cache(maxsize=None)
def _fiber_plan(d: int, n: int):
    """Static data for the fiber DFS over one variable set.

    Returns (supports, finishing) where supports[c] lists the
    (row, multiplicity) pairs of column c and finishing[c] the rows
    whose last touching column is c; their residual degree is forced
    once the DFS reaches c.
    """
    supports = column_supports(d, n)
    last = {}
    for c, sup in enumerate(supports):
        for row, _ in sup:
            last[row] = c
    finishing = tuple(tuple(row for row, _ in supports[c] if last[row] == c)
                      for c in range(len(supports)))
    return supports, finishing


def _raw_fiber(d: int, n: int, b: tuple[int, ...], cap: int | None) -> list[tuple[int, ...]]:
    """All nonnegative solutions of V @ u == b as dense exponent tuples.

    Depth-first over the columns in lexicographic order, so the output
    comes out sorted ascending; any residual going negative prunes the
    branch, and the exponent of the last column touching a row is
    forced rather than searched.
    """
    check_size(d, n)
    if len(b) != n:
        raise SizeMismatch("degree length differs from n")
    if any(x < 0 for x in b):
        return []
    if sum(b) % d:
        return []
    limit = size_cap() if cap is None else cap
    supports, finishing = _fiber_plan(d, n)
    ncols = len(supports)
    residual = list(b)
    exps = [0] * ncols
    out: list[tuple[int, ...]] = []

    def rec(c: int) -> None:
        if c == ncols:
            if len(out) >= limit:
                raise SizeCapExceeded(
                    f"fiber of {b} exceeds the size cap {limit}")
            out.append(tuple(exps))
            return
        sup = supports[c]
        hi = min(residual[row - 1] // mult for row, mult in sup)
        lo = 0
        for row in finishing[c]:
            mult = next(m for r, m in sup if r == row)
            if residual[row - 1] % mult:
                return
            forced = residual[row - 1] // mult
            if forced < lo or forced > hi:
                return
            lo = hi = forced
        for e in range(lo, hi + 1):
            if e:
                for row, mult in sup:
                    residual[row - 1] -= mult * e
            exps[c] = e
            rec(c + 1)
            exps[c] = 0
            if e:
                for row, mult in sup:
                    residual[row - 1] += mult * e

    rec(0)
    return out


def enumerate_fiber(V: GradingMatrix, b, cap: int | None = None) -> list[Monomial]:
    """All monomials of multidegree b, in lexicographic exponent order.

    Empty when b is not in the grading monoid.  Raises SizeCapExceeded
    once the solution count passes the cap (default ``size_cap()``).
    """
    raw = _raw_fiber(V.d, V.n, tuple(b), cap)
    return [Monomial(V.n, exps, V.d) for exps in raw]


@lru_cache(maxsize=None)
def _parity_positions(n: int) -> tuple[int, ...]:
    """Column positions of the pairs {i < j <= n-1} (lexicographic)."""
    pos = column_position(2, n)
    return tuple(pos[(i, j)] for i in range(1, n) for j in range(i + 1, n))


def off_diagonal_parities(exps: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Exponents of the pairs {i < j <= n-1} in dense weight-2 ``exps``
    modulo two, in lexicographic pair order."""
    return tuple([exps[p] & 1 for p in _parity_positions(n)])


@dataclass(frozen=True)
class FiberClassKey:
    """Complete invariant of a fiber point modulo the principal-minor lattice.

    ``parities`` collects the exponents of the off-diagonal pairs of
    [n-1] modulo two, in lexicographic pair order; together with the
    multidegree it separates equivalence classes because every
    principal-minor move changes each off-diagonal entry by an even
    amount.
    """

    degree: tuple[int, ...]
    parities: tuple[int, ...]


def class_key(u: Monomial) -> FiberClassKey:
    if u.d != 2:
        raise SizeMismatch("class keys are defined for weight-2 monomials")
    return FiberClassKey(degree=u.degree(),
                         parities=off_diagonal_parities(u.exps, u.n))


def class_count(n: int, b, cap: int | None = None) -> int:
    """Number of equivalence classes in the fiber of b.

    Equals the graded Hilbert function of the quotient by the
    principal-minor ideal at b.
    """
    raw = _raw_fiber(2, n, tuple(b), cap)
    return len({off_diagonal_parities(exps, n) for exps in raw})


def is_saturated_degree(n: int, b) -> bool:
    """True when every coordinate of b is at least n - 2.

    At such degrees the class count stabilizes at 2**binom(n-1, 2).
    """
    return all(x >= n - 2 for x in b)


def minimal_saturated_fibers(n: int) -> list[tuple[int, ...]]:
    """Minimal multidegrees at which the class count stabilizes.

    For odd n the constant vector (n-2, ..., n-2) has odd coordinate
    sum and misses the grading monoid, so there are n minimal degrees,
    one per unit-vector bump; for even n the constant vector itself is
    the single minimal degree.
    """
    if n < 3:
        raise IndexOutOfRange("need n >= 3")
    base = [n - 2] * n
    if n % 2 == 0:
        return [tuple(base)]
    out = []
    for i in range(n):
        bumped = base[:]
        bumped[i] += 1
        out.append(tuple(bumped))
    return out


def connectivity_classes(V: GradingMatrix, b, moves: list[LatticeVector],
                         cap: int | None = None) -> list[list[Monomial]]:
    """Partition the fiber of b into components of the move graph.

    Edges join u and u + m for each move m whenever both endpoints are
    nonnegative.  With the principal 2-minor vectors as moves this is
    the brute-force oracle for ``class_key``.
    """
    if V.d != 2:
        raise SizeMismatch("walk connectivity is defined for weight 2")
    for m in moves:
        if m.n != V.n:
            raise SizeMismatch("move over a different variable set")
    raw = _raw_fiber(2, V.n, tuple(b), cap)
    index = {exps: k for k, exps in enumerate(raw)}
    parent = list(range(len(raw)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    move_tuples = [m.entries for m in moves]
    for exps, k in index.items():
        for mv in move_tuples:
            neighbor = tuple(a + c for a, c in zip(exps, mv))
            if all(x >= 0 for x in neighbor):
                j = index.get(neighbor)
                if j is not None:
                    union(k, j)

    groups: dict[int, list[tuple[int, ...]]] = {}
    for exps, k in index.items():
        groups.setdefault(find(k), []).append(exps)
    components = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    return [[Monomial(V.n, exps) for exps in comp] for comp in components]


def principal_moves(n: int) -> list[LatticeVector]:
    """The principal 2-minor vectors, the Markov moves of the walk oracle."""
    return [minor_vector(i, j, i, j, n)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def canonical_representative(points: list[Monomial]) -> Monomial:
    """First point in dictionary order on variable strings.

    Reading a monomial as its sorted variable sequence, the dictionary
    least element is the one with the lexicographically largest dense
    exponent tuple.
    """
    if not points:
        raise ValueError("empty point list")
    return max(points, key=lambda m: m.exps)


def degrees_up_to(n: int, bound: int):
    """All degrees with even coordinate sum <= bound, in lex order.

    Odd sums are skipped: they miss the weight-2 grading monoid.
    """
    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for s in range(0, bound + 1, 2):
        yield from compositions(s, n)


def hilbert_table(n: int, max_sum: int, cap: int | None = None):
    """Per-degree fiber sizes and class counts up to a coordinate sum.

    Yields (degree, fiber size, class count, saturated flag) rows.
    """
    for b in degrees_up_to(n, max_sum):
        raw = _raw_fiber(2, n, b, cap)
        classes = len({off_diagonal_parities(e, n) for e in raw})
        yield b, len(raw), classes, is_saturated_degree(n, b)


def fiber_classes(V: GradingMatrix, b, cap: int | None = None
                  ) -> list[list[Monomial]]:
    """Fiber of b grouped by class key; classes ordered by first member."""
    points = enumerate_fiber(V, b, cap)
    grouped: dict[tuple[int, ...], list[Monomial]] = {}
    for u in points:
        grouped.setdefault(off_diagonal_parities(u.exps, V.n), []).append(u)
    return sorted(grouped.values(), key=lambda g: g[0].exps)


__all__ = [
    "DEFAULT_SIZE_CAP", "FiberClassKey", "canonical_representative",
    "class_count", "class_key", "connectivity_classes", "degree_of",
    "degrees_up_to", "enumerate_fiber", "fiber_classes", "hilbert_table",
    "is_saturated_degree", "minimal_saturated_fibers",
    "off_diagonal_parities", "principal_moves", "size_cap",
]
