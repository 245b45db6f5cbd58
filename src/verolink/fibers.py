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
from itertools import combinations_with_replacement
from math import comb

from .errors import IndexOutOfRange, SizeCapExceeded, SizeMismatch
from .veronese import (Monomial, check_size, column_position, column_supports,
                       minor_vector, variable_multisets)

DEFAULT_SIZE_CAP = 10 ** 6


def size_cap() -> int:
    """Fiber-point cap, the one size limit of the package; the class
    search of ``_class_maxima`` counts its nodes against it, and
    ``_check_level`` the monomials of a degree level.

    VLAB_SIZE_CAP overrides the default and must be a non-negative
    integer; anything else raises ValueError naming the variable.
    """
    raw = os.environ.get("VLAB_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(
            f"VLAB_SIZE_CAP must be a non-negative integer, got {raw!r}")
    return limit


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


def _raw_fiber(d: int, n: int, b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All nonnegative solutions of V @ u == b as dense exponent tuples.

    Depth-first over the columns in lexicographic order, so the output
    comes out sorted ascending; any residual going negative prunes the
    branch, and the exponent of the last column touching a row is
    forced rather than searched.  Raises SizeCapExceeded once the
    solution count passes ``size_cap()``.
    """
    check_size(d, n)
    limit = size_cap()
    if len(b) != n:
        raise SizeMismatch("degree length differs from n")
    if any(x < 0 for x in b):
        return []
    if sum(b) % d:
        return []
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


def enumerate_fiber(n: int, b) -> list[Monomial]:
    """All monomials of multidegree b, in lexicographic exponent order.

    Empty when b is not in the grading monoid.  Raises SizeCapExceeded
    once the solution count passes ``size_cap()``.
    """
    return [Monomial(n, exps) for exps in _raw_fiber(2, n, tuple(b))]


def _check_level(n: int, s: int) -> None:
    """Raise SizeCapExceeded when the monomials of even coordinate sum s,
    the multisets of s/2 of the binom(n+1, 2) columns, pass
    ``size_cap()``."""
    check_size(2, n)
    limit = size_cap()
    count = comb(comb(n + 1, 2) + s // 2 - 1, s // 2)
    if count > limit:
        raise SizeCapExceeded(f"the {count} monomials of coordinate sum {s} "
                              f"exceed the size cap {limit}")


def _fibers_of_sum(n: int, s: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every nonempty fiber of coordinate sum s, keyed by its degree, each
    as ``_raw_fiber`` gives it, from one pass over the monomials of total
    degree s/2: each is made once, and no branch of a search dies.

    ``combinations_with_replacement`` gives the column multisets in
    lexicographic order, which is descending order on exponent tuples,
    so each degree's bucket is reversed.  Raises SizeCapExceeded when
    the level has more monomials than ``size_cap()``.
    """
    if s < 0 or s % 2:
        return {}
    _check_level(n, s)
    rows = [tuple(i - 1 for i in ms) for ms in variable_multisets(2, n)]
    ncols, r = len(rows), s // 2
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in combinations_with_replacement(range(ncols), r):
        exps, degree = [0] * ncols, [0] * n
        for c in combo:
            exps[c] += 1
            for i in rows[c]:
                degree[i] += 1
        fibers.setdefault(tuple(degree), []).append(tuple(exps))
    for fiber in fibers.values():
        fiber.reverse()
    return fibers


@lru_cache(maxsize=None)
def _parity_positions(n: int) -> tuple[int, ...]:
    """Column positions of the pairs {i < j <= n-1}, last pair first."""
    pos = column_position(2, n)
    return tuple(pos[(i, j)] for i in range(1, n)
                 for j in range(i + 1, n))[::-1]


def _class_maxima(n: int, b: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The largest exponent tuple of each parity class in the fiber of b,
    keyed by its ``off_diagonal_parities``, without enumerating the fiber.

    The DFS of ``_raw_fiber`` with exponents tried from high to low, so
    points come in descending order and the first of each parity mask is
    its class maximum.  The parity columns come in pair order, bit k at
    the k-th pair, so a node has fixed the low bits of the mask; it is
    skipped once every completion of those bits has been found.  Raises
    SizeCapExceeded once the visited nodes pass ``size_cap()``.
    """
    check_size(2, n)
    limit = size_cap()
    if len(b) != n:
        raise SizeMismatch("degree length differs from n")
    if any(x < 0 for x in b) or sum(b) % 2:
        return {}
    supports, finishing = _fiber_plan(2, n)
    ncols = len(supports)
    bit_of = {p: k for k, p in enumerate(reversed(_parity_positions(n)))}
    nbits = len(bit_of)
    # fixed[c]: parity bits fixed before column c; found[f][prefix]:
    # classes found whose mask has the low f bits ``prefix``.
    fixed = [sum(p < c for p in bit_of) for c in range(ncols + 1)]
    found: list[dict[int, int]] = [{} for _ in range(nbits + 1)]
    residual = list(b)
    exps = [0] * ncols
    maxima: dict[int, tuple[int, ...]] = {}
    visited = 0

    def rec(c: int, prefix: int) -> None:
        nonlocal visited
        f = fixed[c]
        if found[f].get(prefix, 0) == 1 << (nbits - f):
            return
        visited += 1
        if visited > limit:
            raise SizeCapExceeded(
                f"class search in the fiber of {b} exceeds the size cap {limit}")
        if c == ncols:
            maxima[prefix] = tuple(exps)
            for g in range(nbits + 1):
                low = prefix & ((1 << g) - 1)
                found[g][low] = found[g].get(low, 0) + 1
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
        bit = bit_of.get(c)
        for e in range(hi, lo - 1, -1):
            for row, mult in sup:
                residual[row - 1] -= mult * e
            exps[c] = e
            rec(c + 1, prefix if bit is None else prefix | (e & 1) << bit)
            exps[c] = 0
            for row, mult in sup:
                residual[row - 1] += mult * e

    rec(0, 0)
    return maxima


def off_diagonal_parities(exps: tuple[int, ...], n: int) -> int:
    """Exponents of the pairs {i < j <= n-1} in dense weight-2 ``exps``
    modulo two, as a bit mask: bit k is the k-th pair in lexicographic
    order, the order of ``SignCharacter.signs``."""
    mask = 0
    for p in _parity_positions(n):
        mask = mask << 1 | exps[p] & 1
    return mask


@dataclass(frozen=True)
class FiberClassKey:
    """Complete invariant of a fiber point modulo the principal-minor lattice.

    ``parities`` is the bit mask of the exponents of the off-diagonal
    pairs of [n-1] modulo two, bit k for the k-th pair in lexicographic
    order (see ``off_diagonal_parities``); together with the
    multidegree it separates equivalence classes because every
    principal-minor move changes each off-diagonal entry by an even
    amount.
    """

    degree: tuple[int, ...]
    parities: int


def class_key(u: Monomial) -> FiberClassKey:
    return FiberClassKey(degree=u.degree(),
                         parities=off_diagonal_parities(u.exps, u.n))


def class_count(n: int, b) -> int:
    """Number of equivalence classes in the fiber of b.

    Equals the graded Hilbert function of the quotient by the
    principal-minor ideal at b.
    """
    raw = _raw_fiber(2, n, tuple(b))
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


def connectivity_classes(n: int, b, moves: list[tuple[int, ...]]
                         ) -> list[list[Monomial]]:
    """Partition the fiber of b into components of the move graph.

    Edges join u and u + m for each move m whenever both endpoints are
    nonnegative.  With the principal 2-minor vectors as moves this is
    the brute-force oracle for ``class_key``.
    """
    size = len(variable_multisets(2, n))
    if any(len(m) != size for m in moves):
        raise SizeMismatch("move over a different variable set")
    raw = _raw_fiber(2, n, tuple(b))
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

    for exps, k in index.items():
        for mv in moves:
            neighbor = tuple(a + c for a, c in zip(exps, mv))
            if all(x >= 0 for x in neighbor):
                j = index.get(neighbor)
                if j is not None:
                    union(k, j)

    groups: dict[int, list[tuple[int, ...]]] = {}
    for exps, k in index.items():
        groups.setdefault(find(k), []).append(exps)
    components = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    return [[Monomial(n, exps) for exps in comp] for comp in components]


def principal_moves(n: int) -> list[tuple[int, ...]]:
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


def hilbert_table(n: int, max_sum: int):
    """Per-degree fiber sizes and class counts up to a coordinate sum.

    Yields (degree, fiber size, class count, saturated flag) rows.  A
    negative max sum raises ValueError.
    """
    if max_sum < 0:
        raise ValueError("a negative max sum leaves no degree to tabulate")
    for b in degrees_up_to(n, max_sum):
        raw = _raw_fiber(2, n, b)
        classes = len({off_diagonal_parities(e, n) for e in raw})
        yield b, len(raw), classes, is_saturated_degree(n, b)


def fiber_classes(n: int, b) -> list[list[Monomial]]:
    """Fiber of b grouped by class key; classes ordered by first member."""
    grouped: dict[int, list[Monomial]] = {}
    for u in enumerate_fiber(n, b):
        grouped.setdefault(off_diagonal_parities(u.exps, n), []).append(u)
    return sorted(grouped.values(), key=lambda g: g[0].exps)


__all__ = [
    "DEFAULT_SIZE_CAP", "FiberClassKey", "canonical_representative",
    "class_count", "class_key", "connectivity_classes",
    "degrees_up_to", "enumerate_fiber", "fiber_classes", "hilbert_table",
    "is_saturated_degree", "minimal_saturated_fibers",
    "off_diagonal_parities", "principal_moves", "size_cap",
]
