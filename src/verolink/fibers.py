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
import re
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add, ge

from .errors import SizeCapExceeded
from .veronese import (character_pairs, check_size, column_position,
                       column_supports, minor_vector, monomial_degree,
                       variable_multisets)

DEFAULT_SIZE_CAP = 10 ** 6
#: An integer as read from outside input: ASCII digits, an optional sign
#: and surrounding whitespace; ``int()`` alone also takes ``1_0`` and
#: non-ASCII digits.
ASCII_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def size_cap() -> int:
    """Fiber-point cap, the one size limit of the package.  Through
    ``_check_count``, ``_class_maxima`` counts against it the
    2^binom(n-1, 2) parity classes it builds, ``link.zonotope_poly`` its
    2^binom(n-1, 2) terms, and ``_check_level`` the monomials of a
    degree level.

    VLAB_SIZE_CAP overrides the default and must be a non-negative
    integer in ASCII digits, with an optional sign and surrounding
    spaces; anything else (``1_0``, non-ASCII digits) raises ValueError
    naming the variable.
    """
    raw = os.environ.get("VLAB_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    limit = int(raw) if ASCII_INTEGER.fullmatch(raw) else -1
    if limit < 0:
        raise ValueError(
            f"VLAB_SIZE_CAP must be a non-negative integer, got {raw!r}")
    return limit


def _check_count(count: int, what: str) -> None:
    """Raise SizeCapExceeded, naming the ``count`` ``what``, when count
    passes ``size_cap()``."""
    limit = size_cap()
    if count > limit:
        raise SizeCapExceeded(f"the {count} {what} exceed the size cap {limit}")


@lru_cache(maxsize=None)
def _fiber_blocks(d: int, n: int):
    """The columns grouped into blocks by their least row, for the
    search of ``_raw_fiber``.

    Block i holds the columns whose multiset starts with i; no later
    block touches row i, so its last column is the last to touch it.
    Each column is given as its (row index, multiplicity) pairs, row i
    first.
    """
    supports = column_supports(d, n)
    multisets = variable_multisets(d, n)
    return tuple(tuple(tuple((r - 1, m) for r, m in supports[c])
                       for c, ms in enumerate(multisets) if ms[0] == row)
                 for row in range(1, n + 1))


def _raw_fiber(d: int, n: int, b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All nonnegative solutions of V @ u == b as dense exponent tuples,
    sorted ascending, in a fresh list.

    The columns fall into blocks by their least row (``_fiber_blocks``).
    A block uses up its row, so the points the later blocks add depend
    only on the residual of the later rows: the suffix list of that
    residual, built once and kept in a memo for this call.  Each block
    is searched depth-first in column order, which keeps the output
    sorted; a branch dies when a residual goes negative or more of the
    block's row is left than its later columns can take, which forces
    the exponent of its last column.  Block points are made as they are
    consumed.  The lists being built hold tails of distinct points of
    the fiber, so their total counts against ``size_cap()`` as they
    grow: SizeCapExceeded is raised exactly when the fiber has more
    points than the cap, as soon as the lists in progress pass it.
    """
    check_size(d, n)
    limit = size_cap()
    if len(b) != n:
        raise ValueError("degree length differs from n")
    if any(x < 0 for x in b):
        return []
    if sum(b) % d:
        return []
    blocks = _fiber_blocks(d, n)
    memo: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}

    def block_points(k: int, residual: list[int]):
        """Yield (exponents, residual left) for each point of block k."""
        cols = blocks[k]
        last = len(cols) - 1
        # room[p]: an upper bound on the share of row k that the columns
        # after p can take.
        room, acc = [0] * len(cols), 0
        for p in range(last, 0, -1):
            room[p] = acc
            sup = cols[p]
            take = residual[k] // sup[0][1]
            for r, m in sup[1:]:
                if residual[r] // m < take:
                    take = residual[r] // m
            acc += sup[0][1] * take
        room[0] = acc
        exps = [0] * len(cols)

        def rec(p: int):
            sup = cols[p]
            own = sup[0][1]
            lo = max(0, -((room[p] - residual[k]) // own))
            hi = residual[k] // own
            for r, m in sup[1:]:
                if residual[r] // m < hi:
                    hi = residual[r] // m
            for e in range(lo, hi + 1):
                for r, m in sup:
                    residual[r] -= m * e
                exps[p] = e
                if p == last:
                    yield tuple(exps), tuple(residual)
                else:
                    yield from rec(p + 1)
                for r, m in sup:
                    residual[r] += m * e

        return rec(0)

    # held: the points in the lists of the searches in progress, each
    # the tail of a different point of the fiber.
    held = 0

    def suffixes(k: int, residual: tuple[int, ...]) -> list[tuple[int, ...]]:
        nonlocal held
        if (k, residual) in memo:
            return memo[k, residual]
        out: list[tuple[int, ...]] = []
        for exps, left in block_points(k, list(residual)):
            tails = suffixes(k + 1, left) if k + 1 < n else [()]
            out.extend(map(exps.__add__, tails))
            held += len(tails)
            if held > limit:
                raise SizeCapExceeded(
                    f"fiber of {b} exceeds the size cap {limit}")
        held -= len(out)
        memo[k, residual] = out
        return out

    return suffixes(0, tuple(b))


def enumerate_fiber(n: int, b) -> list[tuple[int, ...]]:
    """All monomials of multidegree b as dense exponent tuples, in
    lexicographic order.

    Empty when b is not in the grading monoid.  Raises SizeCapExceeded
    once the solution count passes ``size_cap()``.
    """
    return _raw_fiber(2, n, tuple(b))


def _check_level(n: int, s: int) -> None:
    """Raise SizeCapExceeded when the monomials of even coordinate sum s,
    the multisets of s/2 of the binom(n+1, 2) columns, pass
    ``size_cap()``."""
    check_size(2, n)
    _check_count(comb(comb(n + 1, 2) + s // 2 - 1, s // 2),
                 f"monomials of coordinate sum {s}")


def _fibers_of_sum(n: int, s: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every nonempty fiber of coordinate sum s, keyed by its degree, each
    as ``_raw_fiber`` gives it, from one pass over the monomials of total
    degree s/2: each is made once, and no branch of a search dies.

    ``combinations_with_replacement`` gives the column multisets in
    lexicographic order, which is descending order on exponent tuples,
    so each degree's bucket is reversed.  Raises SizeCapExceeded when
    the level has more monomials than ``size_cap()``.  Its one caller is
    ``ideals.veronese_minor_gens``, at sum 4.
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
    """Column positions of ``character_pairs(n)``, last pair first."""
    pos = column_position(2, n)
    return tuple(pos[p] for p in character_pairs(n))[::-1]


def _class_maxima(n: int, b: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The largest exponent tuple of each parity class in the fiber of b,
    keyed by its ``off_diagonal_parities``, without enumerating the fiber.

    Weight each off-diagonal variable 1 and each diagonal one 0: the
    principal minors x_ii*x_jj - x_ij^2 then have pairwise coprime
    leading terms x_ij^2, so they are a Groebner basis, and the class
    maximum is the one standard monomial of its class:

    - a move x_ii*x_jj <-> x_ij^2 keeps the degree and the parities, and
      rewriting x_ij^2 -> x_ii*x_jj terminates, so every nonempty class
      has a member whose off-diagonal exponents are all 0 or 1;
    - the degree and the B = binom(n-1, 2) parities fix that member: the
      bits give each x_ij with j < n, b_i then gives the parity of x_in,
      and the degree the diagonal (row n's remainder is even, as sum(b)
      is);
    - it is the class maximum.  Read row by row in column order: every
      member has each x_1j at least the standard one's, since they agree
      mod 2 and the standard one is 0 or 1, so x_11 is largest exactly
      at the standard member; the same holds for each later row.

    Each of the 2^B masks is built once and dropped when a row has a
    negative remainder.  Raises SizeCapExceeded before any work when
    2^B, the class count at every saturated degree, passes
    ``size_cap()``.
    """
    check_size(2, n)
    if len(b) != n:
        raise ValueError("degree length differs from n")
    if any(x < 0 for x in b) or sum(b) % 2:
        return {}
    pos = column_position(2, n)
    pairs = [(pos[i, j], i - 1, j - 1) for i, j in character_pairs(n)]
    classes = 1 << len(pairs)
    _check_count(classes, f"classes of the fiber of {b}")
    maxima: dict[int, tuple[int, ...]] = {}
    for mask in range(classes):
        exps, left = [0] * len(pos), list(b)
        for k, (p, i, j) in enumerate(pairs):
            if mask >> k & 1:
                exps[p] = 1
                left[i] -= 1
                left[j] -= 1
        for i in range(n - 1):
            if left[i] % 2:
                exps[pos[i + 1, n]] = 1
                left[i] -= 1
                left[n - 1] -= 1
        if min(left) < 0:
            continue
        for i in range(n):
            exps[pos[i + 1, i + 1]] = left[i] // 2
        maxima[mask] = tuple(exps)
    return maxima


def off_diagonal_parities(exps: tuple[int, ...], n: int) -> int:
    """Exponents of the pairs {i < j <= n-1} in dense weight-2 ``exps``
    modulo two, as a bit mask: bit k is the k-th pair in lexicographic
    order, the order of the bits of a sign character (``character_pairs``).
    A tuple of the wrong length for n raises ValueError."""
    positions = _parity_positions(n)
    if len(exps) != comb(n + 1, 2):
        raise ValueError("monomial over a different variable set")
    mask = 0
    for p in positions:
        mask = mask << 1 | exps[p] & 1
    return mask


def class_key(u: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """Complete invariant of a fiber point, a dense exponent tuple over n
    indices, modulo the principal-minor lattice: the pair (degree,
    parities).

    ``parities`` is ``off_diagonal_parities`` of the point; together
    with the multidegree it separates equivalence classes because every
    principal-minor move changes each off-diagonal entry by an even
    amount.
    """
    return monomial_degree(u, n), off_diagonal_parities(u, n)


def _components(fiber: list[tuple[int, ...]], index: dict[tuple[int, ...], int],
                edges: list[tuple]) -> tuple[list[int], int]:
    """Each fiber point's component, numbered in the order of first
    points, and the component count, for edges (u0, du) joining p to
    p + du at each p >= u0 (entrywise); a p + du outside the fiber joins
    nothing.  ``index`` maps each point to its position in the fiber."""
    parent = list(range(len(fiber)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u0, du in edges:
        for k, p in enumerate(fiber):
            if all(map(ge, p, u0)):
                j = index.get(tuple(map(add, p, du)))
                if j is not None:
                    parent[find(j)] = find(k)
    roots: dict[int, int] = {}
    component = [roots.setdefault(find(k), len(roots))
                 for k in range(len(fiber))]
    return component, len(roots)


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
        raise ValueError("need n >= 3")
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
                         ) -> list[list[tuple[int, ...]]]:
    """Partition the fiber of b into components of the move graph.

    Edges join u and u + m for each move m whenever both endpoints are
    nonnegative: the ``_components`` edge whose u0 is the negative part
    of m.  With the principal 2-minor vectors as moves this is the
    brute-force oracle for ``class_key``.
    """
    size = len(variable_multisets(2, n))
    if any(len(m) != size for m in moves):
        raise ValueError("move over a different variable set")
    raw = _raw_fiber(2, n, tuple(b))
    edges = [(tuple(max(-e, 0) for e in m), m) for m in moves]
    component, count = _components(raw, {p: k for k, p in enumerate(raw)},
                                   edges)
    # ``raw`` is sorted, so each group is too.
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(count)]
    for exps, c in zip(raw, component):
        groups[c].append(exps)
    return sorted(groups)


def principal_moves(n: int) -> list[tuple[int, ...]]:
    """The principal 2-minor vectors, the Markov moves of the walk oracle."""
    return [minor_vector(i, j, i, j, n)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def canonical_representative(points: list[tuple[int, ...]]) -> tuple[int, ...]:
    """First point in dictionary order on variable strings.

    Reading a monomial as its sorted variable sequence, the dictionary
    least element is the one with the lexicographically largest dense
    exponent tuple.
    """
    if not points:
        raise ValueError("empty point list")
    return max(points)


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

    check_size(2, n)
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


def fiber_classes(n: int, b) -> list[list[tuple[int, ...]]]:
    """Fiber of b grouped by class key; classes ordered by first member."""
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for u in enumerate_fiber(n, b):
        grouped.setdefault(off_diagonal_parities(u, n), []).append(u)
    return sorted(grouped.values())


__all__ = [
    "DEFAULT_SIZE_CAP", "canonical_representative",
    "class_count", "class_key", "connectivity_classes",
    "degrees_up_to", "enumerate_fiber", "fiber_classes", "hilbert_table",
    "is_saturated_degree", "minimal_saturated_fibers",
    "off_diagonal_parities", "principal_moves", "size_cap",
]
