"""Generating sets of the Veronese ideals and their complete intersections."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .exactlin import IntMatrix
from .fibers import _check_level
from .poly import SparsePoly
from .veronese import (check_size, column_position, monomial,
                       variable_multisets)


def principal_minor_gens(n: int) -> list[SparsePoly]:
    """The binomials x_ii*x_jj - x_ij^2 over all pairs i < j of [n].

    These cut out the principal-minor complete intersection; each is
    homogeneous of multidegree 2e_i + 2e_j.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_size(2, n)
    return [SparsePoly(n, {monomial(n, {(i, i): 1, (j, j): 1}): 1,
                           monomial(n, {(i, j): 2}): -1})
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def veronese_minor_gens(n: int) -> list[SparsePoly]:
    """All 2-minors of the generic symmetric matrix, up to sign: x^a - x^b
    for each pair of points a > b of a fiber of coordinate sum 4, sorted
    by leading monomial, descending.  They generate the full second
    Veronese ideal.

    These are the nonzero minors.  Both monomials of x_ik*x_jl - x_il*x_jk
    have the degree e_i + e_j + e_k + e_l, so each is a pair of points of
    one sum-4 fiber.  Conversely, every sum-4 fiber has at most three
    points, and every pair of them is a minor: {x_ii*x_jj, x_ij^2} at
    2e_i + 2e_j, {x_ii*x_jk, x_ij*x_ik} at 2e_i + e_j + e_k, and any two
    of the three products x_ij*x_kl, x_ik*x_jl, x_il*x_jk at
    e_i + e_j + e_k + e_l; the fibers of 4e_i and 3e_i + e_j have one
    point.  The fibers are the products of two variables grouped by
    degree, their sorted index 4-tuple; pairs of columns come in
    lexicographic order, descending on exponents, so each group lists its
    larger point first.  ``_check_level`` counts the products first.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_level(n, 4)
    cols = variable_multisets(2, n)
    fibers = {}
    for p, q in combinations_with_replacement(range(len(cols)), 2):
        exps = [0] * len(cols)
        exps[p] += 1
        exps[q] += 1
        fibers.setdefault(tuple(sorted(cols[p] + cols[q])), []).append(tuple(exps))
    pairs = sorted((pair for fiber in fibers.values()
                    for pair in combinations(fiber, 2)), reverse=True)
    return [SparsePoly(n, {a: 1, b: -1}) for a, b in pairs]


def higher_veronese_gens(d: int, n: int) -> list[tuple[int, ...]]:
    """Signed exponent vectors of the diagonal-comparison binomials of
    the weight-d grading.

    One binomial x_v^d - prod_i x_(d*e_i)^(v_i) per non-diagonal column
    v, given as its exponent vector: d at v, minus the multiplicity of
    i in v at the diagonal column d*e_i, dense in the column order of
    ``variable_multisets(d, n)``.  The count is the column count minus n.
    """
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    check_size(d, n)
    cols = variable_multisets(d, n)
    pos = column_position(d, n)
    diag = {(i,) * d for i in range(1, n + 1)}
    out = []
    for ms in cols:
        if ms in diag:
            continue
        vec = [0] * len(cols)
        vec[pos[ms]] = d
        for i in ms:
            vec[pos[(i,) * d]] -= 1
        out.append(tuple(vec))
    return out


def generator_lattice(vectors: list[tuple[int, ...]]) -> IntMatrix:
    """Columns: the signed exponent vectors of difference binomials, as
    returned by ``higher_veronese_gens``."""
    if not vectors:
        raise ValueError("empty generator list")
    return IntMatrix.from_columns(vectors, rows=len(vectors[0]))


__all__ = [
    "generator_lattice", "higher_veronese_gens", "principal_minor_gens",
    "veronese_minor_gens",
]
