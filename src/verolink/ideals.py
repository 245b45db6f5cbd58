"""Generating sets of the Veronese ideals and their complete intersections."""

from __future__ import annotations

from .exactlin import IntMatrix
from .poly import SparsePoly
from .veronese import (check_size, column_position, minor_vector,
                       variable_multisets)


def binomial_from_vector(n: int, v: tuple[int, ...]) -> SparsePoly:
    """The pure difference binomial x^(v+) - x^(v-) of a signed exponent
    vector, dense in the column order of ``variable_multisets(2, n)``."""
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return SparsePoly(n, {plus: 1}) - SparsePoly(n, {minus: 1})


def principal_minor_gens(n: int) -> list[SparsePoly]:
    """The binomials x_ii*x_jj - x_ij^2 over all pairs i < j of [n].

    These cut out the principal-minor complete intersection; each is
    homogeneous of multidegree 2e_i + 2e_j.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_size(2, n)
    return [binomial_from_vector(n, minor_vector(i, j, i, j, n))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def veronese_minor_gens(n: int) -> list[SparsePoly]:
    """All 2-minors of the generic symmetric matrix, deduplicated up to sign.

    Quadruples i <= j, k <= l are enumerated, zero minors discarded, and
    each survivor is normalized so its leading monomial (largest dense
    exponent tuple) carries a plus sign.  The result generates the full
    second Veronese ideal.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_size(2, n)
    seen = set()
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                for l in range(k, n + 1):
                    g = binomial_from_vector(n, minor_vector(i, j, k, l, n))
                    if g.is_zero():
                        continue
                    if g.sorted_terms()[0][1] < 0:
                        g = -g
                    fingerprint = tuple(sorted(g.terms.items()))
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    out.append(g)
    out.sort(key=lambda g: g.sorted_terms()[0][0], reverse=True)
    return out


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
    "binomial_from_vector", "generator_lattice", "higher_veronese_gens",
    "principal_minor_gens", "veronese_minor_gens",
]
