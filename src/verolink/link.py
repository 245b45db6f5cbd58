"""Link polynomials of the principal-minor complete intersection.

The complete intersection decomposes into twisted copies of the
Veronese ideal, one per sign character.  Dropping a single component
from the intersection yields the ideal generated by the binomial part
together with a handful of explicit polynomials: the twisted class
generating functions of the minimal saturated fibers.  This module
builds those polynomials and checks the identities relating them.
"""

from __future__ import annotations

from .fibers import _check_count, _class_maxima, minimal_saturated_fibers
from .ideals import principal_minor_gens
from .poly import SparsePoly, normal_form, twist, twisting_from_character
from .veronese import character_pairs, check_size, monomial, pair_count


def zonotope_poly(n: int) -> SparsePoly:
    """Generating function of the fundamental zonotope of the minor lattice.

    The product, over the off-diagonal pairs {i < j} of [n-1], of
    x_ij*x_nn + x_in*x_jn.  Homogeneous of multidegree
    (n-2, ..., n-2, 2*binom(n-1, 2)); all coefficients are one because
    the off-diagonal entries of a term identify its factor choices.
    Raises SizeCapExceeded before the first product when its
    2^binom(n-1, 2) terms pass ``size_cap()``.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    check_size(2, n)
    _check_count(1 << pair_count(n - 1), "terms of the zonotope polynomial")
    result = SparsePoly.constant(n, 1)
    for i, j in character_pairs(n):
        factor = SparsePoly(n, {monomial(n, {(i, j): 1, (n, n): 1}): 1,
                                monomial(n, {(i, n): 1, (j, n): 1}): 1})
        result = result * factor
    return result


def saturation_exponent(n: int) -> int:
    """Least last-diagonal entry among the zonotope terms.

    Equals binom(n-1, 2) - floor((n-1)/2); it measures how far the
    zonotope polynomial sits from the minimal saturated fiber.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return pair_count(n - 1) - (n - 1) // 2


def saturated_fiber_poly(n: int, i: int) -> SparsePoly:
    """Class generating function of the i-th minimal saturated fiber.

    One canonical monomial per equivalence class, coefficient one; the
    canonical member is the dictionary-least monomial of its class, its
    standard monomial, whose off-diagonal exponents are 0 or 1.  The
    term count is exactly 2**binom(n-1, 2).  For even n the single
    minimal fiber is addressed as i = 1.  ``_class_maxima`` builds the
    members directly, one per parity class, without the fiber.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    degrees = minimal_saturated_fibers(n)
    if n % 2 == 0:
        if i != 1:
            raise ValueError("even sizes have a single minimal fiber, i = 1")
        b = degrees[0]
    else:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside [1, {n}]")
        b = degrees[i - 1]
    return SparsePoly(n, dict.fromkeys(_class_maxima(n, b).values(), 1))


def check_saturation_identity(n: int) -> bool:
    """Identities tying the zonotope polynomial to the fiber polynomials.

    Writing s for the saturation exponent and working modulo the
    principal-minor ideal: for even n, x_nn^s times the fiber polynomial
    equals the zonotope polynomial; for odd n, x_nn^(s+1) times the i-th
    fiber polynomial equals x_in times it, for every i.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    s = saturation_exponent(n)
    zono = zonotope_poly(n)
    if n % 2 == 0:
        shift = SparsePoly(n, {monomial(n, {(n, n): s}): 1})
        return normal_form(shift * saturated_fiber_poly(n, 1)) == normal_form(zono)
    for i in range(1, n + 1):
        shift = SparsePoly(n, {monomial(n, {(n, n): s + 1}): 1})
        lhs = normal_form(shift * saturated_fiber_poly(n, i))
        rhs = normal_form(SparsePoly.variable(n, i, n) * zono)
        if lhs != rhs:
            return False
    return True


def check_syzygy(n: int, i: int, j: int, k: int) -> bool:
    """x_ij times the k-th fiber polynomial vs x_jk times the i-th.

    Both products have equal normal forms modulo the principal-minor
    ideal; defined for odd n and distinct indices.
    """
    if n % 2 == 0:
        raise ValueError("the syzygy relations need odd n")
    if len({i, j, k}) != 3:
        raise ValueError("indices must be pairwise distinct")
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} outside [1, {n}]")
    lhs = SparsePoly.variable(n, i, j) * saturated_fiber_poly(n, k)
    rhs = SparsePoly.variable(n, j, k) * saturated_fiber_poly(n, i)
    return normal_form(lhs) == normal_form(rhs)


def link_generators(n: int, omitted: int) -> list[SparsePoly]:
    """Generators of the intersection of all components but the one of
    the ``omitted`` character, where 0, the trivial character, names the
    untwisted Veronese ideal: the principal minors, then the fiber
    polynomials (n of them for odd n, one for even n) twisted by an
    automorphism realizing the omitted character.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    flips = twisting_from_character(n, omitted)
    indices = range(1, n + 1) if n % 2 else (1,)
    return principal_minor_gens(n) + [twist(saturated_fiber_poly(n, i), flips)
                                      for i in indices]


__all__ = [
    "check_saturation_identity", "check_syzygy",
    "link_generators", "saturated_fiber_poly", "saturation_exponent",
    "zonotope_poly",
]
