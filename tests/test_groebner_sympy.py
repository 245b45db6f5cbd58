"""The decomposition and the link at n = 3 as ideal equalities, at every
degree, by sympy Groebner bases.

The ``verify-*`` checks are degree-bounded and run on in-house linear
algebra; here sympy decides the same statements with no degree bound.
The components P_chi are the 2-minors of the Veronese ideal twisted by
``twisting_from_character(3, chi)``.  Two ideals are equal when their
reduced grevlex Groebner bases are, and an intersection A cap B is the
elimination ideal (t*A + (1 - t)*B) cap k[x], read off a lex basis with
t first.  Each claim has a mutant that must fail: a principal minor
dropped from J_3, an extra generator dropped from a link.
"""

import pytest

sympy = pytest.importorskip("sympy")

from verolink.ideals import principal_minor_gens, veronese_minor_gens  # noqa: E402
from verolink.link import link_generators  # noqa: E402
from verolink.poly import (all_characters, twist,  # noqa: E402
                           twisting_from_character)
from verolink.veronese import variable_multisets  # noqa: E402

N = 3
X = sympy.symbols(["x%d%d" % m for m in variable_multisets(2, N)])
T = sympy.Symbol("t")


def expr(p):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(X, m)])
                       for m, c in p.terms.items()])


def reduced_basis(polys):
    return sympy.groebner(polys, *X, order="grevlex").exprs


def intersect(A, B):
    lex = sympy.groebner([T * f for f in A] + [(1 - T) * g for g in B],
                         T, *X, order="lex")
    return [g for g in lex.exprs if not g.has(T)]


def component(chi):
    flips = twisting_from_character(N, chi)
    return [expr(twist(g, flips)) for g in veronese_minor_gens(N)]


def meet(characters):
    out = component(characters[0])
    for chi in characters[1:]:
        out = intersect(out, component(chi))
    return out


def test_the_principal_minors_are_the_meet_of_every_component():
    minors = [expr(g) for g in principal_minor_gens(N)]
    assert len(all_characters(N)) == 2
    assert reduced_basis(minors) == reduced_basis(meet(all_characters(N)))


@pytest.mark.parametrize("drop", range(3))
def test_a_dropped_principal_minor_leaves_a_smaller_ideal(drop):
    minors = [expr(g) for g in principal_minor_gens(N)]
    assert len(minors) == 3
    del minors[drop]
    assert reduced_basis(minors) != reduced_basis(meet(all_characters(N)))


@pytest.mark.parametrize("omitted", all_characters(N))
def test_the_link_generators_are_the_meet_of_the_other_components(omitted):
    others = [chi for chi in all_characters(N) if chi != omitted]
    gens = [expr(g) for g in link_generators(N, omitted)]
    assert reduced_basis(gens) == reduced_basis(meet(others))


@pytest.mark.parametrize("omitted", all_characters(N))
@pytest.mark.parametrize("drop", range(3))
def test_a_dropped_extra_generator_leaves_a_smaller_ideal(omitted, drop):
    others = [chi for chi in all_characters(N) if chi != omitted]
    gens = [expr(g) for g in link_generators(N, omitted)]
    # The principal minors come first, then the n = 3 extra generators.
    minors = len(principal_minor_gens(N))
    assert len(gens) == minors + 3
    del gens[minors + drop]
    assert reduced_basis(gens) != reduced_basis(meet(others))
