"""Unit tests for the link polynomials and their identities."""

from fractions import Fraction
from itertools import permutations

import pytest

from verolink.errors import IndexOutOfRange, NotOdd, SizeCapExceeded
from verolink.fibers import off_diagonal_parities
from verolink.link import (check_saturation_identity, check_syzygy,
                           link_generators, saturated_fiber_poly,
                           saturation_exponent, zonotope_poly)
from verolink.poly import (SignCharacter, SparsePoly, in_principal_minor_ideal,
                           multidegree, normal_form, parse_poly, render_poly)
from verolink.veronese import Monomial, pair_count


def test_zonotope_poly_n3():
    assert zonotope_poly(3) == parse_poly("x12*x33 + x13*x23")


def test_zonotope_poly_n4_is_the_triple_product():
    expected = (parse_poly("x12*x44 + x14*x24")
                * parse_poly("x13*x44 + x14*x34")
                * parse_poly("x23*x44 + x24*x34"))
    assert zonotope_poly(4) == expected
    assert len(zonotope_poly(4).terms) == 8


def test_zonotope_degree_n5():
    assert multidegree(zonotope_poly(5)) == (3, 3, 3, 3, 12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zonotope_terms_distinct(n):
    # Every choice of factor sides yields a distinct monomial, so the
    # expansion has exactly 2^binom(n-1,2) terms, all with coefficient 1.
    p = zonotope_poly(n)
    assert len(p.terms) == 2 ** pair_count(n - 1)
    assert set(p.terms.values()) == {Fraction(1)}
    assert multidegree(p) == tuple([n - 2] * (n - 1) + [2 * pair_count(n - 1)])


def test_saturation_exponent_values():
    assert saturation_exponent(4) == 2
    assert saturation_exponent(3) == 0
    assert saturation_exponent(5) == 4


def test_fiber_poly_goldens_n3():
    assert render_poly(saturated_fiber_poly(3, 1)) == "x11*x23 + x12*x13"
    assert render_poly(saturated_fiber_poly(3, 2)) == "x12*x23 + x13*x22"
    assert render_poly(saturated_fiber_poly(3, 3)) == "x12*x33 + x13*x23"


def test_fiber_poly_golden_n4():
    expected = parse_poly(
        "x11*x22*x33*x44 + x11*x23*x24*x34 + x13*x14*x22*x34"
        " + x12*x14*x24*x33 + x13*x14*x23*x24 + x12*x14*x23*x34"
        " + x12*x13*x24*x34 + x12*x13*x23*x44")
    assert saturated_fiber_poly(4, 1) == expected


@pytest.mark.parametrize("n,i", [(3, 1), (3, 2), (3, 3), (4, 1),
                                 (5, 1), (5, 3), (5, 5)])
def test_fiber_poly_term_count_and_degree(n, i):
    p = saturated_fiber_poly(n, i)
    assert len(p.terms) == 2 ** pair_count(n - 1)
    assert set(p.terms.values()) == {Fraction(1)}
    total = (n - 1) ** 2 // 2 if n % 2 else n * (n - 2) // 2
    assert {m.total_degree() for m in p.terms} == {total}


def test_fiber_poly_index_errors():
    with pytest.raises(IndexOutOfRange):
        saturated_fiber_poly(4, 2)
    with pytest.raises(IndexOutOfRange):
        saturated_fiber_poly(3, 4)


@pytest.mark.parametrize("n,i", [(3, 1), (3, 2), (3, 3), (4, 1),
                                 (5, 1), (5, 3), (5, 5)])
def test_fiber_poly_keeps_the_canonical_member_of_each_class(n, i):
    from verolink.fibers import (canonical_representative, fiber_classes,
                                 minimal_saturated_fibers)
    b = minimal_saturated_fibers(n)[i - 1]
    classes = fiber_classes(n, b)
    expected = SparsePoly(n, {canonical_representative(c): 1 for c in classes})
    assert saturated_fiber_poly(n, i) == expected


def test_fiber_poly_reps_come_from_distinct_classes():
    from verolink.fibers import class_key
    p = saturated_fiber_poly(4, 1)
    keys = {class_key(m) for m in p.terms}
    assert len(keys) == len(p.terms)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_saturation_identity(n):
    assert check_saturation_identity(n)


def test_saturation_identity_n3_by_hand():
    # x33 (x11 x23 + x12 x13) and x13 (x12 x33 + x13 x23) share the same
    # class sums: each side has one representative in each of the two
    # parity classes of the degree (2, 1, 3).
    lhs = SparsePoly.variable(3, 3, 3) * saturated_fiber_poly(3, 1)
    rhs = SparsePoly.variable(3, 1, 3) * zonotope_poly(3)
    assert normal_form(lhs) == normal_form(rhs)
    assert sorted(nf for nf in normal_form(lhs).values()) == \
        [Fraction(1), Fraction(1)]


def test_syzygy_n3_all_triples():
    for i, j, k in permutations((1, 2, 3)):
        assert check_syzygy(3, i, j, k)


def test_syzygy_preconditions():
    with pytest.raises(NotOdd):
        check_syzygy(4, 1, 2, 3)
    with pytest.raises(IndexOutOfRange):
        check_syzygy(3, 1, 1, 2)


def test_link_generators_trivial_n3():
    gens = link_generators(3, SignCharacter.trivial(3))
    assert len(gens.binomial_part) == 3
    extra = {render_poly(p) for p in gens.extra}
    assert extra == {"x11*x23 + x12*x13", "x12*x23 + x13*x22",
                     "x12*x33 + x13*x23"}


def test_link_generators_flipped_n3():
    # Omitting the flipped component leaves the untwisted Veronese ideal:
    # the extra generators become exactly its non-principal minors.
    eps = SignCharacter.from_pairs(3, {(1, 2): -1})
    gens = link_generators(3, eps)
    expected = [parse_poly(s, n=3) for s in
                ["x11*x23 - x12*x13", "x13*x22 - x12*x23",
                 "x13*x23 - x12*x33"]]
    assert list(gens.extra) == expected


def test_link_generators_trivial_n4():
    gens = link_generators(4, SignCharacter.trivial(4))
    assert len(gens.extra) == 1
    assert gens.extra[0] == saturated_fiber_poly(4, 1)


def test_longest_polynomial_property():
    # A monomial multiple of a fiber polynomial stays supported on every
    # class of its degree, with one common coefficient; checked for all
    # monomial multipliers of total degree up to four.
    from itertools import combinations_with_replacement
    from verolink.fibers import class_count
    from verolink.veronese import variable_multisets
    for n in (3, 4):
        p = saturated_fiber_poly(n, 1)
        counts = {}
        variables = variable_multisets(2, n)
        for degree in range(5):
            for combo in combinations_with_replacement(variables, degree):
                exponents = {}
                for ij in combo:
                    exponents[ij] = exponents.get(ij, 0) + 1
                m = SparsePoly.monomial(Monomial.from_pairs(n, exponents))
                product = m * p
                nf = normal_form(product)
                b = multidegree(product)
                if b not in counts:
                    counts[b] = class_count(n, b)
                assert len(nf) == counts[b]
                assert set(nf.values()) == {Fraction(1)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_colon_products_fall_into_minor_ideal(n):
    from verolink.ideals import veronese_minor_gens
    indices = range(1, n + 1) if n % 2 else (1,)
    minors = veronese_minor_gens(n)
    for i in indices:
        p = saturated_fiber_poly(n, i)
        for g in minors:
            assert in_principal_minor_ideal(p * g)


def test_fiber_poly_n7_by_class_search():
    # The fiber of (6,5,5,5,5,5,5) has 22M points; the class search
    # visits a few hundred thousand nodes, under the default size cap.
    p = saturated_fiber_poly(7, 1)
    assert len(p.terms) == 2 ** 15
    assert len({off_diagonal_parities(m.exps, 7) for m in p.terms}) == 2 ** 15
    assert {m.degree() for m in p.terms} == {(6, 5, 5, 5, 5, 5, 5)}


def test_the_size_cap_counts_search_nodes(monkeypatch):
    # 43,581 points in the n = 6 fiber, but fewer than 10,000 nodes.
    expected = saturated_fiber_poly(6, 1)
    monkeypatch.setenv("VLAB_SIZE_CAP", "10000")
    assert saturated_fiber_poly(6, 1) == expected
    monkeypatch.setenv("VLAB_SIZE_CAP", "1000")
    with pytest.raises(SizeCapExceeded):
        saturated_fiber_poly(6, 1)
