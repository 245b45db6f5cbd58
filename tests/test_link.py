"""Unit tests for the link polynomials and their identities."""

from fractions import Fraction
from itertools import permutations
from operator import itemgetter

import pytest

from verolink.errors import SizeCapExceeded
from verolink.fibers import off_diagonal_parities
from verolink.ideals import principal_minor_gens
from verolink.link import (check_saturation_identity, check_syzygy,
                           link_generators, saturated_fiber_poly,
                           saturation_exponent, zonotope_poly)
from verolink.poly import (SparsePoly, in_principal_minor_ideal,
                           multidegree, normal_form, parse_poly, render_poly)
from verolink.veronese import (monomial, monomial_degree, pair_count,
                               variable_multisets)


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
    assert {sum(m) for m in p.terms} == {total}


def test_fiber_poly_index_errors():
    with pytest.raises(ValueError, match="even sizes have a single minimal fiber"):
        saturated_fiber_poly(4, 2)
    with pytest.raises(ValueError, match=r"index 4 outside \[1, 3\]"):
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
    keys = {class_key(m, 4) for m in p.terms}
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
    with pytest.raises(ValueError, match="the syzygy relations need odd n"):
        check_syzygy(4, 1, 2, 3)
    with pytest.raises(ValueError, match="indices must be pairwise distinct"):
        check_syzygy(3, 1, 1, 2)


def test_link_generators_trivial_n3():
    gens = link_generators(3, 0)
    assert len(gens) == 6 and gens[:3] == principal_minor_gens(3)
    extra = {render_poly(p) for p in gens[3:]}
    assert extra == {"x11*x23 + x12*x13", "x12*x23 + x13*x22",
                     "x12*x33 + x13*x23"}


def test_link_generators_flipped_n3():
    # Omitting the flipped component leaves the untwisted Veronese ideal:
    # the extra generators become exactly its non-principal minors.
    gens = link_generators(3, 1)  # 12:-
    expected = [parse_poly(s, n=3) for s in
                ["x11*x23 - x12*x13", "x13*x22 - x12*x23",
                 "x13*x23 - x12*x33"]]
    assert gens == principal_minor_gens(3) + expected


def test_link_generators_trivial_n4():
    gens = link_generators(4, 0)
    assert gens == principal_minor_gens(4) + [saturated_fiber_poly(4, 1)]


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
                m = SparsePoly(n, {monomial(n, exponents): 1})
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
    # The fiber of (6,5,5,5,5,5,5) has 22M points; its 2^15 classes are
    # built one standard monomial each, under the default size cap.
    p = saturated_fiber_poly(7, 1)
    assert len(p.terms) == 2 ** 15
    assert len({off_diagonal_parities(m, 7) for m in p.terms}) == 2 ** 15
    assert {monomial_degree(m, 7) for m in p.terms} == {(6, 5, 5, 5, 5, 5, 5)}


def test_the_size_cap_counts_classes(monkeypatch):
    # 43,581 points in the n = 6 fiber, but 2^10 = 1024 classes.
    expected = saturated_fiber_poly(6, 1)
    monkeypatch.setenv("VLAB_SIZE_CAP", "1024")
    assert saturated_fiber_poly(6, 1) == expected
    monkeypatch.setenv("VLAB_SIZE_CAP", "1023")
    with pytest.raises(SizeCapExceeded, match="the 1024 classes .* cap 1023$"):
        saturated_fiber_poly(6, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_fiber_polys_are_in_groebner_normal_form(n):
    # Off-diagonal weight 1, diagonal weight 0: the principal minors are
    # a Groebner basis with leading terms x_ij^2, so every term is
    # standard, with each off-diagonal exponent 0 or 1.
    off_diagonal = itemgetter(*(k for k, (i, j) in
                                enumerate(variable_multisets(2, n)) if i < j))
    for i in range(1, n + 1) if n % 2 else (1,):
        terms = saturated_fiber_poly(n, i).terms
        assert len(terms) == 2 ** pair_count(n - 1)
        assert {e for m in terms for e in off_diagonal(m)} == {0, 1}
