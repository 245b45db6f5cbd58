"""Unit tests for the generator sets."""

import pytest

from verolink.ideals import (binomial_exponent_vector, generator_lattice,
                             higher_veronese_gens, principal_minor_gens,
                             veronese_minor_gens)
from verolink.poly import multidegree, parse_poly
from verolink.veronese import (Monomial, minor_vector, pair_count,
                               variable_multisets, veronese_matrix)


def canonical_set(polys):
    """Sign-normalized fingerprints for set comparison."""
    out = set()
    for g in polys:
        if g.sorted_terms()[0][1] < 0:
            g = -g
        out.add(tuple(sorted((m.exps, c) for m, c in g.terms.items())))
    return out


def test_principal_minor_gens_golden_n3():
    # With a = x11, b = x12, c = x13, d = x22, e = x23, f = x33 the three
    # generators are ad - b^2, af - c^2, df - e^2.
    gens = principal_minor_gens(3)
    expected = [parse_poly(s, n=3) for s in
                ["x11*x22 - x12*x12", "x11*x33 - x13*x13", "x22*x33 - x23*x23"]]
    assert canonical_set(gens) == canonical_set(expected)


def test_principal_minor_gens_counts_and_degrees():
    for n in (2, 3, 4, 5):
        gens = principal_minor_gens(n)
        assert len(gens) == pair_count(n)
        degs = set()
        for g in gens:
            b = multidegree(g)
            assert sum(b) == 4
            assert sorted(b, reverse=True)[:2] == [2, 2]
            degs.add(b)
        assert len(degs) == len(gens)


def test_principal_minor_gens_n4_contains_corner():
    gens = principal_minor_gens(4)
    target = parse_poly("x11*x44 - x14*x14")
    assert canonical_set([target]) <= canonical_set(gens)


def test_veronese_minor_gens_golden_n3():
    gens = veronese_minor_gens(3)
    expected = [parse_poly(s, n=3) for s in [
        "x11*x22 - x12*x12", "x11*x33 - x13*x13", "x22*x33 - x23*x23",
        "x11*x23 - x12*x13", "x13*x22 - x12*x23", "x13*x23 - x12*x33"]]
    assert canonical_set(gens) == canonical_set(expected)
    assert len(gens) == 6


def test_veronese_minor_gens_n2():
    gens = veronese_minor_gens(2)
    assert canonical_set(gens) == canonical_set(
        [parse_poly("x11*x22 - x12*x12")])


def test_veronese_minor_gens_brute_force_n4():
    # Independent oracle: enumerate every index quadruple, build the
    # binomial from scratch, and dedupe by sign-normalized support.
    n = 4
    oracle = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    plus = Monomial.from_pairs(n, {(min(i, k), max(i, k)): 1}) \
                        * Monomial.from_pairs(n, {(min(j, l), max(j, l)): 1})
                    minus = Monomial.from_pairs(n, {(min(i, l), max(i, l)): 1}) \
                        * Monomial.from_pairs(n, {(min(j, k), max(j, k)): 1})
                    if plus == minus:
                        continue
                    key = frozenset([plus.exps, minus.exps])
                    oracle.add(key)
    gens = veronese_minor_gens(n)
    produced = {frozenset(m.exps for m in g.terms) for g in gens}
    assert produced == oracle
    assert len(gens) == len(oracle) == 21


def test_minor_exponent_vectors_match_brackets():
    for n in (3, 4):
        for g in principal_minor_gens(n):
            vec = binomial_exponent_vector(g)
            b = multidegree(g)
            pair_ij = [idx + 1 for idx, x in enumerate(b) if x == 2]
            i, j = pair_ij
            assert vec == minor_vector(i, j, i, j, n)


def test_higher_gens_weight2_matches_principal_lattice():
    # For weight two the generator lattice coincides with the lattice of
    # the principal minors: equal Hermite forms of the column lattices.
    from verolink.exactlin import column_lattice_basis
    for n in (2, 3, 4):
        higher = generator_lattice(higher_veronese_gens(2, n))
        principal = generator_lattice(
            [binomial_exponent_vector(g) for g in principal_minor_gens(n)])
        assert column_lattice_basis(higher).columns() \
            == column_lattice_basis(principal).columns()


def test_higher_gens_small_goldens():
    # x12^2 - x11 x22 in the weight-2 column order (11), (12), (22).
    assert higher_veronese_gens(2, 2) == [(-1, 2, -1)]


def test_higher_gens_vectors_d3_n2():
    # x112^3 - x111^2 x222 and x122^3 - x111 x222^2 in the weight-3
    # column order (111), (112), (122), (222).
    assert variable_multisets(3, 2) == ((1, 1, 1), (1, 1, 2), (1, 2, 2),
                                        (2, 2, 2))
    assert higher_veronese_gens(3, 2) == [(-2, 3, 0, -1), (-1, 0, 3, -2)]


def test_higher_gens_count_d3_n4():
    gens = higher_veronese_gens(3, 4)
    assert len(gens) == 16  # 20 columns minus the 4 diagonal ones
    V = veronese_matrix(3, 4)
    for vec in gens:
        assert V.mul_vector(vec) == (0, 0, 0, 0)


def test_binomial_vector_rejects_non_binomials():
    with pytest.raises(ValueError):
        binomial_exponent_vector(parse_poly("x11*x22 + x12*x12", n=2))
