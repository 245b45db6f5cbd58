"""Unit tests for the generator sets."""

import pytest

from verolink.ideals import (generator_lattice, higher_veronese_gens,
                             principal_minor_gens, veronese_minor_gens)
from verolink.poly import multidegree, parse_poly
from verolink.veronese import (minor_vector, monomial, pair_count,
                               variable_multisets, veronese_matrix)


def canonical_set(polys):
    """Sign-normalized fingerprints for set comparison."""
    out = set()
    for g in polys:
        if g.sorted_terms()[0][1] < 0:
            g = -g
        out.add(tuple(sorted(g.terms.items())))
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


@pytest.mark.parametrize("n", range(2, 7))
def test_veronese_minor_gens_brute_force(n):
    # Independent oracle: enumerate every index quadruple, build the
    # binomial from scratch, and dedupe by sign-normalized support.

    def product(a, b, c, d):
        """Exponents of x_ab * x_cd, each pair sorted by hand."""
        x = monomial(n, {(min(a, b), max(a, b)): 1})
        y = monomial(n, {(min(c, d), max(c, d)): 1})
        return tuple(e + f for e, f in zip(x, y))

    oracle = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    plus = product(i, k, j, l)
                    minus = product(i, l, j, k)
                    if plus == minus:
                        continue
                    key = frozenset([plus, minus])
                    oracle.add(key)
    gens = veronese_minor_gens(n)
    produced = {frozenset(g.terms) for g in gens}
    assert produced == oracle
    assert len(gens) == len(oracle)
    if n == 4:
        assert len(gens) == 21
    leads = [g.sorted_terms()[0] for g in gens]
    assert all(c == 1 for _, c in leads)
    assert all(a >= b for (a, _), (b, _) in zip(leads, leads[1:]))


def test_minor_exponent_vectors_match_brackets():
    for n in (3, 4):
        for g in principal_minor_gens(n):
            # A pure difference binomial x^plus - x^minus.
            assert sorted(g.terms.values()) == [-1, 1]
            plus, minus = sorted(g.terms, key=g.terms.get, reverse=True)
            vec = tuple(a - b for a, b in zip(plus, minus))
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
            [minor_vector(i, j, i, j, n)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)])
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
