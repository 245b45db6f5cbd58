"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion; plain ``pytest`` runs the same checks silently.
"""

import random
from fractions import Fraction
from itertools import permutations

from verolink.cli import main
from verolink.exactlin import invariant_factors
from verolink.fibers import (class_count, class_key, connectivity_classes,
                             degrees_up_to, enumerate_fiber,
                             is_saturated_degree, principal_moves)
from verolink.ideals import generator_lattice, veronese_minor_gens
from verolink.link import (check_saturation_identity, check_syzygy,
                           saturated_fiber_poly, saturation_exponent,
                           zonotope_poly)
from verolink.poly import (SignCharacter, SparsePoly, all_characters,
                           in_principal_minor_ideal, normal_form, parse_poly,
                           render_poly)
from verolink.veronese import (Monomial, pair_count, principal_minor_basis,
                               veronese_lattice_basis)
from verolink.verify import (group_algebra_subintersection, higher_torsion,
                             verify_decomposition, verify_link)


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def cli_output(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_01_golden_n3_fiber_polynomials(capsys):
    # Under a=x11, b=x12, c=x13, d=x22, e=x23, f=x33 the three outputs
    # are ae+bc, cd+be, ce+bf; string equality after canonical ordering.
    expected = {
        1: render_poly(parse_poly("x11*x23 + x12*x13", n=3)),   # ae+bc
        2: render_poly(parse_poly("x13*x22 + x12*x23", n=3)),   # cd+be
        3: render_poly(parse_poly("x13*x23 + x12*x33", n=3)),   # ce+bf
    }
    for i in (1, 2, 3):
        out = cli_output(capsys, ["pplus", "-n", "3", "-i", str(i)])
        assert out == expected[i] + "\n"
    report(1, "pplus -n 3 reproduces the three quadratic generators")


def test_criterion_02_golden_n4(capsys):
    printed = parse_poly(
        "x11*x22*x33*x44 + x11*x23*x24*x34 + x13*x14*x22*x34"
        " + x12*x14*x24*x33 + x13*x14*x23*x24 + x12*x14*x23*x34"
        " + x12*x13*x24*x34 + x12*x13*x23*x44")
    p_plus = saturated_fiber_poly(4, 1)
    assert set(p_plus.terms) == set(printed.terms)
    assert set(p_plus.terms.values()) == {Fraction(1)}

    product = (parse_poly("x12*x44 + x14*x24")
               * parse_poly("x13*x44 + x14*x34")
               * parse_poly("x23*x44 + x24*x34"))
    assert zonotope_poly(4) == product

    assert saturation_exponent(4) == 2
    shift = SparsePoly.monomial(Monomial.from_pairs(4, {(4, 4): 2}))
    assert normal_form(shift * p_plus) == normal_form(zonotope_poly(4))
    report(2, "eight-term quartic, zonotope product, and shift identity")


def test_criterion_03_degree_and_term_formulas():
    for n in (3, 4, 5, 6):
        indices = range(1, n + 1) if n % 2 else (1,)
        expected_terms = 2 ** pair_count(n - 1)
        expected_degree = (n - 1) ** 2 // 2 if n % 2 else n * (n - 2) // 2
        for i in indices:
            p = saturated_fiber_poly(n, i)
            assert len(p.terms) == expected_terms
            assert {m.total_degree() for m in p.terms} == {expected_degree}
    report(3, "term counts 2, 8, 64, 1024 and degree formulas for n=3..6")


def test_criterion_04_torsion():
    for n in (3, 4, 5, 6):
        sub = generator_lattice(principal_minor_basis(n))
        amb = generator_lattice(veronese_lattice_basis(n))
        assert invariant_factors(sub, amb) == [2] * pair_count(n - 1)
        assert higher_torsion(2, n) == [2] * pair_count(n - 1)
    assert higher_torsion(3, 4) == [3] * 13
    report(4, "torsion (2)^binom(n-1,2) for n=3..6 and (3)^13 at weight 3")


def test_criterion_05_subintersection_verification():
    assert verify_link(3, SignCharacter.trivial(3), 8).verdict
    assert verify_link(4, SignCharacter.trivial(4), 8).verdict
    nontrivial3 = [eps for eps in all_characters(3) if not eps.is_trivial()]
    assert verify_link(3, nontrivial3[0], 8).verdict
    rng = random.Random(20260810)
    nontrivial4 = [eps for eps in all_characters(4) if not eps.is_trivial()]
    for eps in rng.sample(nontrivial4, 3):
        assert verify_link(4, eps, 8).verdict
    report(5, "verify-link for n=3,4: trivial and random twisted omissions")


def test_criterion_06_decomposition_verification():
    assert verify_decomposition(3, 8).verdict
    assert verify_decomposition(4, 8).verdict
    report(6, "verify-decomp for n=3,4 up to coordinate sum 8")


def test_criterion_07_polynomial_identities():
    for n in (3, 4, 5):
        assert check_saturation_identity(n)
    for n in (3, 5):
        for i, j, k in permutations(range(1, n + 1), 3):
            assert check_syzygy(n, i, j, k)
    report(7, "shift identities for n=3,4,5 and all syzygies for n=3,5")


def test_criterion_08_oracle_equivalence():
    for n in (3, 4):
        moves = principal_moves(n)
        for b in degrees_up_to(n, 10):
            walk = connectivity_classes(n, b, moves)
            by_key = {}
            for m in enumerate_fiber(n, b):
                by_key.setdefault(class_key(m), set()).add(m.exps)
            assert sorted(sorted(x.exps for x in comp) for comp in walk) \
                == sorted(sorted(g) for g in by_key.values())
    report(8, "parity classes equal walk components, sums <= 10, n=3,4")


def test_criterion_09_toral_bound_and_stabilization():
    for n in (3, 4, 5):
        bound = 2 ** pair_count(n - 1)
        for b in degrees_up_to(n, 12):
            count = class_count(n, b)
            assert count <= bound
            assert (count == bound) == is_saturated_degree(n, b)
    report(9, "class counts bounded with equality exactly at saturation")


def test_criterion_10_group_algebra_oracle():
    for k in range(1, 7):
        assert group_algebra_subintersection(k)
    report(10, "group-algebra subintersection for k=1..6, every omission")


def test_criterion_11_colon_membership():
    for n in (3, 4, 5):
        minors = veronese_minor_gens(n)
        indices = range(1, n + 1) if n % 2 else (1,)
        for i in indices:
            p = saturated_fiber_poly(n, i)
            for g in minors:
                assert in_principal_minor_ideal(p * g)
    report(11, "fiber polynomials multiply every 2-minor into the ideal")
