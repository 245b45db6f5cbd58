"""Unit tests for sparse polynomials, twistings, and characters."""

import random
from fractions import Fraction

import pytest

from verolink.poly import (SparsePoly, all_characters, character_of_twisting,
                           character_pairs, character_spec, character_value,
                           in_principal_minor_ideal, in_twisted_veronese,
                           multidegree, normal_form, parse_poly, render_poly,
                           twist, twisting_from_character)
from verolink.veronese import column_position, monomial, monomial_degree


def random_poly(rng, n, terms=4, degree=3):
    p = SparsePoly(n)
    for _ in range(terms):
        exponents = {}
        for _ in range(degree):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            key = (min(i, j), max(i, j))
            exponents[key] = exponents.get(key, 0) + 1
        p = p + SparsePoly(n, {monomial(n, exponents): rng.randint(-3, 3)})
    return p


# -- ring arithmetic -----------------------------------------------------

def test_addition_cancels():
    rng = random.Random(0)
    p = random_poly(rng, 3)
    assert (p + (-p)).is_zero()


def test_one_is_neutral():
    rng = random.Random(1)
    p = random_poly(rng, 3)
    assert SparsePoly.constant(3, 1) * p == p


def test_size_mismatch_raises():
    with pytest.raises(ValueError,
                       match="polynomials over different variable sets"):
        SparsePoly.variable(3, 1, 2) + SparsePoly.variable(4, 1, 2)


def test_scale():
    # A rational scalar multiplies as a constant polynomial.
    p = SparsePoly.variable(3, 1, 2)
    scaled = SparsePoly.constant(3, Fraction(3, 2)) * p
    assert scaled.terms == {monomial(3, {(1, 2): 1}): Fraction(3, 2)}


def test_product_golden_three_binomials():
    # (x12 x44 + x14 x24)(x13 x44 + x14 x34)(x23 x44 + x24 x34) expands
    # into eight distinct terms, all with coefficient one.
    def var2(i, j, k, l):
        return SparsePoly(4, {monomial(4, {(i, j): 1, (k, l): 1}): 1})

    p = ((var2(1, 2, 4, 4) + var2(1, 4, 2, 4))
         * (var2(1, 3, 4, 4) + var2(1, 4, 3, 4))
         * (var2(2, 3, 4, 4) + var2(2, 4, 3, 4)))
    assert len(p.terms) == 8
    assert set(p.terms.values()) == {Fraction(1)}
    from verolink.link import zonotope_poly
    assert p == zonotope_poly(4)


# -- multidegree ---------------------------------------------------------

def test_multidegree_golden():
    p = parse_poly("x11*x23 + x12*x13")
    assert multidegree(p) == (2, 1, 1)


def test_multidegree_inhomogeneous():
    with pytest.raises(ValueError, match="terms of distinct multidegrees"):
        multidegree(parse_poly("x11 + x22"))


def test_multidegree_zero():
    with pytest.raises(ValueError, match="the zero polynomial has no multidegree"):
        multidegree(SparsePoly(3))


# -- twisting -------------------------------------------------------------

def flips(n, *pairs):
    """The twisting mask negating the given variables."""
    pos = column_position(2, n)
    return sum(1 << pos[p] for p in pairs)


def sign_at(n, mask, i, j):
    """The sign a character mask puts on the pair (i, j)."""
    return -1 if mask >> character_pairs(n).index((i, j)) & 1 else 1


def test_twist_golden_example():
    # Negating x12, x13, x23 maps x11 x23 - x12 x13 to the negative of
    # x11 x23 + x12 x13: the image generates the same ideal as the
    # plus-sign minor but carries a global sign, because both monomials
    # pick up an odd number of flips.
    t = flips(3, (1, 2), (1, 3), (2, 3))
    p = parse_poly("x11*x23 - x12*x13")
    assert twist(p, t) == -parse_poly("x11*x23 + x12*x13")
    # Flipping only x12 realizes the same character with clean signs.
    assert twist(parse_poly("x11*x23 - x12*x13"), flips(3, (1, 2))) \
        == parse_poly("x11*x23 + x12*x13")


def test_twist_identity_and_involution():
    rng = random.Random(2)
    p = random_poly(rng, 4)
    assert twist(p, 0) == p
    t = flips(4, (1, 4), (2, 2))
    assert twist(twist(p, t), t) == p


def test_twist_is_ring_automorphism():
    rng = random.Random(3)
    t = flips(4, (1, 2), (3, 4), (1, 1))
    for _ in range(5):
        p, q = random_poly(rng, 4), random_poly(rng, 4)
        assert twist(p * q, t) == twist(p, t) * twist(q, t)
        assert twist(p + q, t) == twist(p, t) + twist(q, t)


@pytest.mark.parametrize("t", [1 << 6, -1, -(1 << 6)])
def test_twist_refuses_a_mask_outside_the_variables(t):
    # n = 3 has six variables; a higher or negative bit is not dropped.
    with pytest.raises(ValueError,
                       match="twisting over a different variable set"):
        twist(parse_poly("x11*x23 - x12*x13"), t)
    with pytest.raises(ValueError,
                       match="twisting over a different variable set"):
        character_of_twisting(3, t)


# -- characters ------------------------------------------------------------

def test_character_of_identity_twisting():
    assert character_of_twisting(4, 0) == 0


def test_character_of_twisting_single_flip():
    # Negating x14 flips the sign of both binomials whose support meets
    # it: the (1,2) and (1,3) coordinates.
    eps = character_of_twisting(4, flips(4, (1, 4)))
    assert sign_at(4, eps, 1, 2) == -1
    assert sign_at(4, eps, 1, 3) == -1
    assert sign_at(4, eps, 2, 3) == 1


def test_character_of_twisting_oracle():
    # Independent route: the coordinate at (i, j) is the ratio of the
    # signs the twisting gives the two monomials x_ij x_nn and x_in x_jn.
    rng = random.Random(4)
    n = 4
    for _ in range(10):
        negated = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.choice([1, -1]) < 0:
                    negated.append((i, j))
        t = flips(n, *negated)
        eps = character_of_twisting(n, t)
        for i, j in character_pairs(n):
            plus = twist(SparsePoly(
                n, {monomial(n, {(i, j): 1, (n, n): 1}): 1}), t)
            minus = twist(SparsePoly(
                n, {monomial(n, {(i, n): 1, (j, n): 1}): 1}), t)
            sign_plus = next(iter(plus.terms.values()))
            sign_minus = next(iter(minus.terms.values()))
            assert sign_at(n, eps, i, j) == sign_plus * sign_minus


def test_character_from_example_automorphism():
    # The classical n = 3 sign automorphism negating x12, x13, x23.
    t = flips(3, (1, 2), (1, 3), (2, 3))
    assert sign_at(3, character_of_twisting(3, t), 1, 2) == -1


def test_twisting_from_character_round_trip():
    for n in (3, 4):
        for eps in all_characters(n):
            assert character_of_twisting(n, twisting_from_character(n, eps)) \
                == eps


@pytest.mark.parametrize("n, mask", [(3, 2), (3, -1), (4, 1 << 3), (4, -1)])
def test_a_character_mask_outside_its_pairs_is_refused(n, mask):
    u = monomial(n, {(1, 1): 1})
    for call in (lambda: twisting_from_character(n, mask),
                 lambda: character_spec(n, mask),
                 lambda: character_value(mask, u, u, n),
                 lambda: in_twisted_veronese(SparsePoly(n, {u: 1}), mask)):
        with pytest.raises(ValueError,
                           match="character over a different variable set"):
            call()


def test_character_value_goldens():
    n = 4
    eps = 1  # 12:-
    u = monomial(n, {(1, 2): 1, (3, 4): 1})
    u0 = monomial(n, {(1, 3): 1, (2, 4): 1})
    assert character_value(eps, u, u0, n) == -1
    assert character_value(eps, u, u, n) == 1
    assert character_value(0, u, u0, n) == 1


def test_character_value_degree_mismatch():
    with pytest.raises(ValueError, match="monomials lie in different fibers"):
        character_value(0, monomial(3, {(1, 1): 1}),
                        monomial(3, {(1, 2): 1}), 3)


def test_character_value_of_another_size_is_refused():
    with pytest.raises(ValueError,
                       match="character over a different variable set"):
        character_value(0, monomial(3, {(1, 1): 1}),
                        monomial(4, {(1, 1): 1}), 3)


def test_all_characters_count_and_order():
    chars = all_characters(4)
    assert len(chars) == 8
    assert chars[0] == 0
    assert len(set(chars)) == 8
    assert chars == sorted(chars)


# -- normal forms ------------------------------------------------------------

def test_normal_form_of_generator_vanishes():
    assert normal_form(parse_poly("x11*x22 - x12*x12", n=3)) == {}


def test_normal_form_of_minor_has_two_classes():
    nf = normal_form(parse_poly("x11*x23 - x12*x13"))
    assert sorted(nf.values()) == [Fraction(-1), Fraction(1)]


def test_normal_form_of_zero_is_empty():
    assert normal_form(SparsePoly(3)) == {}


def test_normal_form_inhomogeneous_raises():
    with pytest.raises(ValueError, match="terms of distinct multidegrees"):
        normal_form(parse_poly("x11 + x22"))


def test_membership_examples():
    assert in_principal_minor_ideal(parse_poly("x11*x22 - x12*x12", n=3))
    assert not in_principal_minor_ideal(parse_poly("x11*x23 - x12*x13"))
    trivial, flipped = 0, 1  # 12:+ and 12:-
    assert in_twisted_veronese(parse_poly("x11*x23 - x12*x13"), trivial)
    assert not in_twisted_veronese(parse_poly("x11*x23 + x12*x13"), trivial)
    assert in_twisted_veronese(parse_poly("x11*x23 + x12*x13"), flipped)


def test_minor_ideal_members_lie_in_every_component():
    from verolink.ideals import principal_minor_gens
    rng = random.Random(6)
    gens = principal_minor_gens(4)
    for _ in range(5):
        combo = SparsePoly(4)
        for g in gens:
            exponents = {}
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randint(1, 4), rng.randint(1, 4)
                key = (min(i, j), max(i, j))
                exponents[key] = exponents.get(key, 0) + 1
            m = SparsePoly(4, {monomial(4, exponents): rng.randint(-2, 2)})
            combo = combo + m * g
        assert in_principal_minor_ideal(combo)
        for eps in all_characters(4):
            assert in_twisted_veronese(combo, eps)


def test_monomial_multiple_keeps_class_support_size():
    # Multiplying by a monomial maps classes injectively, so the number
    # of nonzero classes in the normal form is unchanged at saturated
    # degrees.
    from verolink.link import saturated_fiber_poly
    p = saturated_fiber_poly(4, 1)
    m = SparsePoly(4, {monomial(4, {(1, 2): 1, (3, 4): 1}): 1})
    assert len(normal_form(m * p)) == len(normal_form(p))


def test_basepoint_independence_of_membership():
    # Rescaling all character values by a common sign cannot change
    # whether the weighted sum vanishes.
    rng = random.Random(7)
    n = 3
    fiber_poly = parse_poly("x11*x23 + x12*x13")
    eps = 1  # 12:-
    support = list(fiber_poly.terms)
    for u0 in support:
        total = sum(fiber_poly.terms[m] * character_value(eps, m, u0, n)
                    for m in support)
        assert total == 0


def _random_multiplier(rng, n, size):
    exponents = {}
    for _ in range(size):
        key = tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
        exponents[key] = exponents.get(key, 0) + 1
    return monomial(n, exponents)


def _membership_samples(seed, count):
    """Seeded random polynomials of mixed degrees and rational coefficients:
    combinations of principal minors, or of the Veronese minors of one
    twisted component, some with a stray monomial added."""
    from verolink.ideals import principal_minor_gens, veronese_minor_gens
    rng = random.Random(seed)
    for k in range(count):
        n = rng.choice((3, 4))
        if k % 2:
            gens = principal_minor_gens(n)
        else:
            phi = twisting_from_character(n, rng.choice(all_characters(n)))
            gens = [twist(g, phi) for g in veronese_minor_gens(n)]
        p = SparsePoly(n)
        for g in rng.sample(gens, 3):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = p + SparsePoly(
                n, {_random_multiplier(rng, n, rng.randint(0, 2)): c}) * g
        if rng.random() < 0.3:
            p = p + SparsePoly(
                n, {_random_multiplier(rng, n, rng.randint(1, 3)): 1})
        yield p


def _degree_pieces(p):
    """The terms of p grouped by multidegree, one dict per degree."""
    pieces = {}
    for m, c in p.terms.items():
        pieces.setdefault(monomial_degree(m, p.n), {})[m] = c
    return pieces.values()


def _reference_in_principal_minor_ideal(p):
    return all(normal_form(SparsePoly(p.n, q)) == {}
               for q in _degree_pieces(p))


def _reference_in_twisted_veronese(p, eps):
    # Per degree, the character sum relative to the lexmax term.
    for q in _degree_pieces(p):
        u0 = max(q)
        if sum(c * character_value(eps, m, u0, p.n) for m, c in q.items()):
            return False
    return True


def test_class_sum_membership_matches_the_pointwise_route():
    jn_members = component_members = checks = 0
    for p in _membership_samples(11, 120):
        verdict = in_principal_minor_ideal(p)
        assert verdict == _reference_in_principal_minor_ideal(p)
        jn_members += verdict
        for eps in all_characters(p.n):
            verdict = in_twisted_veronese(p, eps)
            assert verdict == _reference_in_twisted_veronese(p, eps)
            component_members += verdict
            checks += 1
    # Both routes meet members and non-members of each kind.
    assert 0 < jn_members < 120
    assert 0 < component_members < checks


def test_product_keeps_only_nonzero_terms():
    p = parse_poly("x11 + x22", n=2) * parse_poly("x11 - x22", n=2)
    assert render_poly(p) == "x11*x11 - x22*x22"
    assert all(p.terms.values())


# -- text grammar --------------------------------------------------------------

def test_render_goldens():
    assert render_poly(parse_poly("x11*x23 + x12*x13")) == "x11*x23 + x12*x13"
    assert render_poly(SparsePoly(3)) == "0"
    assert render_poly(SparsePoly.constant(3, Fraction(-3, 2))) == "-3/2"


def test_render_exponents_as_repetition():
    p = SparsePoly(3, {monomial(3, {(1, 2): 2}): 1})
    assert render_poly(p) == "x12*x12"


def test_render_orders_terms_descending():
    p = parse_poly("x13*x22 + x12*x23")
    assert render_poly(p) == "x12*x23 + x13*x22"


def test_parse_round_trip_random():
    rng = random.Random(8)
    for n in range(2, 9):
        for _ in range(20):
            p = random_poly(rng, n)
            assert parse_poly(render_poly(p), n=n) == p


def test_parse_whitespace_and_signs():
    assert parse_poly(" - x11 +  2 * x12 ") == \
        parse_poly("2*x12") - parse_poly("x11")
    assert parse_poly("1/2*x11*x11", n=2).terms == \
        {monomial(2, {(1, 1): 2}): Fraction(1, 2)}


def test_parse_cancels_terms_that_sum_to_zero():
    assert parse_poly("x11 - x11 + x12") == parse_poly("x12")


def test_parse_builds_the_polynomial_a_fixed_number_of_times(monkeypatch):
    built = []
    init = SparsePoly.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparsePoly, "__init__", counting)
    counts = []
    for terms in (1, 50):
        built.clear()
        p = parse_poly(" + ".join(f"{k + 1}*x11" + "*x12" * k for k in range(terms)))
        assert len(p) == terms
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="cannot tokenize 'x1'"):
        parse_poly("x1")
    with pytest.raises(ValueError, match="empty polynomial text"):
        parse_poly("")
    with pytest.raises(ValueError, match="variable index 4 exceeds n=3"):
        parse_poly("x14", n=3)


@pytest.mark.parametrize("text, message", [
    ("1/0*x11", "1/0"), ("x12 - 3/00*x11*x22", "3/00")])
def test_parse_names_a_zero_denominator(text, message):
    with pytest.raises(ValueError, match=f"zero denominator.*{message}"):
        parse_poly(text)


@pytest.mark.parametrize("text", ["1/2/3*x11", "2/2/3*x11", "x12 + 1/2/3"])
def test_parse_rejects_a_second_slash(text):
    # The grammar is integer ["/" integer]; 1/2/3 is not read as 1/6.
    with pytest.raises(ValueError, match="second '/'"):
        parse_poly(text)


@pytest.mark.parametrize("text", ["2*x11/3", "x11/2", "/2*x11"])
def test_parse_rejects_a_slash_outside_the_coefficient(text):
    with pytest.raises(ValueError, match="misplaced '/'"):
        parse_poly(text)


def test_spec_strings():
    assert character_spec(4, 1) == "12:-,13:+,23:+"
    assert character_spec(4, 0b110) == "12:+,13:-,23:-"
    assert character_spec(3, 0) == "12:+"
    assert character_spec(2, 0) == "trivial"
