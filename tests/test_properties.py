"""Property tests of class keys, twisting, the text grammar, characters,
normal forms, fiber enumeration, the class search, the level
enumeration, the class route of the degree check, the Hermite and Smith
transforms and the shortcuts of the elimination kernels.

Runs derandomized, so every run draws the same examples; skipped when
hypothesis is not installed.
"""

import itertools
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from verolink.exactlin import (IntMatrix, _hermite, _smith_diagonal,
                               clear_denominators,
                               column_lattice_basis, contains_column_space,
                               det, hermite_normal_form,
                               rational_rank, rational_rref,
                               smith_normal_form)
from verolink.fibers import (_class_maxima, _fibers_of_sum, _raw_fiber,
                             class_key, degrees_up_to, enumerate_fiber,
                             off_diagonal_parities)
from verolink.link import link_generators
from verolink.poly import (SparsePoly, character_pairs, character_value,
                           normal_form, parse_poly, render_poly, twist)
from verolink.veronese import (column_position, monomial_degree, pair_count,
                               variable_multisets, veronese_matrix)
from verolink.verify import (_decide_degree, _prepared, _split_edges,
                             ideal_degree_piece, subintersection_degree_piece)

PROPERTY = settings(derandomize=True, deadline=None)

sizes = st.integers(min_value=3, max_value=5)
# Cut to the first n entries for a degree of size n.
degrees = st.lists(st.integers(0, 5), min_size=5, max_size=5)


@st.composite
def monomials(draw, n, max_vars=6):
    """A product of up to ``max_vars`` variables of the weight-2 ring."""
    cols = variable_multisets(2, n)
    exps = [0] * len(cols)
    for k in draw(st.lists(st.integers(0, len(cols) - 1), max_size=max_vars)):
        exps[k] += 1
    return tuple(exps)


coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw, n):
    terms = draw(st.lists(st.tuples(monomials(n), coeffs), max_size=6))
    return SparsePoly(n, dict(terms))


@st.composite
def homogeneous_polys(draw, n, b):
    """A polynomial whose terms all lie in the fiber of b."""
    points = st.sampled_from(enumerate_fiber(n, b))
    return SparsePoly(n, dict(draw(st.lists(st.tuples(points, coeffs),
                                            max_size=6))))


int_matrices = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
    min_size=1, max_size=4).map(lambda rows: IntMatrix(rows, cols=cols)))
zero_matrices = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda shape: IntMatrix([[0] * shape[1] for _ in range(shape[0])],
                            cols=shape[1]))


@st.composite
def deficient_int_matrices(draw):
    """Up to 6x7, often rank deficient: a product through a middle
    dimension k, with rows repeated when k reaches the row count."""
    rows, k, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entries = st.integers(-3, 3)
    A = IntMatrix(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                min_size=rows, max_size=rows)), cols=k)
    B = IntMatrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                min_size=k, max_size=k)), cols=cols)
    M = A.mul(B)
    return IntMatrix(M.data + M.data[:draw(st.integers(0, 2))], cols=cols)


@st.composite
def rational_matrices(draw):
    """A rank-deficient integer matrix with each entry times a drawn
    rational, some of them zero, given as an IntMatrix by clearing the
    denominators of every row."""
    M = draw(deficient_int_matrices())
    scales = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    return IntMatrix([clear_denominators([draw(scales) * x for x in row])
                      for row in M.data], cols=M.cols)


def characters(n):
    return st.integers(0, (1 << pair_count(n - 1)) - 1)


def parity_tuple(m: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The class parities in character-pair order, read pair by pair."""
    pos = column_position(2, n)
    return tuple(m[pos[p]] & 1 for p in character_pairs(n))


@PROPERTY
@given(st.data())
def test_class_key_of_a_product_adds_degrees_and_xors_parities(data):
    n = data.draw(sizes)
    m1, m2 = data.draw(monomials(n)), data.draw(monomials(n))
    product = tuple(a + b for a, b in zip(m1, m2))
    (d1, p1), (d2, p2) = class_key(m1, n), class_key(m2, n)
    d, p = class_key(product, n)
    assert d == tuple(a + b for a, b in zip(d1, d2))
    assert p == p1 ^ p2
    # Bit j of the mask is the j-th pair of ``character_pairs``.
    assert [p >> j & 1 for j in range(pair_count(n - 1))] \
        == list(parity_tuple(product, n))


@settings(PROPERTY, max_examples=200)
@given(st.data())
def test_degree_is_the_grading_matrix_product(data):
    # The round trip of test_fibers at every n = 1..8, against the
    # grading matrix times the exponent vector, an independent route.
    n = data.draw(st.integers(1, 8))
    size = len(variable_multisets(2, n))
    exps = tuple(data.draw(st.lists(st.integers(0, 5), min_size=size,
                                    max_size=size)))
    assert monomial_degree(exps, n) == veronese_matrix(2, n).mul_vector(exps)


@PROPERTY
@given(st.data())
def test_twist_is_an_involution(data):
    n = data.draw(sizes)
    p = data.draw(polys(n))
    t = data.draw(st.integers(0, (1 << len(variable_multisets(2, n))) - 1))
    assert twist(twist(p, t), t) == p


@PROPERTY
@given(st.data())
def test_parse_inverts_render(data):
    n = data.draw(sizes)
    p = data.draw(polys(n))
    assert parse_poly(render_poly(p), n) == p


# The README grammar over maximal-munch tokens, whitespace between them
# ignored; a denominator is nonzero.
_COEFF = r"[0-9]+(?:\s*/\s*[0-9]*[1-9][0-9]*)?"
_VAR = r"x[1-9][1-9]"
_TERM = rf"(?:{_COEFF}|(?:{_COEFF}\s*(?:\*\s*)?)?{_VAR}(?:\s*(?:\*\s*)?{_VAR})*)"
GRAMMAR = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")


def parses(text: str) -> bool:
    try:
        parse_poly(text)
    except ValueError:
        return False
    return True


@settings(PROPERTY, max_examples=2000)
@given(st.lists(st.sampled_from(["x11", "x12", "x23", "2", "0", "+", "-",
                                 "*", "/", " "]), max_size=9).map("".join))
@example("1/x12 2")
@example("1/*10")
@example("3/x11*x22 4 - x12")
def test_parse_accepts_exactly_the_grammar(text):
    assert parses(text) == bool(GRAMMAR.fullmatch(text))


@PROPERTY
@given(st.data())
def test_character_value_is_the_sign_product_over_differing_parities(data):
    n = data.draw(sizes)
    u = data.draw(monomials(n))
    u0 = data.draw(st.sampled_from(enumerate_fiber(n, monomial_degree(u, n))))
    eps = data.draw(characters(n))
    expected = 1
    for k, (a, b) in enumerate(zip(parity_tuple(u, n), parity_tuple(u0, n))):
        if a != b and eps >> k & 1:
            expected = -expected
    assert character_value(eps, u, u0, n) == expected


@PROPERTY
@given(st.data())
def test_normal_form_is_linear(data):
    n = data.draw(sizes)
    b = monomial_degree(data.draw(monomials(n)), n)
    f, g = (data.draw(homogeneous_polys(n, b)) for _ in range(2))
    a = data.draw(coeffs)
    expected = dict(normal_form(g))
    for key, c in normal_form(f).items():
        expected[key] = expected.get(key, 0) + a * c
    expected = {key: c for key, c in expected.items() if c}
    got = normal_form(SparsePoly.constant(n, a) * f + g)
    assert got == expected
    assert all(degree == b for degree, _ in got)


# Largest degree entry per (d, n), so that the box of bounded exponent
# tuples below stays at most a few thousand points.
FIBER_BOXES = {(2, 1): 8, (2, 2): 6, (2, 3): 4, (2, 4): 2, (3, 1): 9,
               (3, 2): 6, (3, 3): 3, (4, 1): 8, (4, 2): 5, (4, 3): 3}


@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_the_fiber_is_the_filtered_box_of_exponent_tuples(data):
    # The block search against a scan of every tuple with each exponent
    # at most its column's bound, kept when V @ u == b; odd and other
    # off-monoid sums included.
    d, n = data.draw(st.sampled_from(sorted(FIBER_BOXES)))
    top = FIBER_BOXES[d, n]
    b = tuple(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    V = veronese_matrix(d, n)
    bounds = [min(b[r] // c[r] for r in range(n) if c[r]) for c in V.columns()]
    box = [u for u in itertools.product(*(range(x + 1) for x in bounds))
           if V.mul_vector(u) == b]
    fiber = _raw_fiber(d, n, b)
    assert fiber == box
    assert all(u < v for u, v in zip(fiber, fiber[1:]))
    assert all(V.mul_vector(u) == b for u in fiber)


@PROPERTY
@given(st.data())
def test_class_search_finds_the_largest_point_of_every_class(data):
    n = data.draw(sizes)
    b = tuple(data.draw(degrees)[:n])
    expected = {off_diagonal_parities(e, n): e for e in _raw_fiber(2, n, b)}
    assert _class_maxima(n, b) == expected


@PROPERTY
@given(st.data())
def test_a_level_holds_the_raw_fibers_of_its_sum(data):
    # Odd sums included: they miss the monoid and have no fiber.
    n = data.draw(sizes)
    s = data.draw(st.integers(0, 8))
    expected = {b: _raw_fiber(2, n, b) for b in degrees_up_to(n, s)
                if sum(b) == s}
    assert _fibers_of_sum(n, s) == expected


@PROPERTY
@given(st.data())
def test_class_route_equals_the_public_fiber_route(data):
    # Odd sums included: both routes then give the empty piece.
    n = data.draw(st.integers(3, 4))
    b = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    omitted = data.draw(characters(n))
    gens = link_generators(n, omitted)
    fiber = _raw_fiber(2, n, b)
    record = _decide_degree(b, n, fiber,
                            *_split_edges(_prepared(gens, n)), omitted)
    ideal = ideal_degree_piece(gens, n, b)
    target = subintersection_degree_piece(n, omitted, b)
    assert record.fiber_size == len(fiber) == ideal.rows == target.rows
    assert record.ideal_dim == rational_rank(ideal)
    assert record.target_dim == rational_rank(target)
    assert record.equal == (record.ideal_dim == record.target_dim and
                            contains_column_space(target, ideal))


@PROPERTY
@given(st.one_of(zero_matrices, int_matrices))
@example(IntMatrix([], cols=3))
@example(IntMatrix([[], []], cols=0))
@example(IntMatrix([], cols=0))
def test_the_hermite_transform_is_unimodular_and_gives_the_form(M):
    H, U = hermite_normal_form(M)
    assert U.mul(M) == H
    assert abs(det(U)) == 1


@PROPERTY
@given(st.one_of(zero_matrices, int_matrices))
@example(IntMatrix([], cols=3))
@example(IntMatrix([[], []], cols=0))
@example(IntMatrix([], cols=0))
def test_the_smith_transforms_are_unimodular_and_give_the_form(M):
    U, S, W = smith_normal_form(M)
    assert U.mul(M).mul(W) == S
    assert abs(det(U)) == 1 and abs(det(W)) == 1
    assert all(x == 0 for i, row in enumerate(S.data)
               for j, x in enumerate(row) if i != j)


single_rows = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(
    lambda row: IntMatrix([row]))
single_columns = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(
    lambda col: IntMatrix.from_columns([col]))


@PROPERTY
@given(st.one_of(zero_matrices, single_rows, single_columns, int_matrices,
                 deficient_int_matrices()))
@example(IntMatrix([], cols=3))
@example(IntMatrix([[], []], cols=0))
@example(IntMatrix([[2, 0], [0, 3]]))
@example(IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]]))
@example(IntMatrix([[4, 2], [-4, 1]]))  # diagonal only after a second round
def test_the_transform_free_smith_diagonal_is_the_smith_diagonal(M):
    _, S, _ = smith_normal_form(M)
    assert _smith_diagonal(M) == [d for d in S.diagonal() if d]


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices(), rational_matrices()))
def test_the_echelon_rank_counts_the_rref_pivots(M):
    assert rational_rank(M) == len(rational_rref(M)[1])


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices()))
def test_the_transform_free_hermite_form_is_the_hermite_form(M):
    H = [row[:] for row in M.data]
    _hermite(H)
    assert H == hermite_normal_form(M)[0].data


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices()))
def test_the_column_lattice_basis_is_the_nonzero_hermite_rows(M):
    H, _ = hermite_normal_form(M.transpose())
    basis = [row for row in H.data if any(row)]
    assert column_lattice_basis(M) == IntMatrix.from_columns(basis, rows=M.rows)
