"""Property tests of class keys, twisting, the text grammar, characters,
normal forms, the class search, the level enumeration, the class route
of the degree check, the Hermite and Smith transforms and the
shortcuts of the elimination kernels.

Runs derandomized, so every run draws the same examples; skipped when
hypothesis is not installed.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from verolink.exactlin import (IntMatrix, RatMatrix, _hermite,
                               column_lattice_basis, contains_column_space,
                               hermite_normal_form, is_unimodular,
                               rational_rank, rational_rref,
                               smith_normal_form)
from verolink.fibers import (_class_maxima, _fibers_of_sum, _raw_fiber,
                             class_key, degrees_up_to, enumerate_fiber,
                             off_diagonal_parities)
from verolink.link import link_generators
from verolink.poly import (SignCharacter, SparsePoly, Twisting, all_characters,
                           character_pairs, character_value, normal_form,
                           parse_poly, render_poly, twist)
from verolink.veronese import Monomial, pair_count, variable_multisets
from verolink.verify import (_decide_degree, _prepared, _restrictor,
                             _split_edges, ideal_degree_piece,
                             subintersection_degree_piece)

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
    return Monomial(n, tuple(exps))


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
    """A rational matrix whose rows are scaled copies of the rows of a
    rank-deficient integer matrix, and some of them zero."""
    M = draw(deficient_int_matrices())
    scales = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    return RatMatrix([[draw(scales) * x for x in row] for row in M.data],
                     cols=M.cols)


def characters(n):
    signs = st.lists(st.sampled_from((1, -1)), min_size=pair_count(n - 1),
                     max_size=pair_count(n - 1))
    return signs.map(lambda s: SignCharacter(n, tuple(s)))


def parity_tuple(m: Monomial) -> tuple[int, ...]:
    """The class parities in character-pair order, read pair by pair."""
    return tuple(m.get(i, j) & 1 for i, j in character_pairs(m.n))


@PROPERTY
@given(st.data())
def test_class_key_of_a_product_adds_degrees_and_xors_parities(data):
    n = data.draw(sizes)
    m1, m2 = data.draw(monomials(n)), data.draw(monomials(n))
    k1, k2, k = class_key(m1), class_key(m2), class_key(m1 * m2)
    assert k.degree == tuple(a + b for a, b in zip(k1.degree, k2.degree))
    assert k.parities == k1.parities ^ k2.parities
    # Bit j of the mask is the j-th pair of ``character_pairs``.
    assert [k.parities >> j & 1 for j in range(pair_count(n - 1))] \
        == list(parity_tuple(m1 * m2))


@PROPERTY
@given(st.data())
def test_twist_is_an_involution(data):
    n = data.draw(sizes)
    p = data.draw(polys(n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    signs = data.draw(st.dictionaries(st.sampled_from(pairs),
                                      st.sampled_from((1, -1))))
    t = Twisting(n, signs)
    assert twist(twist(p, t), t) == p


@PROPERTY
@given(st.data())
def test_parse_inverts_render(data):
    n = data.draw(sizes)
    p = data.draw(polys(n))
    assert parse_poly(render_poly(p), n) == p


@PROPERTY
@given(st.data())
def test_character_value_is_the_sign_product_over_differing_parities(data):
    n = data.draw(sizes)
    u = data.draw(monomials(n))
    u0 = data.draw(st.sampled_from(enumerate_fiber(n, u.degree())))
    eps = data.draw(characters(n))
    expected = 1
    for s, a, b in zip(eps.signs, parity_tuple(u), parity_tuple(u0)):
        if a != b and s < 0:
            expected = -expected
    assert character_value(eps, u, u0) == expected


@PROPERTY
@given(st.data())
def test_normal_form_is_linear(data):
    n = data.draw(sizes)
    b = data.draw(monomials(n)).degree()
    f, g = (data.draw(homogeneous_polys(n, b)) for _ in range(2))
    a = data.draw(coeffs)
    expected = dict(normal_form(g))
    for key, c in normal_form(f).items():
        expected[key] = expected.get(key, 0) + a * c
    expected = {key: c for key, c in expected.items() if c}
    got = normal_form(a * f + g)
    assert got == expected
    assert all(key.degree == b for key in got)


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
    gens = link_generators(n, omitted).all_gens()
    masks = [eps.mask for eps in all_characters(n) if eps != omitted]
    record = _decide_degree(b, n, _raw_fiber(2, n, b),
                            *_split_edges(_prepared(gens, n)), _restrictor(masks))
    ideal = ideal_degree_piece(gens, n, b)
    target = subintersection_degree_piece(n, omitted, b)
    assert record.fiber_size == len(ideal.fiber) == len(target.fiber)
    assert record.ideal_dim == ideal.dimension()
    assert record.target_dim == target.dimension()
    assert record.equal == (record.ideal_dim == record.target_dim and
                            contains_column_space(target.vectors, ideal.vectors))


@PROPERTY
@given(int_matrices)
def test_the_hermite_transform_is_unimodular_and_gives_the_form(M):
    H, U = hermite_normal_form(M)
    assert U.mul(M) == H
    assert is_unimodular(U)


@PROPERTY
@given(int_matrices)
def test_the_smith_transforms_are_unimodular_and_give_the_form(M):
    snf = smith_normal_form(M)
    assert snf.U.mul(M).mul(snf.W) == snf.S
    assert is_unimodular(snf.U) and is_unimodular(snf.W)
    assert all(x == 0 for i, row in enumerate(snf.S.data)
               for j, x in enumerate(row) if i != j)


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices(), rational_matrices()))
def test_the_echelon_rank_counts_the_rref_pivots(M):
    assert rational_rank(M) == len(rational_rref(M)[1])


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices()))
def test_the_transform_free_hermite_form_is_the_hermite_form(M):
    H = [row[:] for row in M.data]
    _hermite(H, None)
    assert H == hermite_normal_form(M)[0].data


@PROPERTY
@given(st.one_of(int_matrices, deficient_int_matrices()))
def test_the_column_lattice_basis_is_the_nonzero_hermite_rows(M):
    H, _ = hermite_normal_form(M.transpose())
    basis = [row for row in H.data if any(row)]
    assert column_lattice_basis(M) == IntMatrix.from_columns(basis, rows=M.rows)
