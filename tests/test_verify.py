"""Unit tests for the degreewise verification machinery."""

import random

import pytest

from verolink import verify
from verolink.errors import SizeCapExceeded
from verolink.exactlin import (_smith_diagonal, contains_column_space,
                               invariant_factors, kernel_lattice,
                               rational_rank)
from verolink.fibers import _raw_fiber, degrees_up_to, minimal_saturated_fibers
from verolink.ideals import generator_lattice, principal_minor_gens
from verolink.link import link_generators, saturated_fiber_poly
from verolink.poly import SparsePoly, all_characters, parse_poly
from verolink.veronese import column_position, monomial, veronese_matrix
from verolink.verify import (colon_membership, group_algebra_subintersection,
                             higher_torsion, ideal_degree_piece,
                             subintersection_degree_piece,
                             verify_decomposition, verify_link)


def test_ideal_piece_single_generator_degree():
    piece = ideal_degree_piece(principal_minor_gens(3), 3, (2, 2, 0))
    assert rational_rank(piece) == 1


def test_ideal_piece_unreachable_degree():
    piece = ideal_degree_piece(principal_minor_gens(3), 3, (2, 1, 1))
    assert rational_rank(piece) == 0


def test_ideal_piece_with_extra_generator():
    extra = saturated_fiber_poly(4, 1)
    base = ideal_degree_piece(principal_minor_gens(4), 4, (2, 2, 2, 2))
    full = ideal_degree_piece(principal_minor_gens(4) + [extra], 4,
                              (2, 2, 2, 2))
    assert rational_rank(full) == rational_rank(base) + 1


def test_subintersection_piece_goldens():
    trivial = 0
    piece = subintersection_degree_piece(3, trivial, (2, 1, 1))
    assert rational_rank(piece) == 1
    vec = piece.column(0)
    assert vec[0] == vec[1] != 0  # spans the all-ones direction

    # A singleton fiber gives a 1x1 sign matrix with trivial kernel.
    singleton = subintersection_degree_piece(3, trivial, (2, 0, 0))
    assert rational_rank(singleton) == 0

    piece = subintersection_degree_piece(4, trivial, (1, 1, 1, 1))
    assert rational_rank(piece) == 0


@pytest.mark.parametrize("b", [(1, 0, 0), (-1, 1, 0)])
def test_subintersection_piece_off_the_monoid_is_empty(b):
    piece = subintersection_degree_piece(3, 0, b)
    assert piece == ideal_degree_piece(principal_minor_gens(3), 3, b)
    assert _raw_fiber(2, 3, b) == []
    assert (piece.rows, piece.cols) == (0, 0)


def test_verify_link_trivial_small_bound():
    report = verify_link(3, 0, 2)
    assert report.verdict
    assert all(r.ideal_dim == 0 and r.target_dim == 0 for r in report.records)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_link_trivial(n):
    report = verify_link(n, 0, 8)
    assert report.verdict
    # Make sure the check is not vacuous: some degrees carry content.
    assert any(r.ideal_dim > 0 for r in report.records)


def test_verify_link_nontrivial_character_n3():
    assert verify_link(3, 1, 8).verdict  # 12:-


def test_both_containments_hold_per_degree():
    n = 3
    omitted = 0
    gens = link_generators(n, omitted)
    from verolink.fibers import degrees_up_to
    for b in degrees_up_to(n, 6):
        ideal = ideal_degree_piece(gens, n, b)
        target = subintersection_degree_piece(n, omitted, b)
        assert contains_column_space(target, ideal)


def test_equal_dimensions_with_another_span_fail(monkeypatch):
    # The link of another character has the right dimension in every
    # degree but a different span, so only the containment check fails it.
    import verolink.verify as verify
    other = 1  # 12:-
    real = verify.link_generators
    monkeypatch.setattr(verify, "link_generators",
                        lambda n, omitted: real(n, other))
    report = verify_link(3, 0, 6)
    failed = [r for r in report.records if not r.equal]
    assert failed and not report.verdict
    assert all(r.ideal_dim == r.target_dim for r in failed)


@pytest.mark.parametrize("n, bound", [(3, 2), (4, 6), (5, 8)])
def test_extra_generators_are_built_only_from_their_sum(monkeypatch, n, bound):
    # They have coordinate sum n(n-2) + n mod 2, so below it a check
    # without them has every record of the check with them.
    import verolink.verify as verify
    calls = []
    real = verify.link_generators
    monkeypatch.setattr(verify, "link_generators",
                        lambda n, omitted: calls.append(n) or real(n, omitted))
    first = sum(minimal_saturated_fibers(n)[0])
    assert first == n * (n - 2) + n % 2
    omitted = all_characters(n)[-1]
    report = verify_link(n, omitted, bound)
    assert bound < first and not calls
    assert report.records == verify._check_degrees(
        n, real(n, omitted), omitted, bound)
    if n < 5:
        verify_link(n, omitted, first)
        assert calls == [n]


def test_verify_link_refuses_a_small_n_or_a_foreign_character():
    with pytest.raises(ValueError, match="need n >= 3"):
        verify_link(2, 0, 2)
    # A mask with a bit past the character's pairs, or a negative one, is
    # refused, not truncated; also below the sum of the extra generators,
    # which are not built there.
    for n, mask in ((3, 2), (3, -1), (4, 1 << 3), (4, -1)):
        for bound in (2, 8):
            with pytest.raises(ValueError,
                               match="character over a different variable set"):
                verify_link(n, mask, bound)
    with pytest.raises(ValueError,
                       match="character over a different variable set"):
        subintersection_degree_piece(3, 2, (2, 1, 1))


def test_dimension_gap_at_most_one():
    # The subintersection piece exceeds the complete-intersection piece
    # by at most one dimension in every degree.
    n = 4
    omitted = 0
    gens = list(principal_minor_gens(n))
    from verolink.fibers import degrees_up_to
    for b in degrees_up_to(n, 8):
        ci = ideal_degree_piece(gens, n, b)
        target = subintersection_degree_piece(n, omitted, b)
        gap = rational_rank(target) - rational_rank(ci)
        assert gap in (0, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_decomposition(n):
    report = verify_decomposition(n, 10)
    assert report.verdict


def test_decomposition_without_one_minor_fails(monkeypatch):
    # Dropping x11*x22 - x12^2 leaves a span too small in its degree, so
    # the check of J_n against every character must fail there.
    import verolink.verify as verify
    real = verify.principal_minor_gens
    monkeypatch.setattr(verify, "principal_minor_gens", lambda n: real(n)[1:])
    report = verify_decomposition(3, 6)
    failed = [r for r in report.records if not r.equal]
    assert failed and not report.verdict
    first = failed[0]
    assert (first.degree, first.ideal_dim, first.target_dim) == ((2, 2, 0), 0, 1)


def test_generator_degrees_are_read_once_per_check(monkeypatch):
    import verolink.verify as verify
    calls = []
    real = verify.multidegree
    monkeypatch.setattr(verify, "multidegree",
                        lambda g: calls.append(g) or real(g))
    verify_decomposition(3, 8)
    assert len(calls) == len(principal_minor_gens(3))
    calls.clear()
    omitted = 0
    verify_link(3, omitted, 8)
    assert len(calls) == len(link_generators(3, omitted))


def test_a_refused_input_enumerates_each_degree_once(monkeypatch):
    # J_3 without its first minor fails the orbit gate, so every degree
    # is decided from its own fiber, made once, in the records' order,
    # and no level is built: every point made lands in one record.
    import verolink.fibers as fibers
    import verolink.verify as verify
    made = []
    real = verify._raw_fiber
    monkeypatch.setattr(
        verify, "_raw_fiber",
        lambda d, n, b: made.append((b, real(d, n, b))) or made[-1][1])
    monkeypatch.setattr(fibers, "_fibers_of_sum", None)
    assert not hasattr(verify, "_fibers_of_sum")
    records = verify._check_degrees(3, principal_minor_gens(3)[1:], None, 6)
    assert not all(r.equal for r in records)
    assert [b for b, _ in made] == [r.degree for r in records] \
        == list(degrees_up_to(3, 6))
    assert sum(len(f) for _, f in made) == sum(r.fiber_size for r in records)


def test_each_orbit_is_enumerated_once(monkeypatch):
    # J_5 passes the orbit gate: no level is built, and one fiber is made
    # per degree with non-increasing coordinates, the 36 partitions of
    # the even sums up to 8 into at most five parts.
    import verolink.verify as verify
    made = []
    real = verify._raw_fiber
    monkeypatch.setattr(verify, "_raw_fiber",
                        lambda d, n, b: made.append(b) or real(d, n, b))
    report = verify_decomposition(5, 8)
    assert report.verdict
    assert len(made) == len(set(made)) == 36
    assert all(list(b) == sorted(b, reverse=True) for b in made)
    assert {tuple(sorted(r.degree, reverse=True))
            for r in report.records} == set(made)


def test_a_run_past_the_size_cap_stops_before_any_fiber(monkeypatch):
    # Sum 6 at n = 4 has 220 monomials; sums 0 to 4 fit under the cap.
    import verolink.verify as verify
    monkeypatch.setattr(verify, "_raw_fiber", None)
    monkeypatch.setenv("VLAB_SIZE_CAP", "219")
    with pytest.raises(SizeCapExceeded, match="220"):
        verify_decomposition(4, 6)


def test_the_decomposition_is_decided_without_elimination(monkeypatch):
    # Every degree of J_n against all characters is decided by
    # union-find and a Walsh count; no matrix is eliminated.
    import verolink.verify as verify

    def refuse(matrix):
        raise AssertionError("rational_rank called")
    monkeypatch.setattr(verify, "rational_rank", refuse)
    assert verify_decomposition(5, 8).verdict


def test_verify_decomposition_bound_zero():
    report = verify_decomposition(3, 0)
    assert report.verdict
    assert len(report.records) == 1


def test_report_serialization():
    report = verify_link(3, 0, 4)
    lines = report.to_lines()
    assert lines[-1].startswith("verdict=pass")
    payload = report.to_json_dict()
    assert payload["verdict"] is True
    assert payload["records"][0]["degree"] == [0, 0, 0]


def test_random_span_members_pass_all_characters():
    # Polynomials assembled from the link generators always lie in every
    # non-omitted component.
    from verolink.poly import in_twisted_veronese
    rng = random.Random(9)
    n = 3
    omitted = 0
    gens = link_generators(n, omitted)
    for _ in range(10):
        combo = SparsePoly(n)
        for g in gens:
            exponents = {}
            for _ in range(rng.randint(0, 2)):
                i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
                exponents[(i, j)] = exponents.get((i, j), 0) + 1
            combo = combo + SparsePoly(
                n, {monomial(n, exponents): rng.randint(-2, 2)}) * g
        for eps in all_characters(n):
            if eps != omitted:
                assert in_twisted_veronese(combo, eps)


def test_colon_membership_goldens():
    assert colon_membership(saturated_fiber_poly(4, 1), 4)
    assert not colon_membership(parse_poly("x11", n=3), 3)
    for g in principal_minor_gens(3):
        assert colon_membership(g, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_group_algebra_small(k):
    assert group_algebra_subintersection(k)


def test_group_algebra_k1_by_hand():
    # Dimension 2: omitting the sign character leaves the kernel of the
    # all-ones evaluation, spanned by t - 1, and the twisted product
    # 1 - t spans the same line.
    assert group_algebra_subintersection(1)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_group_algebra_fails_on_a_table_with_repeated_characters(monkeypatch, k):
    # Ignoring bit 0 of the character makes s and s ^ 1 coincide, so the
    # table is singular and no omission leaves a kernel line.
    sign = verify.character_sign
    monkeypatch.setattr(verify, "character_sign",
                        lambda s, g: sign(s & ~1, g))
    assert not group_algebra_subintersection(k)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_group_algebra_eliminates_the_table_then_each_translate_matrix(
        monkeypatch, k):
    shapes = []

    def spy(M):
        shapes.append((M.rows, M.cols))
        return rational_rank(M)

    monkeypatch.setattr(verify, "rational_rank", spy)
    assert group_algebra_subintersection(k)
    size = 1 << k
    assert len(shapes) == 1 + size
    assert shapes[0] == (size, size)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_group_algebra_fails_on_a_full_rank_table_that_misses_q(monkeypatch, k):
    # Flipping the column of group element 3, a product of two
    # generators, keeps the table invertible and leaves q unchanged (it
    # reads only the generators' columns), so only the product with q
    # can see it.
    sign = verify.character_sign
    monkeypatch.setattr(verify, "character_sign",
                        lambda s, g: -sign(s, g) if g == 3 else sign(s, g))
    assert not group_algebra_subintersection(k)


def test_group_algebra_fails_when_the_table_rank_falls_short(monkeypatch):
    # Every omission would pass its own checks; the table rank alone
    # stands for the kernel lines.
    calls = []

    def short(M):
        calls.append(M)
        return rational_rank(M) - (len(calls) == 1)

    monkeypatch.setattr(verify, "rational_rank", short)
    assert not group_algebra_subintersection(3)


def test_higher_torsion_values():
    assert higher_torsion(2, 4) == [2, 2, 2]
    assert higher_torsion(2, 2) == []
    assert higher_torsion(2, 3) == [2]


def test_higher_torsion_d3_n4():
    assert higher_torsion(3, 4) == [3] * 13


# (d, n): the number of factors d for every pair inside the size guard
# (2 <= n <= 8, d >= 2, d*n <= 24); each factor is d.
TORSION_COUNTS = {
    (2, 2): 0, (3, 2): 1, (4, 2): 2, (5, 2): 3, (6, 2): 4, (7, 2): 5,
    (8, 2): 6, (9, 2): 7, (10, 2): 8, (11, 2): 9, (12, 2): 10,
    (2, 3): 1, (3, 3): 5, (4, 3): 10, (5, 3): 16, (6, 3): 23, (7, 3): 31,
    (8, 3): 40,
    (2, 4): 3, (3, 4): 13, (4, 4): 28, (5, 4): 49, (6, 4): 77,
    (2, 5): 6, (3, 5): 26, (4, 5): 61,
    (2, 6): 10, (3, 6): 45, (4, 6): 115,
    (2, 7): 15, (3, 7): 71,
    (2, 8): 21, (3, 8): 105,
}


def test_the_torsion_table_covers_every_guarded_pair():
    assert set(TORSION_COUNTS) == {(d, n) for n in range(2, 9)
                                   for d in range(2, 25) if d * n <= 24}


@pytest.mark.parametrize("d,n", sorted(TORSION_COUNTS))
def test_higher_torsion_table(d, n):
    assert higher_torsion(d, n) == [d] * TORSION_COUNTS[d, n]


def two_lattice_torsion(d, n):
    """The route through a basis of the grading's kernel: the generators'
    coordinates in it and their Smith form."""
    return invariant_factors(generator_lattice(verify.higher_veronese_gens(d, n)),
                             kernel_lattice(veronese_matrix(d, n)))


@pytest.mark.parametrize("d,n", sorted(TORSION_COUNTS))
def test_higher_torsion_equals_the_two_lattice_route(d, n):
    assert higher_torsion(d, n) == two_lattice_torsion(d, n)


@pytest.mark.parametrize("d,n", sorted(TORSION_COUNTS))
def test_the_kernel_of_the_grading_is_saturated(d, n):
    # The hypothesis that lets the torsion skip coordinates in a kernel
    # basis: Z^N over the kernel is free, so its Smith factors are all 1.
    K = kernel_lattice(veronese_matrix(d, n))
    assert _smith_diagonal(K) == [1] * K.cols == [1] * (K.rows - n)


def drop_one(gens, d, n):
    return gens[:-1]


def off_the_kernel(gens, d, n):
    # One more x_11...1 in the first binomial: the grading no longer kills it.
    v = list(gens[0])
    v[column_position(d, n)[(1,) * d]] += 1
    return [tuple(v)] + gens[1:]


@pytest.mark.parametrize("d,n", sorted(TORSION_COUNTS))
@pytest.mark.parametrize("mutant", [drop_one, off_the_kernel])
def test_a_mutant_generator_set_is_refused_as_by_the_two_lattice_route(
        monkeypatch, mutant, d, n):
    real = verify.higher_veronese_gens
    monkeypatch.setattr(verify, "higher_veronese_gens",
                        lambda d, n: mutant(real(d, n), d, n))
    with pytest.raises(ValueError) as reference:
        two_lattice_torsion(d, n)
    with pytest.raises(ValueError) as raised:
        higher_torsion(d, n)
    assert str(raised.value) == str(reference.value)
    # At (2, 2) the one binomial is dropped and no lattice is left.
    if mutant is drop_one and (d, n) != (2, 2):
        assert "lower rank than the ambient" in str(raised.value)
