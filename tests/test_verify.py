"""Unit tests for the degreewise verification machinery."""

import random

import pytest

from verolink.exactlin import contains_column_space
from verolink.ideals import principal_minor_gens
from verolink.link import link_generators, saturated_fiber_poly
from verolink.poly import (SignCharacter, SparsePoly, all_characters,
                           parse_poly)
from verolink.veronese import Monomial
from verolink.verify import (colon_membership, group_algebra_subintersection,
                             higher_torsion, ideal_degree_piece,
                             subintersection_degree_piece,
                             verify_decomposition, verify_link)


def test_ideal_piece_single_generator_degree():
    piece = ideal_degree_piece(principal_minor_gens(3), 3, (2, 2, 0))
    assert piece.dimension() == 1


def test_ideal_piece_unreachable_degree():
    piece = ideal_degree_piece(principal_minor_gens(3), 3, (2, 1, 1))
    assert piece.dimension() == 0


def test_ideal_piece_with_extra_generator():
    extra = saturated_fiber_poly(4, 1)
    base = ideal_degree_piece(principal_minor_gens(4), 4, (2, 2, 2, 2))
    full = ideal_degree_piece(principal_minor_gens(4) + [extra], 4,
                              (2, 2, 2, 2))
    assert full.dimension() == base.dimension() + 1


def test_subintersection_piece_goldens():
    trivial = SignCharacter.trivial(3)
    piece = subintersection_degree_piece(3, trivial, (2, 1, 1))
    assert piece.dimension() == 1
    vec = piece.vectors.column(0)
    assert vec[0] == vec[1] != 0  # spans the all-ones direction

    # A singleton fiber gives a 1x1 sign matrix with trivial kernel.
    assert subintersection_degree_piece(3, trivial, (2, 0, 0)).dimension() == 0

    trivial4 = SignCharacter.trivial(4)
    assert subintersection_degree_piece(4, trivial4, (1, 1, 1, 1)).dimension() == 0


def test_verify_link_trivial_small_bound():
    report = verify_link(3, SignCharacter.trivial(3), 2)
    assert report.verdict
    assert all(r.ideal_dim == 0 and r.target_dim == 0 for r in report.records)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_link_trivial(n):
    report = verify_link(n, SignCharacter.trivial(n), 8)
    assert report.verdict
    # Make sure the check is not vacuous: some degrees carry content.
    assert any(r.ideal_dim > 0 for r in report.records)


def test_verify_link_nontrivial_character_n3():
    eps = SignCharacter.from_pairs(3, {(1, 2): -1})
    assert verify_link(3, eps, 8).verdict


def test_both_containments_hold_per_degree():
    n = 3
    omitted = SignCharacter.trivial(n)
    gens = link_generators(n, omitted).all_gens()
    from verolink.fibers import degrees_up_to
    for b in degrees_up_to(n, 6):
        ideal = ideal_degree_piece(gens, n, b)
        target = subintersection_degree_piece(n, omitted, b)
        assert contains_column_space(target.vectors, ideal.vectors)


def test_equal_dimensions_with_another_span_fail(monkeypatch):
    # The link of another character has the right dimension in every
    # degree but a different span, so only the containment check fails it.
    import verolink.verify as verify
    other = SignCharacter.from_pairs(3, {(1, 2): -1})
    real = verify.link_generators
    monkeypatch.setattr(verify, "link_generators",
                        lambda n, omitted: real(n, other))
    report = verify_link(3, SignCharacter.trivial(3), 6)
    failed = [r for r in report.records if not r.equal]
    assert failed and not report.verdict
    assert all(r.ideal_dim == r.target_dim for r in failed)


def test_dimension_gap_at_most_one():
    # The subintersection piece exceeds the complete-intersection piece
    # by at most one dimension in every degree.
    n = 4
    omitted = SignCharacter.trivial(n)
    gens = list(principal_minor_gens(n))
    from verolink.fibers import degrees_up_to
    for b in degrees_up_to(n, 8):
        ci = ideal_degree_piece(gens, n, b)
        target = subintersection_degree_piece(n, omitted, b)
        gap = target.dimension() - ci.dimension()
        assert gap in (0, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_decomposition(n):
    report = verify_decomposition(n, 10)
    assert report.verdict


def test_verify_decomposition_bound_zero():
    report = verify_decomposition(3, 0)
    assert report.verdict
    assert len(report.records) == 1


def test_report_serialization():
    report = verify_link(3, SignCharacter.trivial(3), 4)
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
    omitted = SignCharacter.trivial(n)
    gens = link_generators(n, omitted).all_gens()
    for _ in range(10):
        combo = SparsePoly.zero(n)
        for g in gens:
            exponents = {}
            for _ in range(rng.randint(0, 2)):
                i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
                exponents[(i, j)] = exponents.get((i, j), 0) + 1
            combo = combo + SparsePoly.monomial(
                Monomial.from_pairs(n, exponents), rng.randint(-2, 2)) * g
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


def test_higher_torsion_values():
    assert higher_torsion(2, 4) == [2, 2, 2]
    assert higher_torsion(2, 2) == []
    assert higher_torsion(2, 3) == [2]


def test_higher_torsion_d3_n4():
    assert higher_torsion(3, 4) == [3] * 13
