"""Unit tests for fiber enumeration and equivalence classes.

The brute-force oracle ``box_fiber`` solves the defining linear system
by scanning a bounding box with itertools, independently of the block
search used by the library.
"""

import random
import tracemalloc
from itertools import product

import pytest

from verolink.errors import SizeCapExceeded
from verolink.fibers import (_class_maxima, _fibers_of_sum, _raw_fiber,
                             canonical_representative, class_count, class_key,
                             connectivity_classes, degrees_up_to,
                             enumerate_fiber, fiber_classes,
                             is_saturated_degree, minimal_saturated_fibers,
                             off_diagonal_parities, principal_moves, size_cap)
from verolink.veronese import (monomial, monomial_degree, monomial_text,
                               pair_count, variable_multisets, veronese_matrix)


def box_fiber(V, b):
    """All solutions of V u = b by bounding-box scan (slow, independent)."""
    cols = V.columns()
    bounds = []
    for col in cols:
        bound = min((b[i] // col[i] for i in range(V.rows) if col[i]), default=0)
        bounds.append(bound)
    out = []
    for exps in product(*(range(x + 1) for x in bounds)):
        image = [sum(col[i] * e for col, e in zip(cols, exps))
                 for i in range(V.rows)]
        if tuple(image) == tuple(b):
            out.append(exps)
    return sorted(out)


@pytest.mark.parametrize("b", [(2, 1, 1), (0, 0, 0), (1, 0, 0), (2, 2, 0),
                               (4, 2, 2), (3, 3, 2)])
def test_fiber_matches_box_oracle_n3(b):
    V = veronese_matrix(2, 3)
    assert enumerate_fiber(3, b) == box_fiber(V, b)


@pytest.mark.parametrize("b", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 1, 1, 0),
                               (3, 1, 1, 1)])
def test_fiber_matches_box_oracle_n4(b):
    V = veronese_matrix(2, 4)
    assert enumerate_fiber(4, b) == box_fiber(V, b)


def test_fiber_golden_n3():
    assert [monomial_text(m, 3) for m in enumerate_fiber(3, (2, 1, 1))] == \
        ["x12*x13", "x11*x23"]
    assert enumerate_fiber(3, (0, 0, 0)) == [(0,) * 6]
    assert enumerate_fiber(3, (1, 0, 0)) == []


def test_fiber_size_cap(monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "3")
    with pytest.raises(SizeCapExceeded):
        enumerate_fiber(4, (4, 4, 4, 4))


@pytest.mark.parametrize("d, n, b, size", [(2, 4, (4, 4, 4, 4), 138),
                                           (2, 6, (4, 4, 4, 4, 4, 4), 43581),
                                           (2, 6, (6, 0, 2, 4, 0, 2), 44),
                                           (3, 3, (6, 6, 6), 103),
                                           (4, 3, (4, 4, 4), 23)])
def test_the_size_cap_stops_a_fiber_one_point_over(monkeypatch, d, n, b, size):
    # The lists of the later blocks are counted too; together they hold
    # tails of distinct points, so a cap of exactly the size still passes.
    monkeypatch.setenv("VLAB_SIZE_CAP", str(size))
    assert len(_raw_fiber(d, n, b)) == size
    monkeypatch.setenv("VLAB_SIZE_CAP", str(size - 1))
    with pytest.raises(SizeCapExceeded, match=f"cap {size - 1}$"):
        _raw_fiber(d, n, b)


def test_the_size_cap_stops_a_large_fiber_before_a_block_is_listed(monkeypatch):
    # Block 0 of (30,)*6 alone has over 10^5 points.  They are made as
    # the search consumes them, so the search stops with next to
    # nothing allocated once its lists pass a small cap.
    monkeypatch.setenv("VLAB_SIZE_CAP", "10")
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="cap 10$"):
            _raw_fiber(2, 6, (30,) * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_each_call_returns_a_fresh_list():
    b = (2, 2, 2, 2, 2)
    first = _raw_fiber(2, 5, b)
    expected = list(first)
    first.clear()
    assert _raw_fiber(2, 5, b) == expected
    assert _raw_fiber(2, 5, b) is not _raw_fiber(2, 5, b)


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "2")
    with pytest.raises(SizeCapExceeded):
        enumerate_fiber(3, (2, 2, 2))


@pytest.mark.parametrize("raw, cap", [("2", 2), ("219", 219), ("+5", 5),
                                      (" 7\t", 7)])
def test_size_cap_reads_ascii_integers(monkeypatch, raw, cap):
    monkeypatch.setenv("VLAB_SIZE_CAP", raw)
    assert size_cap() == cap


def raw_fibers_of_sum(n, s):
    return {b: _raw_fiber(2, n, b) for b in degrees_up_to(n, s) if sum(b) == s}


@pytest.mark.parametrize("n, top", [(3, 10), (4, 10), (5, 8), (6, 8)])
def test_fibers_of_a_sum_are_the_raw_fibers_in_order(n, top):
    for s in range(0, top + 1, 2):
        assert _fibers_of_sum(n, s) == raw_fibers_of_sum(n, s)


@pytest.mark.parametrize("s", [-2, -1, 1, 7])
def test_a_sum_off_the_monoid_has_no_fibers(s):
    assert _fibers_of_sum(3, s) == {}


def test_the_size_cap_counts_the_monomials_of_a_level(monkeypatch):
    # Sum 6 at n = 4: binom(12, 3) = 220 monomials, at most 6 per fiber.
    assert sum(map(len, _fibers_of_sum(4, 6).values())) == 220
    monkeypatch.setenv("VLAB_SIZE_CAP", "219")
    with pytest.raises(SizeCapExceeded, match="220"):
        _fibers_of_sum(4, 6)
    monkeypatch.setenv("VLAB_SIZE_CAP", "220")
    assert _fibers_of_sum(4, 6) == raw_fibers_of_sum(4, 6)


def test_degree_round_trip():
    V = veronese_matrix(2, 4)
    u = monomial(4, {(1, 2): 1, (4, 4): 1})
    assert monomial_degree(u, 4) == V.mul_vector(u) == (1, 1, 0, 2)


def test_fiber_enumeration_weight_three():
    # Hand-solved: 3a + 2b + c = 3 and b + 2c + 3d = 3 over the columns
    # (1,1,1), (1,1,2), (1,2,2), (2,2,2) has the two solutions below.
    V = veronese_matrix(3, 2)
    assert _raw_fiber(3, 2, (3, 3)) == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert _raw_fiber(3, 2, (2, 1)) == [(0, 1, 0, 0)]
    assert _raw_fiber(3, 2, (1, 1)) == []
    for b in [(3, 3), (2, 1)]:
        assert all(V.mul_vector(u) == b for u in _raw_fiber(3, 2, b))


# -- class keys ---------------------------------------------------------------

def test_class_key_reads_parities():
    a = monomial(3, {(1, 1): 1, (2, 3): 1})
    b = monomial(3, {(1, 2): 1, (1, 3): 1})
    assert class_key(a, 3) == ((2, 1, 1), 0)
    assert class_key(b, 3) == ((2, 1, 1), 1)


@pytest.mark.parametrize("length, n", [(10, 3), (3, 3), (6, 4), (0, 3)])
def test_parities_refuse_a_tuple_of_another_length(length, n):
    # 10 entries are n = 4's column count; n = 3 has 6.
    with pytest.raises(ValueError, match="different variable set"):
        off_diagonal_parities((1,) * length, n)


def test_class_key_even_exponents_agree():
    # Both squares have all off-diagonal off-last-column parities zero.
    a = monomial(4, {(1, 2): 2, (4, 4): 2})
    b = monomial(4, {(1, 4): 2, (2, 4): 2})
    assert class_key(a, 4) == class_key(b, 4)


def test_class_count_goldens():
    assert class_count(3, (2, 1, 1)) == 2
    assert class_count(4, (2, 2, 2, 2)) == 8
    assert class_count(4, (1, 1, 1, 1)) == 3


def test_class_count_n4_1111_by_hand():
    # The fiber has the three perfect matchings of four points; their
    # parity keys on the pairs of [3] are pairwise distinct.
    fiber = enumerate_fiber(4, (1, 1, 1, 1))
    assert sorted(monomial_text(m, 4) for m in fiber) == \
        ["x12*x34", "x13*x24", "x14*x23"]
    assert len({class_key(m, 4) for m in fiber}) == 3


# -- connectivity oracle -------------------------------------------------------

def test_connectivity_fiber_211_two_singletons():
    classes = connectivity_classes(3, (2, 1, 1), principal_moves(3))
    assert [[monomial_text(m, 3) for m in cls] for cls in classes] == \
        [["x12*x13"], ["x11*x23"]]


def test_connectivity_fiber_220_one_pair():
    # The single move e11 + e22 - 2 e12 connects the two points.
    classes = connectivity_classes(3, (2, 2, 0), principal_moves(3))
    assert len(classes) == 1
    assert sorted(monomial_text(m, 3) for m in classes[0]) == \
        ["x11*x22", "x12*x12"]


def test_connectivity_fiber_2222_eight_classes():
    classes = connectivity_classes(4, (2, 2, 2, 2), principal_moves(4))
    assert len(classes) == 8


@pytest.mark.parametrize("n", [3, 4])
def test_connectivity_matches_class_key(n):
    moves = principal_moves(n)
    for b in degrees_up_to(n, 8):
        components = connectivity_classes(n, b, moves)
        by_key = {}
        for m in enumerate_fiber(n, b):
            by_key.setdefault(class_key(m, n), set()).add(m)
        assert sorted(sorted(comp) for comp in components) \
            == sorted(sorted(g) for g in by_key.values())


def test_a_move_off_the_grading_kernel_joins_nothing():
    # x11 -> x12 changes the degree, so no point has its neighbour in the
    # fiber; each point is its own component.
    move = monomial(3, {(1, 2): 1})
    move = tuple(a - b for a, b in zip(move, monomial(3, {(1, 1): 1})))
    fiber = enumerate_fiber(3, (2, 2, 2))
    assert connectivity_classes(3, (2, 2, 2), [move]) == [[u] for u in fiber]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_distinct_parity_masks_of_a_fiber_count_its_classes(n):
    for s in range(0, 9, 2):
        for b, fiber in _fibers_of_sum(n, s).items():
            masks = {off_diagonal_parities(p, n) for p in fiber}
            assert len(masks) == class_count(n, b)


def test_a_move_of_another_size_is_refused():
    # Moves are dense over the binom(n+1, 2) pair variables of their own n.
    for other in (3, 5):
        with pytest.raises(ValueError,
                           match="move over a different variable set"):
            connectivity_classes(4, (2, 2, 2, 2),
                                 principal_moves(4) + principal_moves(other)[:1])


def test_restricted_move_set_splits_a_class():
    # With only the principal-minor *basis* as moves (doubled off-diagonal
    # vectors plus last-column diagonals), the fiber of (2, 2, 0) falls
    # apart even though both points share one class key: connectivity
    # depends on the move set, and the full principal move set is the one
    # matching the class keys.
    from verolink.veronese import principal_minor_basis
    classes = connectivity_classes(3, (2, 2, 0), principal_minor_basis(3))
    assert len(classes) == 2
    assert class_count(3, (2, 2, 0)) == 1


def test_basis_moves_preserve_class_key():
    # Any valid step along a principal-minor basis vector keeps the key.
    from verolink.veronese import principal_minor_basis
    rng = random.Random(5)
    for b in [(2, 2, 2, 2), (3, 3, 2, 2), (4, 2, 1, 1)]:
        fiber = enumerate_fiber(4, b)
        for m in rng.sample(fiber, min(6, len(fiber))):
            for move in principal_minor_basis(4):
                stepped = tuple(x + y for x, y in zip(m, move))
                if all(x >= 0 for x in stepped):
                    assert class_key(stepped, 4) == class_key(m, 4)


def test_off_basis_kernel_moves_flip_a_parity():
    # Odd multiples of the off-diagonal kernel basis vectors change the
    # corresponding parity bit.
    from verolink.veronese import minor_vector
    move = minor_vector(1, 4, 2, 4, 4)
    fiber = enumerate_fiber(4, (2, 2, 2, 2))
    flipped = 0
    for m in fiber:
        stepped = tuple(x + y for x, y in zip(m, move))
        if all(x >= 0 for x in stepped):
            (_, p1), (_, p2) = class_key(m, 4), class_key(stepped, 4)
            assert p1 != p2
            flipped += 1
    assert flipped > 0


# -- saturation ---------------------------------------------------------------

def test_is_saturated_degree():
    assert is_saturated_degree(4, (2, 2, 2, 2))
    assert not is_saturated_degree(4, (1, 2, 2, 2))
    assert is_saturated_degree(3, (1, 1, 2))


def test_minimal_saturated_fibers():
    assert minimal_saturated_fibers(4) == [(2, 2, 2, 2)]
    assert minimal_saturated_fibers(3) == [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    assert minimal_saturated_fibers(5) == [
        (4, 3, 3, 3, 3), (3, 4, 3, 3, 3), (3, 3, 4, 3, 3),
        (3, 3, 3, 4, 3), (3, 3, 3, 3, 4)]


@pytest.mark.parametrize("n", [3, 4])
def test_toral_bound_and_stabilization(n):
    bound = 2 ** pair_count(n - 1)
    for b in degrees_up_to(n, 10):
        count = class_count(n, b)
        assert count <= bound
        if is_saturated_degree(n, b):
            assert count == bound


def test_fiber_permutation_symmetry():
    rng = random.Random(11)
    for b in [(3, 2, 2, 1), (4, 2, 1, 1), (2, 2, 2, 0)]:
        size = len(enumerate_fiber(4, b))
        count = class_count(4, b)
        perm = list(range(4))
        rng.shuffle(perm)
        pb = tuple(b[p] for p in perm)
        assert len(enumerate_fiber(4, pb)) == size
        assert class_count(4, pb) == count


def test_canonical_representative_is_dictionary_least():
    classes = fiber_classes(4, (2, 2, 2, 2))
    reps = {monomial_text(canonical_representative(cls), 4) for cls in classes}
    # The all-even class contains ten points; its dictionary-least member
    # is the diagonal product.
    assert "x11*x22*x33*x44" in reps
    big = [cls for cls in classes
           if any(monomial_text(m, 4) == "x11*x22*x33*x44" for m in cls)]
    assert len(big[0]) == 10


def test_class_maxima_at_a_degree_where_some_patterns_cannot_occur():
    # Not saturated (four b_i < 5): only 24,606 of the 2^15 patterns
    # occur, the count of edge sets E of K_7 with deg_E <= b and
    # deg_E = b mod 2.  The fiber is never listed.
    n, b = 7, (4, 8, 4, 5, 8, 4, 3)
    maxima = _class_maxima(n, b)
    assert len(maxima) == 24606
    for mask, m in maxima.items():
        assert monomial_degree(m, n) == b
        assert off_diagonal_parities(m, n) == mask
        assert all(e <= 1 for (i, j), e in
                   zip(variable_multisets(2, n), m) if i < j)


def _sweep():
    for n, top in [(3, 12), (4, 10), (5, 8)]:
        yield from ((n, b) for b in degrees_up_to(n, top))
    yield 6, (4, 4, 4, 4, 4, 4)


def test_class_maxima_match_the_largest_fiber_point_of_each_class():
    for n, b in _sweep():
        fiber = _raw_fiber(2, n, b)
        expected = {off_diagonal_parities(u, n): u for u in fiber}
        assert _class_maxima(n, b) == expected, (n, b)

