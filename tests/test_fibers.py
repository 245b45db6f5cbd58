"""Unit tests for fiber enumeration and equivalence classes.

The brute-force oracle ``box_fiber`` solves the defining linear system
by scanning a bounding box with itertools, independently of the DFS
used by the library.
"""

import random
from itertools import product

import pytest

from verolink.errors import SizeCapExceeded, SizeMismatch
from verolink.fibers import (_fibers_of_sum, _raw_fiber,
                             canonical_representative, class_count, class_key,
                             connectivity_classes, degrees_up_to,
                             enumerate_fiber, fiber_classes,
                             is_saturated_degree, minimal_saturated_fibers,
                             principal_moves)
from verolink.veronese import Monomial, pair_count, veronese_matrix


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
    assert [m.exps for m in enumerate_fiber(3, b)] == box_fiber(V, b)


@pytest.mark.parametrize("b", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 1, 1, 0),
                               (3, 1, 1, 1)])
def test_fiber_matches_box_oracle_n4(b):
    V = veronese_matrix(2, 4)
    assert [m.exps for m in enumerate_fiber(4, b)] == box_fiber(V, b)


def test_fiber_golden_n3():
    assert [str(m) for m in enumerate_fiber(3, (2, 1, 1))] == \
        ["x12*x13", "x11*x23"]
    assert [m.exps for m in enumerate_fiber(3, (0, 0, 0))] == [(0,) * 6]
    assert enumerate_fiber(3, (1, 0, 0)) == []


def test_fiber_size_cap(monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "3")
    with pytest.raises(SizeCapExceeded):
        enumerate_fiber(4, (4, 4, 4, 4))


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "2")
    with pytest.raises(SizeCapExceeded):
        enumerate_fiber(3, (2, 2, 2))


def raw_fibers_of_sum(n, s):
    return {b: _raw_fiber(2, n, b) for b in degrees_up_to(n, s) if sum(b) == s}


@pytest.mark.parametrize("n, top", [(3, 10), (4, 10), (5, 8)])
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
    u = Monomial.from_pairs(4, {(1, 2): 1, (4, 4): 1})
    assert u.degree() == V.mul_vector(u.exps) == (1, 1, 0, 2)


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
    a = Monomial.from_pairs(3, {(1, 1): 1, (2, 3): 1})
    b = Monomial.from_pairs(3, {(1, 2): 1, (1, 3): 1})
    ka, kb = class_key(a), class_key(b)
    assert ka.degree == kb.degree == (2, 1, 1)
    assert ka.parities == 0
    assert kb.parities == 1


def test_class_key_even_exponents_agree():
    # Both squares have all off-diagonal off-last-column parities zero.
    a = Monomial.from_pairs(4, {(1, 2): 2, (4, 4): 2})
    b = Monomial.from_pairs(4, {(1, 4): 2, (2, 4): 2})
    assert class_key(a) == class_key(b)


def test_class_count_goldens():
    assert class_count(3, (2, 1, 1)) == 2
    assert class_count(4, (2, 2, 2, 2)) == 8
    assert class_count(4, (1, 1, 1, 1)) == 3


def test_class_count_n4_1111_by_hand():
    # The fiber has the three perfect matchings of four points; their
    # parity keys on the pairs of [3] are pairwise distinct.
    fiber = enumerate_fiber(4, (1, 1, 1, 1))
    assert sorted(str(m) for m in fiber) == ["x12*x34", "x13*x24", "x14*x23"]
    assert len({class_key(m) for m in fiber}) == 3


# -- connectivity oracle -------------------------------------------------------

def test_connectivity_fiber_211_two_singletons():
    classes = connectivity_classes(3, (2, 1, 1), principal_moves(3))
    assert [[str(m) for m in cls] for cls in classes] == \
        [["x12*x13"], ["x11*x23"]]


def test_connectivity_fiber_220_one_pair():
    # The single move e11 + e22 - 2 e12 connects the two points.
    classes = connectivity_classes(3, (2, 2, 0), principal_moves(3))
    assert len(classes) == 1
    assert sorted(str(m) for m in classes[0]) == ["x11*x22", "x12*x12"]


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
            by_key.setdefault(class_key(m), set()).add(m.exps)
        assert sorted(sorted(x.exps for x in comp) for comp in components) \
            == sorted(sorted(g) for g in by_key.values())


def test_a_move_of_another_size_is_refused():
    # Moves are dense over the binom(n+1, 2) pair variables of their own n.
    for other in (3, 5):
        with pytest.raises(SizeMismatch):
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
                stepped = tuple(x + y for x, y in zip(m.exps, move))
                if all(x >= 0 for x in stepped):
                    assert class_key(Monomial(4, stepped)) == class_key(m)


def test_off_basis_kernel_moves_flip_a_parity():
    # Odd multiples of the off-diagonal kernel basis vectors change the
    # corresponding parity bit.
    from verolink.veronese import minor_vector
    move = minor_vector(1, 4, 2, 4, 4)
    fiber = enumerate_fiber(4, (2, 2, 2, 2))
    flipped = 0
    for m in fiber:
        stepped = tuple(x + y for x, y in zip(m.exps, move))
        if all(x >= 0 for x in stepped):
            k1, k2 = class_key(m), class_key(Monomial(4, stepped))
            assert k1.parities != k2.parities
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
    reps = {str(canonical_representative(cls)) for cls in classes}
    # The all-even class contains ten points; its dictionary-least member
    # is the diagonal product.
    assert "x11*x22*x33*x44" in reps
    big = [cls for cls in classes
           if any(str(m) == "x11*x22*x33*x44" for m in cls)]
    assert len(big[0]) == 10
