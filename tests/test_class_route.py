"""The class route of the degree check against the fiber route.

``_decide_degree`` decides a degree from union-find components, parity
diffs and Walsh counts.  The fiber route below is the former loop body
of ``_check_degrees``: one matrix row per fiber point, ranks by
elimination and the product of characters and columns.  The two must
agree record by record, on the real generators and on mutants that
fail.
"""

import random

import pytest

import verolink.verify as verify
from verolink.exactlin import IntMatrix, rational_rank
from verolink.fibers import _raw_fiber, degrees_up_to
from verolink.ideals import principal_minor_gens, veronese_minor_gens
from verolink.link import link_generators
from verolink.poly import all_characters
from verolink.verify import (DegreeRecord, _check_degrees, _decide_degree,
                             _prepared, _restrictor, _split_edges, _walsh_rank)


def fiber_route(n, gens, characters):
    """The degree check by elimination over the fiber points."""
    prepared = _prepared(gens, n)

    def record(b):
        fiber = _raw_fiber(2, n, b)
        cols = verify._columns(prepared, fiber)
        chars = verify._character_rows(n, fiber, characters)
        di = rational_rank(cols)
        dt = len(fiber) - rational_rank(chars)
        return DegreeRecord(degree=b, fiber_size=len(fiber), ideal_dim=di,
                            target_dim=dt,
                            equal=di == dt and chars.mul(cols).is_zero())
    return record


def class_record(n, gens, characters, b):
    edges, others = _split_edges(_prepared(gens, n))
    return _decide_degree(b, n, _raw_fiber(2, n, b), edges, others,
                          _restrictor(characters))


def assert_routes_agree(n, gens, characters, records):
    oracle = fiber_route(n, gens, characters)
    for r in records:
        assert r == oracle(r.degree)


def seeded_character(n, seed):
    return random.Random(seed).choice(all_characters(n)[1:])


def link_case(n, omitted):
    gens = link_generators(n, omitted)
    return gens, [m for m in all_characters(n) if m != omitted]


def cases(n):
    yield "decomposition", principal_minor_gens(n), all_characters(n)
    yield "trivial", *link_case(n, 0)
    for seed in (1, 2):
        yield f"seed {seed}", *link_case(n, seeded_character(n, seed))


@pytest.mark.parametrize("n, bound", [(3, 10), (4, 10), (5, 8)])
def test_class_route_equals_fiber_route_record_by_record(n, bound):
    for name, gens, characters in cases(n):
        records = _check_degrees(n, gens, characters, bound)
        assert [r.degree for r in records] == list(degrees_up_to(n, bound))
        assert_routes_agree(n, gens, characters, records)
        assert all(r.equal for r in records), name


@pytest.mark.parametrize("b", [(4, 3, 3, 3, 3), (3, 4, 3, 3, 3)])
def test_class_route_where_the_extra_generators_act(b):
    gens, characters = link_case(5, 0)
    record = class_record(5, gens, characters, b)
    assert record == DegreeRecord(degree=b, fiber_size=538, ideal_dim=475,
                                  target_dim=475, equal=True)
    assert record == fiber_route(5, gens, characters)(b)


def test_dropping_an_extra_generator_fails_where_it_acts():
    gens, characters = link_case(5, 0)
    del gens[len(principal_minor_gens(5))]  # the first extra generator
    b = (4, 3, 3, 3, 3)
    record = class_record(5, gens, characters, b)
    assert (record.ideal_dim, record.target_dim, record.equal) == (474, 475, False)
    assert record == fiber_route(5, gens, characters)(b)


@pytest.mark.parametrize("n, bound", [(3, 6), (4, 6)])
def test_dropping_a_principal_minor_fails(n, bound):
    for dropped in range(len(principal_minor_gens(n))):
        for name, gens, characters in cases(n):
            gens = gens[:dropped] + gens[dropped + 1:]
            records = _check_degrees(n, gens, characters, bound)
            assert not all(r.equal for r in records), (name, dropped)
            assert_routes_agree(n, gens, characters, records)


@pytest.mark.parametrize("n", [3, 4])
def test_dropping_a_character_from_the_decomposition_fails(n):
    gens = principal_minor_gens(n)
    for dropped in all_characters(n):
        characters = [m for m in all_characters(n) if m != dropped]
        records = _check_degrees(n, gens, characters, 8)
        assert not all(r.equal for r in records), dropped
        assert_routes_agree(n, gens, characters, records)


@pytest.mark.parametrize("n, bound", [(3, 8), (4, 10)])
def test_the_link_of_another_character_fails_on_containment_alone(n, bound):
    # Its extra generators give the right dimensions but another span.
    # At n = 3 they are binomials, so the edge test catches them; at
    # n = 4 they have eight terms, so the test on their class sums does.
    gens = link_generators(n, seeded_character(n, 1))
    _, characters = link_case(n, 0)
    records = _check_degrees(n, gens, characters, bound)
    failed = [r for r in records if not r.equal]
    assert failed and all(r.ideal_dim == r.target_dim for r in failed)
    assert_routes_agree(n, gens, characters, records)


@pytest.mark.parametrize("n", [3, 4])
def test_edges_between_parity_classes(n):
    # Every Veronese minor is an edge; the non-principal ones join
    # points of different parity.  They span the kernel of the trivial
    # character, which is a single row (the Walsh rank's fallback), and
    # no other character kills them.
    gens = veronese_minor_gens(n)
    trivial = [0]
    for characters, verdict in ((trivial, True), (all_characters(n), False)):
        records = _check_degrees(n, gens, characters, 8)
        assert all(r.equal for r in records) == verdict
        assert_routes_agree(n, gens, characters, records)


def test_walsh_rank_equals_the_eliminated_rank():
    rng = random.Random(5)
    for _ in range(300):
        v = rng.randint(0, 4)
        varying = rng.choice([m for m in range(1 << 5) if m.bit_count() == v])
        inside = [m for m in range(1 << 5) if m & varying == m]
        diffs = set(rng.sample(inside, rng.randint(1, len(inside))))
        restricted = set(rng.sample(inside, rng.choice(
            [len(inside), len(inside) - 1, rng.randint(0, len(inside))])))
        if rng.random() < 0.3:
            diffs = set(inside)
        rows = [[-1 if (d & m).bit_count() & 1 else 1 for d in sorted(diffs)]
                for m in sorted(restricted)]
        expected = rational_rank(IntMatrix(rows, cols=len(diffs)))
        assert _walsh_rank(diffs, restricted, varying) == expected


@pytest.mark.parametrize("b", [(1, 0, 0), (-1, 1, 0)])
def test_a_degree_off_the_monoid_is_an_empty_equal_record(b):
    gens, characters = link_case(3, 0)
    assert class_record(3, gens, characters, b) \
        == DegreeRecord(degree=b, fiber_size=0, ideal_dim=0, target_dim=0,
                        equal=True) == fiber_route(3, gens, characters)(b)
