"""The class route of the degree check against the fiber route.

``_decide_degree`` decides a degree from union-find components, the
points' parity masks and two Walsh-Hadamard facts about the omitted
character; the fiber route reads the masks relative to the largest
point, which multiplies each character row by one sign.  The
fiber route below is the former loop body of ``_check_degrees``: one
matrix row per fiber point, ranks by elimination and the product of
characters and columns.  The two must agree record by record, on the
real generators and on mutants that fail.
"""

import random

import pytest

import verolink.verify as verify
from verolink.exactlin import IntMatrix, rational_rank
from verolink.fibers import _raw_fiber, degrees_up_to
from verolink.ideals import principal_minor_gens, veronese_minor_gens
from verolink.link import link_generators
from verolink.poly import all_characters, character_sign
from verolink.verify import (DegreeRecord, _character_rank, _check_degrees,
                             _decide_degree, _killed, _prepared, _split_edges)


def present(n, omitted):
    """Every character but the omitted one; every one when it is None."""
    return [m for m in all_characters(n) if m != omitted]


def fiber_route(n, gens, characters):
    """The degree check by elimination over the fiber points, for any
    list of character masks."""
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


def class_record(n, gens, omitted, b):
    edges, others = _split_edges(_prepared(gens, n))
    return _decide_degree(b, n, _raw_fiber(2, n, b), edges, others, omitted)


def assert_routes_agree(n, gens, omitted, records):
    oracle = fiber_route(n, gens, present(n, omitted))
    for r in records:
        assert r == oracle(r.degree)


def seeded_character(n, seed):
    return random.Random(seed).choice(all_characters(n)[1:])


def link_case(n, omitted):
    return link_generators(n, omitted), omitted


def cases(n):
    yield "decomposition", principal_minor_gens(n), None
    yield "trivial", *link_case(n, 0)
    for seed in (1, 2):
        yield f"seed {seed}", *link_case(n, seeded_character(n, seed))


@pytest.mark.parametrize("n, bound", [(3, 10), (4, 10), (5, 8)])
def test_class_route_equals_fiber_route_record_by_record(n, bound):
    for name, gens, omitted in cases(n):
        records = _check_degrees(n, gens, omitted, bound)
        assert [r.degree for r in records] == list(degrees_up_to(n, bound))
        assert_routes_agree(n, gens, omitted, records)
        assert all(r.equal for r in records), name


@pytest.mark.parametrize("b", [(4, 3, 3, 3, 3), (3, 4, 3, 3, 3)])
def test_class_route_where_the_extra_generators_act(b):
    gens, omitted = link_case(5, 0)
    record = class_record(5, gens, omitted, b)
    assert record == DegreeRecord(degree=b, fiber_size=538, ideal_dim=475,
                                  target_dim=475, equal=True)
    assert record == fiber_route(5, gens, present(5, omitted))(b)


def test_dropping_an_extra_generator_fails_where_it_acts():
    gens, omitted = link_case(5, 0)
    del gens[len(principal_minor_gens(5))]  # the first extra generator
    b = (4, 3, 3, 3, 3)
    record = class_record(5, gens, omitted, b)
    assert (record.ideal_dim, record.target_dim, record.equal) == (474, 475, False)
    assert record == fiber_route(5, gens, present(5, omitted))(b)


@pytest.mark.parametrize("n, bound", [(3, 6), (4, 6)])
def test_dropping_a_principal_minor_fails(n, bound):
    for dropped in range(len(principal_minor_gens(n))):
        for name, gens, omitted in cases(n):
            gens = gens[:dropped] + gens[dropped + 1:]
            records = _check_degrees(n, gens, omitted, bound)
            assert not all(r.equal for r in records), (name, dropped)
            assert_routes_agree(n, gens, omitted, records)


@pytest.mark.parametrize("n", [3, 4])
def test_dropping_a_character_from_the_decomposition_fails(n):
    # The principal minors, checked against every character but one.
    gens = principal_minor_gens(n)
    for dropped in all_characters(n):
        records = _check_degrees(n, gens, dropped, 8)
        assert not all(r.equal for r in records), dropped
        assert_routes_agree(n, gens, dropped, records)


@pytest.mark.parametrize("n, bound", [(3, 8), (4, 10)])
def test_the_link_of_another_character_fails_on_containment_alone(n, bound):
    # Its extra generators give the right dimensions but another span.
    # At n = 3 they are binomials, so the edge test catches them; at
    # n = 4 they have eight terms, so the test on their class sums does.
    gens = link_generators(n, seeded_character(n, 1))
    records = _check_degrees(n, gens, 0, bound)
    failed = [r for r in records if not r.equal]
    assert failed and all(r.ideal_dim == r.target_dim for r in failed)
    assert_routes_agree(n, gens, 0, records)


@pytest.mark.parametrize("n", [3, 4])
def test_edges_between_parity_classes(n):
    # Every Veronese minor is an edge; the non-principal ones join
    # points of different parity.  They span the kernel of the trivial
    # character, and no other character kills them.  At n = 3 the
    # trivial character is every one but 1, so the class route kills an
    # edge between the two parity classes: the one-bit corner of its
    # kill test.  At n = 4 it leaves out seven, and only the fiber route
    # takes that set.
    gens = veronese_minor_gens(n)
    if n == 3:
        records = _check_degrees(n, gens, 1, 8)
        assert all(r.equal for r in records)
        assert_routes_agree(n, gens, 1, records)
    else:
        oracle = fiber_route(n, gens, [0])
        assert all(oracle(b).equal for b in degrees_up_to(n, 8))
    for omitted in (None, 0):
        records = _check_degrees(n, gens, omitted, 8)
        assert not all(r.equal for r in records)
        assert_routes_agree(n, gens, omitted, records)


def formula_mismatches(rank, killed, seed=5):
    """Disagreements of a target-rank and a kill formula with
    elimination: the rank of the +-1 rows of the present characters on
    sets of diffs, and whether those rows times a coefficient column
    vanish.  Over B <= 5 bits, every omitted mask and the full set."""
    rng = random.Random(seed)
    mismatches = 0
    for bits in range(6):
        full = 1 << bits
        group = range(full)
        for omitted in [None, *group]:
            masks = [m for m in group if m != omitted]
            subsets = [list(group), [0]]
            subsets += [sorted(rng.sample(group, rng.randint(1, full)))
                        for _ in range(3)]
            for diffs in subsets:
                rows = [[character_sign(m, d) for d in diffs] for m in masks]
                expected = rational_rank(IntMatrix(rows, cols=len(diffs)))
                mismatches += rank(len(diffs), full, omitted) != expected
                # Random columns, the omitted character on the diffs
                # (killed only when they cover the group), with one
                # entry changed, and edges between two diffs.
                sign = omitted or 0
                columns = [[rng.randint(-2, 2) for _ in diffs],
                           [3 * character_sign(sign, d) for d in diffs],
                           [-character_sign(sign, d) for d in diffs]]
                columns[2][rng.randrange(len(diffs))] *= 2
                columns += [[0] * len(diffs)]
                if len(diffs) > 1:
                    p, q = rng.sample(range(len(diffs)), 2)
                    edge = [0] * len(diffs)
                    edge[p], edge[q] = 1, -1
                    columns.append(edge)
                for c in columns:
                    expected = not any(
                        sum(x * y for x, y in zip(row, c)) for row in rows)
                    sums = dict(zip(diffs, c))
                    mismatches += killed(sums, full, omitted) != expected
    return mismatches


def test_target_rank_and_kill_formulas_equal_elimination():
    assert formula_mismatches(_character_rank, _killed) == 0


def test_the_formula_check_catches_mutant_formulas():
    def uncovered_kill(sums, full, omitted):
        # Drops the condition that c covers all 2^B diffs.
        c = {d: x for d, x in sums.items() if x}
        return not c or (omitted is not None and len(
            {x * character_sign(omitted, d) for d, x in c.items()}) == 1)
    assert formula_mismatches(_character_rank, uncovered_kill) > 0
    assert formula_mismatches(lambda distinct, full, omitted: distinct,
                              _killed) > 0


@pytest.mark.parametrize("b", [(1, 0, 0), (-1, 1, 0)])
def test_a_degree_off_the_monoid_is_an_empty_equal_record(b):
    gens, omitted = link_case(3, 0)
    assert class_record(3, gens, omitted, b) \
        == DegreeRecord(degree=b, fiber_size=0, ideal_dim=0, target_dim=0,
                        equal=True) \
        == fiber_route(3, gens, present(3, omitted))(b)
