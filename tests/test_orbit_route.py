"""The orbit route of the degree check against deciding every degree.

When ``_permutes_records`` holds, ``_check_degrees`` decides one degree
per S_n-orbit, from its own fiber, and copies the record across the
orbit; otherwise it decides every degree from its own fiber.  Refusing
the gate forces the second route, and the two must agree record by
record.  A twisted character is decided through its untwisting, so the
link of every character meets the gate as the trivial link does;
mutants the gate refuses take the second route and fail.
"""

import pytest

import verolink.verify as verify
from verolink.fibers import minimal_saturated_fibers
from verolink.ideals import principal_minor_gens
from verolink.link import link_generators
from verolink.poly import (SparsePoly, all_characters, twist,
                           twisting_from_character)
from verolink.verify import (_check_degrees, _permutes_records, _prepared,
                             _split_edges, verify_decomposition, verify_link)


def gate(n, gens):
    return _permutes_records(n, *_split_edges(_prepared(gens, n)))


def extras_sum(n):
    return sum(minimal_saturated_fibers(n)[0])


def made_fibers(monkeypatch, check):
    """The result of ``check()`` and the degrees of the fibers it made."""
    made = []
    real = verify._raw_fiber
    with monkeypatch.context() as m:
        m.setattr(verify, "_raw_fiber",
                  lambda d, n, b: made.append(b) or real(d, n, b))
        result = check()
    return result, made


def both_routes(monkeypatch, check):
    """The report of ``check()`` on the orbit route, which makes fibers
    only at degrees with non-increasing coordinates, and with the gate
    refused, which decides every degree."""
    orbit, made = made_fibers(monkeypatch, check)
    assert all(list(b) == sorted(b, reverse=True) for b in made)
    with monkeypatch.context() as m:
        m.setattr(verify, "_permutes_records", lambda *args: False)
        every = check()
    return orbit, every


@pytest.mark.parametrize("n, bound", [(3, 12), (4, 10), (5, 10), (6, 8)])
def test_the_decomposition_takes_the_orbit_route_record_by_record(
        monkeypatch, n, bound):
    assert gate(n, principal_minor_gens(n))
    orbit, every = both_routes(monkeypatch,
                               lambda: verify_decomposition(n, bound))
    assert orbit == every and orbit.verdict


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_trivial_link_takes_the_orbit_route_through_its_extras(
        monkeypatch, n):
    # At the extras' sum the bound builds the fiber polynomials, which
    # pass the gate through their normal forms.
    bound = extras_sum(n)
    assert gate(n, link_generators(n, 0))
    orbit, every = both_routes(monkeypatch, lambda: verify_link(n, 0, bound))
    assert orbit == every and orbit.verdict


@pytest.mark.parametrize("n, bound", [(5, 12), (6, 10)])
def test_a_twisted_character_below_the_extras_takes_the_orbit_route(
        monkeypatch, n, bound):
    # Below the extras' sum the generators are the principal minors,
    # whose steps keep every parity mask.
    omitted = all_characters(n)[-1]
    assert bound < extras_sum(n)
    assert gate(n, principal_minor_gens(n))
    orbit, every = both_routes(monkeypatch,
                               lambda: verify_link(n, omitted, bound))
    assert orbit == every and orbit.verdict


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_link_untwists_to_the_trivial_link_and_passes_the_gate(n):
    # At n = 6 a twist of the 1024-term f takes milliseconds, so the
    # characters there are the ten one-pair ones and the all-minus one.
    trivial = link_generators(n, 0)
    characters = all_characters(n)
    if n == 6:
        characters = [1 << k for k in range(10)] + characters[-1:]
    for omitted in characters:
        flips = twisting_from_character(n, omitted)
        assert [twist(g, flips)
                for g in link_generators(n, omitted)] == trivial, omitted
    assert gate(n, trivial)


@pytest.mark.parametrize("n", [4, 5])
def test_a_twisted_character_takes_the_orbit_route_through_its_extras(
        monkeypatch, n):
    omitted = all_characters(n)[1]
    bound = extras_sum(n)
    orbit, made = made_fibers(monkeypatch,
                              lambda: verify_link(n, omitted, bound))
    assert orbit.verdict and len(made) < len(orbit.records)
    assert all(list(b) == sorted(b, reverse=True) for b in made)


def test_fiber_polynomials_without_the_minors_fail_the_gate():
    # Their normal forms are invariant, but only modulo J_n.
    gens = link_generators(4, 0)[len(principal_minor_gens(4)):]
    assert not gate(4, gens)


def assert_refused_and_fails(monkeypatch, n, gens, omitted, bound):
    """The gate refuses the generators, every degree is decided from its
    own fiber, once, and the check fails."""
    assert not gate(n, gens)
    records, made = made_fibers(
        monkeypatch, lambda: _check_degrees(n, gens, omitted, bound))
    assert made == [r.degree for r in records]
    assert not all(r.equal for r in records)


@pytest.mark.parametrize("n", [4, 5])
def test_a_dropped_principal_minor_is_refused_and_fails(
        monkeypatch, n):
    for gens, omitted in [(principal_minor_gens(n), None),
                          (link_generators(n, 0), 0)]:
        for dropped in range(len(principal_minor_gens(n))):
            mutant = gens[:dropped] + gens[dropped + 1:]
            assert_refused_and_fails(monkeypatch, n, mutant, omitted, 6)


def dropped_term(n, keep):
    """The trivial link with the terms of its first fiber polynomial cut
    to the slice ``keep`` of its sorted terms."""
    gens = link_generators(n, 0)
    k = len(principal_minor_gens(n))
    gens[k] = SparsePoly(n, dict(gens[k].sorted_terms()[keep]))
    return gens


@pytest.mark.parametrize("n", [4, 5])
def test_a_dropped_term_of_f_is_refused_and_fails(monkeypatch, n):
    gens = dropped_term(n, slice(-1))
    assert_refused_and_fails(monkeypatch, n, gens, 0, extras_sum(n))


def test_a_dropped_term_in_a_fixed_class_passes_the_gate_and_fails(
        monkeypatch):
    # The largest term of f at n = 4 is x11*x22*x33*x44, whose class, every
    # off-diagonal parity even, every permutation fixes: the mutant is
    # invariant, so the orbit route decides it and must fail as deciding
    # every degree does.
    gens = dropped_term(4, slice(1, None))
    assert gate(4, gens)
    orbit, every = both_routes(
        monkeypatch, lambda: _check_degrees(4, gens, 0, extras_sum(4)))
    assert orbit == every and not all(r.equal for r in orbit)
