"""A twisted character decided through its untwisting.

``_check_degrees`` replaces each generator by its twist under the
twisting of the omitted character, and then checks against every
character but the trivial one.  The records must be those of the
trivial link, and those of the fiber route, which reads the twisted
character directly; mutants of the twisted f must fail on both.
"""

import pytest

from test_class_route import assert_routes_agree
from verolink.ideals import principal_minor_gens
from verolink.link import link_generators
from verolink.poly import SparsePoly, all_characters
from verolink.verify import _check_degrees, verify_link


@pytest.mark.parametrize("n", [3, 4])
def test_every_character_has_the_records_of_the_trivial_one(n):
    trivial = verify_link(n, 0, 12).records
    for omitted in all_characters(n)[1:]:
        assert verify_link(n, omitted, 12).records == trivial, omitted


@pytest.mark.parametrize("n, bound", [(3, 10), (4, 8)])
def test_twisted_records_equal_the_fiber_route(n, bound):
    for omitted in all_characters(n)[1:]:
        records = verify_link(n, omitted, bound).records
        assert_routes_agree(n, link_generators(n, omitted), omitted, records)


def twisted_mutants(n, omitted):
    """The link of the omitted character with the largest term of its
    first f negated, and with that term dropped."""
    gens = link_generators(n, omitted)
    k = len(principal_minor_gens(n))
    *rest, (u, c) = gens[k].sorted_terms()
    for f in ({**dict(rest), u: -c}, dict(rest)):
        yield gens[:k] + [SparsePoly(n, f)] + gens[k + 1:]


@pytest.mark.parametrize("n, omitted, bound",
                         [(3, 1, 4), (4, 1, 8), (4, 2, 8), (4, 3, 8)])
def test_a_mutant_of_the_twisted_f_fails(n, omitted, bound):
    # The bound is the sum of the extra generators, where f enters.
    for gens in twisted_mutants(n, omitted):
        records = _check_degrees(n, gens, omitted, bound)
        assert not all(r.equal for r in records)
        assert_routes_agree(n, gens, omitted, records)
