"""Unit tests for gradings, monomials, and lattice bases."""

import pytest

from verolink.cli import main
from verolink.errors import IndexOutOfRange, SizeCapExceeded
from verolink.exactlin import smith_normal_form
from verolink.ideals import generator_lattice
from verolink.veronese import (Monomial, check_size, minor_vector, pair_count,
                               principal_minor_basis, variable_multisets,
                               veronese_lattice_basis, veronese_matrix)


def support(v, n):
    """The nonzero entries of a dense weight-2 vector, keyed by pair."""
    return {ij: c for ij, c in zip(variable_multisets(2, n), v) if c}


def test_pair_count_values():
    assert pair_count(3) == 3
    assert pair_count(4) == 6
    assert pair_count(0) == 0


def test_veronese_matrix_golden_n3():
    V = veronese_matrix(2, 3)
    assert V.data == [[2, 1, 1, 0, 0, 0],
                      [0, 1, 0, 2, 1, 0],
                      [0, 0, 1, 0, 1, 2]]
    # Column k counts the rows of the k-th multiset.
    columns = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert variable_multisets(2, 3) == columns
    assert V.columns() == [tuple(ms.count(i) for i in (1, 2, 3))
                           for ms in columns]


def test_veronese_matrix_small_weights():
    assert veronese_matrix(2, 2).columns() == [(2, 0), (1, 1), (0, 2)]
    assert veronese_matrix(3, 2).columns() == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_veronese_matrix_column_count():
    # Column count for weight two is binom(n+1, 2).
    for n in range(2, 7):
        V = veronese_matrix(2, n)
        assert V.cols == pair_count(n + 1)
        for col in V.columns():
            assert sum(col) == 2
            assert all(x >= 0 for x in col)


def test_size_guard():
    with pytest.raises(SizeCapExceeded):
        check_size(2, 9)
    with pytest.raises(SizeCapExceeded):
        veronese_matrix(5, 5)


# -- minor vectors ---------------------------------------------------------

def test_minor_vector_coinciding_pairs_accumulate():
    # Columns (1,1), (1,2), (2,2).
    assert minor_vector(1, 2, 1, 2, 2) == (1, -2, 1)


def test_minor_vector_direct_expansion():
    # e(1,2) + e(3,3) - e(1,3) - e(2,3) read off the defining sum.
    v = minor_vector(1, 3, 2, 3, 3)
    assert support(v, 3) == {(1, 2): 1, (3, 3): 1, (1, 3): -1, (2, 3): -1}
    w = minor_vector(1, 2, 3, 4, 4)
    assert support(w, 4) == {(1, 3): 1, (2, 4): 1, (1, 4): -1, (2, 3): -1}


def test_lattice_vector_string(capsys):
    # ``basis`` prints a vector as its ij:c entries.
    v = minor_vector(1, 3, 1, 3, 3)
    assert veronese_lattice_basis(3)[0] == v
    assert main(["basis", "-n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "11:1 13:-2 33:1"


# -- kernel and principal-minor bases ---------------------------------------

@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 6)])
def test_kernel_basis_sizes(n, count):
    assert len(veronese_lattice_basis(n)) == count
    assert len(principal_minor_basis(n)) == count


def test_kernel_basis_in_kernel():
    for n in range(2, 7):
        V = veronese_matrix(2, n)
        for v in veronese_lattice_basis(n) + principal_minor_basis(n):
            assert V.mul_vector(v) == (0,) * n


def test_kernel_basis_saturated():
    # The Smith form of the basis matrix has all invariant factors one.
    for n in range(2, 7):
        B = generator_lattice(veronese_lattice_basis(n))
        assert all(d == 1 for d in smith_normal_form(B).invariant_factors)


def test_principal_basis_n3_members():
    doubled, diag1, diag2 = principal_minor_basis(3)
    assert doubled == tuple(2 * x for x in minor_vector(1, 3, 2, 3, 3))
    assert diag1 == minor_vector(1, 3, 1, 3, 3)
    assert diag2 == minor_vector(2, 3, 2, 3, 3)


def test_principal_basis_n2_single_vector():
    basis = principal_minor_basis(2)
    assert len(basis) == 1
    assert basis[0] == minor_vector(1, 2, 1, 2, 2)


# -- monomials ---------------------------------------------------------------

def test_monomial_degree_examples():
    n = 5
    u = Monomial.from_pairs(n, {(1, 2): 1, (5, 5): 1})
    assert u.degree() == (1, 1, 0, 0, 2)
    assert Monomial.one(n).degree() == (0,) * n
    v = Monomial.from_pairs(3, {(1, 1): 1, (2, 3): 1})
    assert v.degree() == (2, 1, 1)


def test_monomial_pair_normalization():
    u = Monomial.from_pairs(3, {(3, 1): 2})
    assert u.get(1, 3) == 2
    assert str(u) == "x13*x13"


def test_polynomials_live_in_the_weight_two_ring():
    # Weight d belongs to gradings and lattices, not to monomials.
    from verolink.poly import SparsePoly
    assert set(Monomial.__dataclass_fields__) == {"n", "exps"}
    assert SparsePoly.__slots__ == ("n", "terms")
    with pytest.raises(ValueError):
        Monomial(2, (0, -1, 0))
    with pytest.raises(IndexOutOfRange):
        Monomial(2, (0, 1))


def test_monomial_multiplication():
    a = Monomial.variable(3, 1, 2)
    b = Monomial.variable(3, 1, 2)
    assert (a * b).get(1, 2) == 2
    assert (a * b).degree() == (2, 2, 0)


def test_multiset_order_is_lexicographic():
    assert variable_multisets(2, 3) == ((1, 1), (1, 2), (1, 3),
                                        (2, 2), (2, 3), (3, 3))
    assert variable_multisets(3, 2) == ((1, 1, 1), (1, 1, 2), (1, 2, 2),
                                        (2, 2, 2))


def test_principal_basis_spans_index_two_sublattice_n3():
    # Elementary divisors of the principal-minor lattice inside the full
    # ambient integer lattice: two ones and a single two.
    B = generator_lattice(principal_minor_basis(3))
    assert smith_normal_form(B).invariant_factors == [1, 1, 2]


def test_kernel_routes_agree():
    # The integer kernel of the grading matrix and the combinatorial
    # basis span the same lattice (equal Hermite column-lattice bases).
    from verolink.exactlin import column_lattice_basis, kernel_lattice
    for n in range(2, 7):
        V = veronese_matrix(2, n)
        K = kernel_lattice(V)
        assert K.cols == pair_count(n)
        B = generator_lattice(veronese_lattice_basis(n))
        assert column_lattice_basis(K).columns() \
            == column_lattice_basis(B).columns()
