"""Degreewise exact-linear-algebra verification of the decompositions.

Both decomposition checks reduce to equalities of finite-dimensional
rational subspaces, one multidegree at a time, in one degree loop: the
graded piece of a generated ideal is spanned by monomial multiples of
the generators, and the graded piece of an intersection of twisted
Veronese components is the common kernel of character-weighted
coefficient sums.  Generators are scaled to integer coefficients and
character values are +-1, so every matrix here is an integer one.  A
span lies in a common kernel when one exact integer product vanishes,
and equality then follows from a dimension count, each one a rank.
The decomposition takes every sign character and the subintersection
every one but the omitted one, so the check is given that omitted
character, or None, never a list of masks.  ``_decide_degree`` finds
the ranks and the product on class data; the subspaces over the fiber
points (``ideal_degree_piece``, ``subintersection_degree_piece``) are
the tests' oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import add, ge, or_, sub

from .exactlin import (IntMatrix, _smith_diagonal, clear_denominators,
                       column_lattice_basis, rational_nullspace,
                       rational_rank)
from .fibers import (_check_level, _components, _raw_fiber, degrees_up_to,
                     minimal_saturated_fibers, off_diagonal_parities)
from .ideals import (generator_lattice, higher_veronese_gens,
                     principal_minor_gens, veronese_minor_gens)
from .link import link_generators
from .poly import (SparsePoly, _check_mask, all_characters, character_sign,
                   character_spec, in_principal_minor_ideal, multidegree,
                   normal_form, twist, twisting_from_character)
from .veronese import (column_position, pair, pair_count, variable_multisets,
                       veronese_matrix)


def _prepared(gens: list[SparsePoly], n: int) -> list[tuple]:
    """Each generator as a base term u0 and its terms as (exps - u0,
    coefficient) pairs, scaled by ``clear_denominators``.
    ``multidegree`` rejects an inhomogeneous generator."""
    if any(g.n != n for g in gens):
        raise ValueError("generator over a different variable set")
    prepared = []
    for g in gens:
        multidegree(g)
        u0 = next(iter(g.terms))
        prepared.append((u0, [(tuple(map(sub, m, u0)), c) for m, c in
                              zip(g.terms, clear_denominators(g.terms.values()))]))
    return prepared


def _columns(prepared: list[tuple], fiber: list[tuple[int, ...]]) -> IntMatrix:
    """The products m*g in the coordinates of a fiber, one column each,
    over generators g and monomials m of the complementary degree.

    Those m are the points p - u0 of the fiber with p >= u0, for the
    base term u0 of g; translation keeps the lexicographic order, and
    the term u of m*g is the point p + (u - u0)."""
    index = {exps: k for k, exps in enumerate(fiber)}
    columns = []
    for u0, offsets in prepared:
        for p in fiber:
            if all(map(ge, p, u0)):
                vec = [0] * len(fiber)
                for du, c in offsets:
                    vec[index[tuple(map(add, p, du))]] += c
                columns.append(vec)
    return IntMatrix.from_columns(columns, rows=len(fiber))


def ideal_degree_piece(gens: list[SparsePoly], n: int, b) -> IntMatrix:
    """Degree-b piece of the ideal generated by homogeneous polynomials.

    Spanned by the products m*g over generators g and monomials m of the
    complementary degree; its columns are in the coordinates of
    ``_raw_fiber(2, n, b)``.
    """
    return _columns(_prepared(gens, n), _raw_fiber(2, n, tuple(b)))


def _character_rows(n: int, fiber: list[tuple[int, ...]],
                    masks: list[int]) -> IntMatrix:
    """The +-1 values of characters, given by their ``mask``, on a fiber
    as ``_raw_fiber`` gives it, relative to its canonical (largest) point:
    -1 at a point whose ``off_diagonal_parities`` differ from the largest
    point's in an odd number of the bits that carry a minus sign.  Masks that agree on the bits that vary over the fiber give one
    row, which keeps the row space.  An empty fiber, off the grading
    monoid, gives the 0x0 matrix."""
    if not fiber:
        return IntMatrix([], cols=0)
    base = off_diagonal_parities(fiber[-1], n)
    diffs = [off_diagonal_parities(p, n) ^ base for p in fiber]
    varying = reduce(or_, diffs)
    rows = [[character_sign(minus, d) for d in diffs]
            for minus in sorted({m & varying for m in masks})]
    return IntMatrix(rows, cols=len(fiber))


def subintersection_degree_piece(n: int, omitted: int, b) -> IntMatrix:
    """Degree-b piece of the intersection of all components but one.

    The piece is the common kernel of the character-weighted coefficient
    sums over every sign character except the omitted one, in the
    coordinates of ``_raw_fiber(2, n, b)``; the weights are taken
    relative to the largest fiber point.
    """
    _check_mask(omitted, pair_count(n - 1), "character")
    masks = [m for m in all_characters(n) if m != omitted]
    return rational_nullspace(_character_rows(n, _raw_fiber(2, n, tuple(b)),
                                              masks))


DegreeRecord = namedtuple(
    "DegreeRecord", "degree fiber_size ideal_dim target_dim equal")


class VerificationReport(namedtuple(
        "VerificationReport", "n degree_bound kind omitted records")):
    """Per-degree comparison records plus the overall verdict."""

    __slots__ = ()

    @property
    def verdict(self) -> bool:
        return all(r.equal for r in self.records)

    def to_lines(self) -> list[str]:
        out = []
        for r in self.records:
            out.append("degree={} fiber={} ideal_dim={} target_dim={} equal={}".format(
                ",".join(str(x) for x in r.degree), r.fiber_size,
                r.ideal_dim, r.target_dim, "yes" if r.equal else "no"))
        out.append("verdict={} checked={}".format(
            "pass" if self.verdict else "fail", len(self.records)))
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.degree_bound,
            "kind": self.kind,
            "omitted": (character_spec(self.n, self.omitted)
                        if self.omitted is not None else None),
            "records": [
                {"degree": list(r.degree), "fiber": r.fiber_size,
                 "ideal_dim": r.ideal_dim, "target_dim": r.target_dim,
                 "equal": r.equal}
                for r in self.records
            ],
            "verdict": self.verdict,
        }


def _split_edges(prepared: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Prepared generators split into edges and the rest.

    A binomial c*(x^u0 - x^(u0+du)) makes every column m*g an edge
    vector c*(e_p - e_(p+du)); it is kept as (u0, du).  Every principal
    minor is one."""
    edges, others = [], []
    for u0, offsets in prepared:
        if len(offsets) == 2 and offsets[0][1] == -offsets[1][1]:
            edges.append((u0, offsets[1][0]))
        else:
            others.append((u0, offsets))
    return edges, others


def _character_rank(distinct: int, full: int, omitted: int | None) -> int:
    """Rank of the characters but the ``omitted`` one (of all when it is
    None) on ``distinct`` of the ``full`` = 2^B parity masks."""
    return distinct - (omitted is not None and distinct == full)


def _killed(sums: dict[int, int], full: int, omitted: int | None) -> bool:
    """Whether the characters but the ``omitted`` one (all when it is
    None) kill a column with these coefficient sums per parity mask."""
    c = {d: x for d, x in sums.items() if x}
    return not c or (omitted is not None and len(c) == full and len(
        {x * character_sign(omitted, d) for d, x in c.items()}) == 1)


def _decide_degree(b: tuple[int, ...], n: int, fiber: list[tuple[int, ...]],
                   edges: list[tuple], others: list[tuple], omitted: int | None
                   ) -> DegreeRecord:
    """One degree of ``_check_degrees``, decided on class data, given its
    fiber as ``_raw_fiber`` gives it.

    The same ranks and product as the fiber route of ``_columns`` and
    ``_character_rows``, which stays as the tests' oracle:
    - the edge columns span |fiber| - C dimensions, for the C components
      of their graph on the fiber (``_components``), and the quotient by
      that span sums the coordinates of each component, so the other
      columns add the rank of their component sums;
    - a character row depends on a point only through its parity mask
      (``off_diagonal_parities``), so the rows are Walsh functions on the
      distinct masks D inside (Z/2)^B, B = pair_count(n - 1), and a
      column acts through its sums c per mask (an edge e_p - e_q is
      {m_p: 1, m_q: -1}).  The oracle reads each mask relative to the
      largest point's; that multiplies each row by one sign, which moves
      neither the rank nor the columns it kills.

    All 2^B Walsh functions form an invertible Hadamard matrix, so with
    every character (``omitted`` None) the rank is |D| and only c = 0 is
    killed.  Without the omitted row, a dependency among its columns is a
    c whose Walsh transform is a point mass at the omitted mask: c is a
    nonzero multiple of the omitted character, which has no zero entry.
    So the rank is |D| - 1 when D is all 2^B masks and |D| otherwise,
    and c is killed when it is zero or covers all 2^B masks with
    c[m] * character_sign(omitted, m) the same for every m.  A fiber
    whose masks vary over fewer than B bits never covers the group; on
    it, every character is a present one times a sign.

    The edge columns enter through their components: in each, one column
    {m0: 1, m: -1} for each distinct mask m other than m0, the mask of
    its first point.  The edges of a connected component span the same
    differences as these: along a path from the first point the edge
    columns add up to e_m0 - e_m, and each edge column is a difference of
    two such.  The columns killed form a subspace, and ``_killed`` tests
    membership in it exactly, so every edge column is killed exactly
    when every component column is.  An empty fiber, off the grading
    monoid, has every count 0: an empty, equal record."""
    index = {p: k for k, p in enumerate(fiber)}
    component, count = _components(fiber, index, edges)
    mask = [off_diagonal_parities(p, n) for p in fiber]
    # Distinct (component, mask) pairs in point order, so the first pair
    # of a component holds its m0.
    first: dict[int, int] = {}
    mask_sums = []
    for c, m in dict.fromkeys(zip(component, mask)):
        if first.setdefault(c, m) != m:
            mask_sums.append({first[c]: 1, m: -1})
    sums = []
    for u0, offsets in others:
        for p in fiber:
            if all(map(ge, p, u0)):
                vec, by_mask = [0] * count, {}
                for du, c in offsets:
                    k = index[tuple(map(add, p, du))]
                    vec[component[k]] += c
                    by_mask[mask[k]] = by_mask.get(mask[k], 0) + c
                sums.append(vec)
                mask_sums.append(by_mask)
    extra = rational_rank(IntMatrix.from_columns(sums)) if sums else 0
    di = len(fiber) - count + extra

    full = 1 << pair_count(n - 1)
    dt = len(fiber) - _character_rank(len(set(mask)), full, omitted)
    equal = di == dt and all(_killed(c, full, omitted) for c in mask_sums)
    return DegreeRecord(degree=b, fiber_size=len(fiber), ideal_dim=di,
                        target_dim=dt, equal=equal)


def _transpositions(n: int) -> list[list[int]]:
    """The adjacent transpositions (k k+1) of [n], k < n, as involutions
    of the dense exponent positions: x_ij and x_(tau i)(tau j) trade
    places."""
    pos = column_position(2, n)
    perms = []
    for k in range(1, n):
        tau = {k: k + 1, k + 1: k}
        perms.append([pos[pair(tau.get(i, i), tau.get(j, j))]
                      for i, j in variable_multisets(2, n)])
    return perms


def _permutes_records(n: int, edges: list[tuple], others: list[tuple]) -> bool:
    """Whether permuting [n] permutes the records of ``_check_degrees``
    with its degrees, an exact test over the adjacent transpositions,
    which generate S_n.  It holds when both of these do:

    - the edges are an invariant set of unordered monomial pairs;
    - the other generators are an invariant set of normal forms
      (``normal_form``), and every principal minor is an edge, so that
      they act through their class sums modulo J_n.
    The omitted character is then trivial or none: ``_check_degrees``
    untwists any other first."""
    # An edge's columns join the same points whichever end is u0.
    pairs = {frozenset((u0, tuple(map(add, u0, du)))) for u0, du in edges}
    if others and not {frozenset(g.terms)
                       for g in principal_minor_gens(n)} <= pairs:
        return False
    polys = [{tuple(map(add, u0, du)): c for du, c in offsets}
             for u0, offsets in others]

    def moved(perm) -> tuple[set, set]:
        """The edge pairs and the others' normal forms, permuted."""
        def move(u):
            return tuple(u[c] for c in perm)
        return ({frozenset(map(move, p)) for p in pairs},
                {frozenset(normal_form(SparsePoly(
                    n, {move(u): c for u, c in terms.items()})).items())
                 for terms in polys})

    fixed = moved(range(len(variable_multisets(2, n))))
    return all(moved(perm) == fixed for perm in _transpositions(n))


def _check_degrees(n: int, gens: list[SparsePoly], omitted: int | None,
                   bound: int) -> tuple[DegreeRecord, ...]:
    """Per degree up to the bound, whether the generators span the common
    kernel of every sign character but the ``omitted`` one (of every
    character when it is None): the characters annihilate the span,
    which has the kernel's dimension.  The records come in lex order
    within each even coordinate sum; every degree of even sum has a
    nonempty fiber.  A negative bound raises ValueError.

    A twisted character chi is decided through its untwisting, with the
    same records: each generator g becomes twist(g, tau), for the
    twisting tau of ``twisting_from_character``, which flips the
    negative pairs of chi, and the trivial character is omitted instead.
    - tau is a ring automorphism x_ij -> +-x_ij that keeps multidegrees
      and fixes every principal minor (its terms have even off-diagonal
      exponents), so it maps the ideal of tau(G) onto that of G.
    - tau scales the coefficient of x^u by chi(mask(u)), for the mask of
      ``off_diagonal_parities``, so a character chi' composed with tau is
      chi'*chi: tau maps the kernel of every character but the trivial
      one onto the kernel of every character but chi.
    So fiber sizes, dimensions and containments agree at every degree.
    The link generators of chi untwist to those of the trivial one.

    When ``_permutes_records`` holds, each degree with non-increasing
    coordinates is decided once, from its own fiber, and every degree in
    its S_n-orbit takes its record with the degree replaced.  This is
    sound: a permutation sigma of [n] acts by x_ij -> x_(sigma i)(sigma j),
    maps the fiber of b onto the fiber of sigma(b), and maps
    principal-minor moves onto principal-minor moves.
    - An invariant set of edges has its graph on fiber(b) mapped onto its
      graph on fiber(sigma b), so the component count is the same.
    - The mask of ``off_diagonal_parities`` reads only the pairs of
      [n-1], but together with b's parities it fixes every off-diagonal
      parity: b_i = 2*x_ii + sum over j != i of x_ij gives the parity of
      x_in.  So two points of a fiber share a mask exactly when they
      share every off-diagonal parity, which sigma respects: the count
      |D| of distinct masks, and whether all 2^B of them occur, are the
      same at b and sigma(b), and so is the target dimension.
    - The other generators act only through their class sums modulo
      J_n, which the edges contain: sigma(g) is another generator modulo
      J_n, so it lies in the ideal, and sigma maps the ideal's piece at b
      onto its piece at sigma(b).  With the trivial character omitted,
      or none, sigma permutes the other components (it fixes the
      untwisted one), so it maps the target at b onto the target at
      sigma(b) and keeps the containment.
    Otherwise every degree is decided from its own fiber.  The check
    stops first, through ``_check_level``, when the largest level passes
    the size cap."""
    if bound < 0:
        raise ValueError("a negative degree bound leaves no degree to check")
    # The largest level first, so that a run past the size cap stops at once.
    _check_level(n, bound - bound % 2)
    if omitted:
        flips = twisting_from_character(n, omitted)
        gens, omitted = [twist(g, flips) for g in gens], 0
    edges, others = _split_edges(_prepared(gens, n))
    orbits = _permutes_records(n, edges, others)
    decided: dict[tuple[int, ...], DegreeRecord] = {}
    records = []
    for b in degrees_up_to(n, bound):
        rep = tuple(sorted(b, reverse=True)) if orbits else b
        if rep not in decided:
            decided[rep] = _decide_degree(rep, n, _raw_fiber(2, n, rep),
                                          edges, others, omitted)
        records.append(decided[rep]._replace(degree=b))
    return tuple(records)


def verify_link(n: int, omitted: int, total_degree_bound: int
                ) -> VerificationReport:
    """Check that the link generators span the subintersection.

    For every degree with coordinate sum up to the (even) bound, the
    span of the link generators must equal the kernel cut out by the
    non-omitted characters.  The extra generators have coordinate sum
    n(n-2) + n mod 2 and add no column below it, so they are built only
    when the bound reaches that sum.  A negative bound raises ValueError.
    """
    first_extra = sum(minimal_saturated_fibers(n)[0])  # refuses n < 3
    _check_mask(omitted, pair_count(n - 1), "character")
    if total_degree_bound < first_extra:
        gens = principal_minor_gens(n)
    else:
        gens = link_generators(n, omitted)
    records = _check_degrees(n, gens, omitted, total_degree_bound)
    return VerificationReport(n=n, degree_bound=total_degree_bound, kind="link",
                              omitted=omitted, records=records)


def verify_decomposition(n: int, total_degree_bound: int) -> VerificationReport:
    """Check the prime decomposition degree by degree.

    The principal-minor ideal J_n is the intersection of the twisted
    Veronese components: in every degree up to the bound, the span of
    the principal 2-minors must equal the common kernel of all character
    functionals.  A negative bound raises ValueError.
    """
    records = _check_degrees(n, principal_minor_gens(n), None,
                             total_degree_bound)
    return VerificationReport(n=n, degree_bound=total_degree_bound,
                              kind="decomposition", omitted=None,
                              records=records)


def colon_membership(f: SparsePoly, n: int) -> bool:
    """Whether f multiplies every Veronese 2-minor into the minor ideal.

    This is membership in the colon ideal of the full minor ideal with
    respect to the principal-minor complete intersection, tested one
    generator at a time.
    """
    if f.n != n:
        raise ValueError("polynomial over a different variable set")
    return all(in_principal_minor_ideal(f * g) for g in veronese_minor_gens(n))


def group_algebra_subintersection(k: int) -> bool:
    """Brute-force subintersection check in a finite group algebra.

    In the rational group algebra of (Z/2)^k the minimal components are
    the kernels of the 2^k character evaluations.  For every omitted
    character chi*, the intersection of the other kernels must equal the
    principal ideal generated by prod_i (1 + chi*(t_i) t_i); both sides
    are computed honestly and compared as subspaces of the algebra.

    The 2^k x 2^k character table is built once and eliminated once.
    When it has full rank its rows are independent, so any 2^k - 1 of
    them have rank 2^k - 1 and the kernel of the characters but chi* is
    a line at every omission.  Each omission builds q one two-term
    factor at a time, reads the product of the whole table with q, and
    checks that every character but chi* kills q and that the
    translates of q have rank 1: the ideal is the line through q, and it
    lies in the kernel line.  A pass here meets every condition of the
    per-omission rank test it replaces.  k is limited to 1..8: each step
    doubles both the omission count and the matrix width, and k = 8
    takes about 3 s in process on a 2-core Xeon (k = 7 about 0.4 s,
    k = 6 about 0.05 s).
    """
    if not 1 <= k <= 8:
        raise ValueError("need 1 <= k <= 8")
    # Group elements are k-bit ints, coordinate i in bit k-1-i: the
    # product is XOR and the order is that of the coordinate tuples.
    size = 1 << k
    signs = [[character_sign(s, g) for g in range(size)] for s in range(size)]
    table = IntMatrix(signs, cols=size)
    if rational_rank(table) != size:
        return False
    for s_star in range(size):
        # The twisted zonotope element prod_i (1 + chi*(t_i) t_i), times
        # one factor 1 + c t_e at a time.
        q = [1] + [0] * (size - 1)
        for i in range(k):
            e = 1 << i
            c = signs[s_star][e]
            q = [q[g] + c * q[g ^ e] for g in range(size)]

        translates = IntMatrix([[q[g ^ h] for h in range(size)]
                                for g in range(size)], cols=size)

        # With both sides lines, q (the identity translate) spans the
        # ideal, which lies in the kernel when the characters kill q.
        values = table.mul_vector(q)
        if (any(values[:s_star] + values[s_star + 1:])
                or rational_rank(translates) != 1):
            return False
    return True


def higher_torsion(d: int, n: int) -> list[int]:
    """Invariant factors of the generator lattice inside the full kernel.

    The generators are the diagonal-comparison binomials of the weight-d
    grading; the ambient lattice is the integer kernel K of the grading
    matrix.  Factors equal to one are dropped.

    The kernel of an integer matrix is saturated, so Z^N/K is free and
    Z^N/L splits as (K/L) + Z^N/K for the generator lattice L inside K.
    So the torsion of K/L is the torsion of Z^N/L: the nonzero Smith
    diagonal of the generator matrix, read with no coordinates in a
    basis of K and no transform.  Two exact checks keep this honest: the
    grading kills every generator, so L lies in K, and the diagonal has
    as many nonzero entries as K has rank, so K/L is finite.  Z^N/K is
    the lattice of the grading's columns, so K's rank is N minus the
    size of a basis of that lattice; no basis of K is built.  The
    grading meets one generator column at a time, with no product
    matrix.
    """
    sub = generator_lattice(higher_veronese_gens(d, n))
    grading = veronese_matrix(d, n)
    if any(any(grading.mul_vector(v)) for v in zip(*sub.data)):
        raise ValueError("columns of sub do not lie in the span of ambient")
    factors = _smith_diagonal(sub)
    if len(factors) < grading.cols - column_lattice_basis(grading).cols:
        raise ValueError("sublattice has lower rank than the ambient lattice")
    return [f for f in factors if f > 1]


__all__ = [
    "DegreeRecord", "VerificationReport", "colon_membership",
    "group_algebra_subintersection", "higher_torsion", "ideal_degree_piece",
    "subintersection_degree_piece", "verify_decomposition", "verify_link",
]
