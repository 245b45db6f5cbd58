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
``_decide_degree`` finds those ranks and that product on class data;
the subspaces over the fiber points (``ideal_degree_piece``,
``subintersection_degree_piece``) are the tests' oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, reduce
from itertools import groupby
from operator import add, ge, or_, sub

from .errors import IndexOutOfRange, SizeMismatch
from .exactlin import (IntMatrix, clear_denominators, invariant_factors,
                       kernel_lattice, rational_nullspace, rational_rank)
from .fibers import (_check_level, _fibers_of_sum, degrees_up_to,
                     enumerate_fiber, off_diagonal_parities)
from .ideals import (generator_lattice, higher_veronese_gens,
                     principal_minor_gens, veronese_minor_gens)
from .link import link_generators
from .poly import (SignCharacter, SparsePoly, all_characters,
                   in_principal_minor_ideal, multidegree)
from .veronese import Monomial, pair_count, veronese_matrix


@dataclass(frozen=True)
class DegreePiece:
    """A subspace of the coefficient space of one fiber.

    ``fiber`` fixes the coordinate order (lexicographic on exponent
    tuples); the integer columns of ``vectors`` span the subspace.
    """

    degree: tuple[int, ...]
    fiber: tuple[Monomial, ...]
    vectors: IntMatrix

    def dimension(self) -> int:
        return rational_rank(self.vectors)


def _prepared(gens: list[SparsePoly], n: int) -> list[tuple]:
    """Each generator as a base term u0 and its terms as (exps - u0,
    coefficient) pairs, scaled by ``clear_denominators``.
    ``multidegree`` rejects an inhomogeneous generator."""
    if any(g.n != n for g in gens):
        raise SizeMismatch("generator over a different variable set")
    prepared = []
    for g in gens:
        multidegree(g)
        u0 = next(iter(g.terms)).exps
        prepared.append((u0, [(tuple(map(sub, m.exps, u0)), c) for m, c in
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


def ideal_degree_piece(gens: list[SparsePoly], n: int, b) -> DegreePiece:
    """Degree-b piece of the ideal generated by homogeneous polynomials.

    Spanned by the products m*g over generators g and monomials m of the
    complementary degree; expressed in the fiber coordinates of b.
    """
    b = tuple(b)
    fiber = enumerate_fiber(n, b)
    vectors = _columns(_prepared(gens, n), [m.exps for m in fiber])
    return DegreePiece(degree=b, fiber=tuple(fiber), vectors=vectors)


def _character_rows(n: int, fiber: list[tuple[int, ...]],
                    masks: list[int]) -> IntMatrix:
    """The +-1 values of characters, given by their ``mask``, on a fiber
    of exponent tuples, relative to its canonical (largest) point: -1
    where an odd number of the parity bits that differ from that point's
    carry a minus sign.  Masks that agree on the bits that vary over the
    fiber give one row, which keeps the row space.  An empty fiber, off
    the grading monoid, gives the 0x0 matrix."""
    if not fiber:
        return IntMatrix([], cols=0)
    base = off_diagonal_parities(max(fiber), n)
    diffs = [off_diagonal_parities(exps, n) ^ base for exps in fiber]
    varying = reduce(or_, diffs)
    rows = [[-1 if (d & minus).bit_count() & 1 else 1 for d in diffs]
            for minus in sorted({m & varying for m in masks})]
    return IntMatrix(rows, cols=len(fiber))


def subintersection_degree_piece(n: int, omitted: SignCharacter, b
                                 ) -> DegreePiece:
    """Degree-b piece of the intersection of all components but one.

    The piece is the common kernel of the character-weighted coefficient
    sums over every sign character except the omitted one; the weights
    are taken relative to the dictionary-least fiber point.
    """
    if omitted.n != n:
        raise SizeMismatch("character over a different variable set")
    b = tuple(b)
    fiber = enumerate_fiber(n, b)
    masks = [eps.mask for eps in all_characters(n) if eps != omitted]
    kernel = rational_nullspace(_character_rows(n, [m.exps for m in fiber],
                                                masks))
    vectors = IntMatrix.from_columns(
        [clear_denominators(c) for c in kernel.columns()], rows=len(fiber))
    return DegreePiece(degree=b, fiber=tuple(fiber), vectors=vectors)


@dataclass(frozen=True)
class DegreeRecord:
    degree: tuple[int, ...]
    fiber_size: int
    ideal_dim: int
    target_dim: int
    equal: bool


@dataclass(frozen=True)
class VerificationReport:
    """Per-degree comparison records plus the overall verdict."""

    n: int
    degree_bound: int
    kind: str
    omitted: SignCharacter | None
    records: tuple[DegreeRecord, ...]

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
            "omitted": self.omitted.spec() if self.omitted is not None else None,
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
    vector c*(e_p - e_(p+du)); it is kept as du and the (position,
    exponent) support of u0.  Every principal minor is one."""
    edges, others = [], []
    for u0, offsets in prepared:
        if len(offsets) == 2 and offsets[0][1] == -offsets[1][1]:
            edges.append(([(k, v) for k, v in enumerate(u0) if v],
                          offsets[1][0]))
        else:
            others.append((u0, offsets))
    return edges, others


def _walsh_rank(diffs: set[int], restricted: set[int], varying: int) -> int:
    """Rank of the +-1 rows (-1)^popcount(m & d), m in ``restricted``,
    on the columns d in ``diffs``; both are sets of masks inside the
    ``varying`` bits.

    Over all 2^v masks of v bits these rows form a Hadamard matrix, so
    any set of its columns is independent.  Without one row m*, the only
    dependency among all columns is the row of m* itself, which has no
    zero entry, so it needs every column.  Other cases are eliminated."""
    full = 1 << varying.bit_count()
    if len(restricted) == full:
        return len(diffs)
    if len(restricted) == full - 1:
        return len(diffs) - (len(diffs) == full)
    cols = sorted(diffs)
    return rational_rank(IntMatrix(
        [[-1 if (d & m).bit_count() & 1 else 1 for d in cols]
         for m in sorted(restricted)], cols=len(cols)))


def _restrictor(masks: Sequence[int]):
    """The set {m & varying} over the character masks, as a function of
    ``varying`` that computes it once per distinct value."""
    @cache
    def restrict(varying: int) -> frozenset[int]:
        return frozenset(m & varying for m in masks)
    return restrict


def _decide_degree(b: tuple[int, ...], n: int, fiber: list[tuple[int, ...]],
                   edges: list[tuple], others: list[tuple], restrict
                   ) -> DegreeRecord:
    """One degree of ``_check_degrees``, decided on class data, given its
    fiber as ``_raw_fiber`` gives it and ``_restrictor`` of the masks.

    The same ranks and product as the fiber route of ``_columns`` and
    ``_character_rows``, which stays as the tests' oracle:
    - the edge columns span |fiber| - C dimensions, for the C components
      of their graph on the fiber, and the quotient by that span sums
      the coordinates of each component, so the other columns add the
      rank of their component sums;
    - a character row depends on a point only through its parity diff,
      so its rank is ``_walsh_rank`` on the distinct diffs;
    - the characters kill an edge when they agree on its two ends, and
      another column when they kill its sums per parity diff."""
    if not fiber:
        return DegreeRecord(degree=b, fiber_size=0, ideal_dim=0,
                            target_dim=0, equal=True)
    index = {p: k for k, p in enumerate(fiber)}
    parent = list(range(len(fiber)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Relative to the largest point, as in ``_character_rows``.
    base = off_diagonal_parities(fiber[-1], n)
    diff = [off_diagonal_parities(p, n) ^ base for p in fiber]
    edge_diffs = set()
    for support, du in edges:
        for k, p in enumerate(fiber):
            if all(p[i] >= v for i, v in support):
                j = index[tuple(map(add, p, du))]
                edge_diffs.add(diff[k] ^ diff[j])
                parent[find(j)] = find(k)
    roots = {}
    component = [roots.setdefault(find(k), len(roots)) for k in range(len(fiber))]
    sums, class_sums = [], []
    for u0, offsets in others:
        for p in fiber:
            if all(map(ge, p, u0)):
                vec, by_diff = [0] * len(roots), {}
                for du, c in offsets:
                    k = index[tuple(map(add, p, du))]
                    vec[component[k]] += c
                    by_diff[diff[k]] = by_diff.get(diff[k], 0) + c
                sums.append(vec)
                class_sums.append(by_diff)
    extra = rational_rank(IntMatrix.from_columns(sums)) if sums else 0
    di = len(fiber) - len(roots) + extra

    varying = reduce(or_, diff)
    restricted = restrict(varying)
    dt = len(fiber) - _walsh_rank(set(diff), restricted, varying)

    equal = (di == dt
             and not any((m & e).bit_count() & 1
                         for e in edge_diffs for m in restricted)
             and not any(sum(-c if (d & m).bit_count() & 1 else c
                             for d, c in by_diff.items())
                         for by_diff in class_sums for m in restricted))
    return DegreeRecord(degree=b, fiber_size=len(fiber), ideal_dim=di,
                        target_dim=dt, equal=equal)


def _check_degrees(n: int, gens: list[SparsePoly], masks: Sequence[int],
                   bound: int) -> tuple[DegreeRecord, ...]:
    """Per degree up to the bound, whether the generators span the common
    kernel of the characters, given by their ``mask``: the characters
    annihilate the span, which has the kernel's dimension.  The fibers
    come one coordinate sum at a time from ``_fibers_of_sum``.  A
    negative bound raises ValueError."""
    if bound < 0:
        raise ValueError("a negative degree bound leaves no degree to check")
    # The largest level first, so that a run past the size cap stops at once.
    _check_level(n, bound - bound % 2)
    edges, others = _split_edges(_prepared(gens, n))
    restrict = _restrictor(masks)
    records = []
    for s, level in groupby(degrees_up_to(n, bound), key=sum):
        fibers = _fibers_of_sum(n, s)
        records += [_decide_degree(b, n, fibers[b], edges, others,
                                   restrict) for b in level]
    return tuple(records)


def verify_link(n: int, omitted: SignCharacter, total_degree_bound: int
                ) -> VerificationReport:
    """Check that the link generators span the subintersection.

    For every degree with coordinate sum up to the (even) bound, the
    span of the link generators must equal the kernel cut out by the
    non-omitted characters.  A negative bound raises ValueError.
    """
    gens = link_generators(n, omitted).all_gens()
    masks = [m for m in range(1 << pair_count(n - 1)) if m != omitted.mask]
    records = _check_degrees(n, gens, masks, total_degree_bound)
    return VerificationReport(n=n, degree_bound=total_degree_bound, kind="link",
                              omitted=omitted, records=records)


def verify_decomposition(n: int, total_degree_bound: int) -> VerificationReport:
    """Check the prime decomposition degree by degree.

    The principal-minor ideal J_n is the intersection of the twisted
    Veronese components: in every degree up to the bound, the span of
    the principal 2-minors must equal the common kernel of all character
    functionals.  A negative bound raises ValueError.
    """
    records = _check_degrees(n, principal_minor_gens(n),
                             range(1 << pair_count(n - 1)), total_degree_bound)
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
        raise IndexOutOfRange("polynomial over a different variable set")
    return all(in_principal_minor_ideal(f * g) for g in veronese_minor_gens(n))


def group_algebra_subintersection(k: int) -> bool:
    """Brute-force subintersection check in a finite group algebra.

    In the rational group algebra of (Z/2)^k the minimal components are
    the kernels of the 2^k character evaluations.  For every omitted
    character chi*, the intersection of the other kernels must equal the
    principal ideal generated by prod_i (1 + chi*(t_i) t_i); both sides
    are computed honestly and compared as subspaces of the algebra.
    k is limited to 1..7: each step doubles both the omission count and
    the matrix width, and k = 7 takes about 5 s in process on a 2-core
    Xeon (k = 6 about 0.4 s).
    """
    if not 1 <= k <= 7:
        raise IndexOutOfRange("need 1 <= k <= 7")
    # Group elements are k-bit ints, coordinate i in bit k-1-i: the
    # product is XOR and the order is that of the coordinate tuples.
    size = 1 << k

    def char(s: int, g: int) -> int:
        return -1 if (s & g).bit_count() & 1 else 1

    def convolve(a: list[int], b: list[int]) -> list[int]:
        out = [0] * size
        for g, ca in enumerate(a):
            if not ca:
                continue
            for h, cb in enumerate(b):
                if cb:
                    out[g ^ h] += ca * cb
        return out

    for s_star in range(size):
        # The twisted zonotope element prod_i (1 + chi*(t_i) t_i).
        q = [1] + [0] * (size - 1)
        for i in range(k):
            e = 1 << i
            factor = [0] * size
            factor[0], factor[e] = 1, char(s_star, e)
            q = convolve(q, factor)

        chars = IntMatrix([[char(s, g) for g in range(size)]
                           for s in range(size) if s != s_star], cols=size)
        translates = IntMatrix([[q[g ^ h] for h in range(size)]
                                for g in range(size)], cols=size)

        # With both sides lines, q (the identity translate) spans the
        # ideal, which lies in the kernel when the characters kill q.
        if (size - rational_rank(chars) != 1 or any(chars.mul_vector(q))
                or rational_rank(translates) != 1):
            return False
    return True


def higher_torsion(d: int, n: int) -> list[int]:
    """Invariant factors of the generator lattice inside the full kernel.

    The generators are the diagonal-comparison binomials of the weight-d
    grading; the ambient lattice is the integer kernel of the grading
    matrix.  Factors equal to one are dropped.
    """
    sub = generator_lattice(higher_veronese_gens(d, n))
    ambient = kernel_lattice(veronese_matrix(d, n))
    return invariant_factors(sub, ambient)


__all__ = [
    "DegreePiece", "DegreeRecord", "VerificationReport", "colon_membership",
    "group_algebra_subintersection", "higher_torsion", "ideal_degree_piece",
    "subintersection_degree_piece", "verify_decomposition", "verify_link",
]
