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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, ge, or_, sub

from .errors import IndexOutOfRange, SizeMismatch
from .exactlin import (IntMatrix, clear_denominators, invariant_factors,
                       kernel_lattice, rational_nullspace, rational_rank)
from .fibers import (_raw_fiber, degrees_up_to, enumerate_fiber,
                     off_diagonal_parities)
from .ideals import (generator_lattice, higher_veronese_gens,
                     principal_minor_gens, veronese_minor_gens)
from .link import link_generators
from .poly import (SignCharacter, SparsePoly, all_characters,
                   in_principal_minor_ideal, multidegree)
from .veronese import Monomial, veronese_matrix


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
    fiber give one row, which keeps the row space."""
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


def _check_degrees(n: int, gens: list[SparsePoly],
                   characters: list[SignCharacter], bound: int
                   ) -> tuple[DegreeRecord, ...]:
    """Per degree up to the bound, whether the generators span the common
    kernel of the characters: the characters annihilate the span, which
    has the kernel's dimension.  A negative bound raises ValueError."""
    if bound < 0:
        raise ValueError("a negative degree bound leaves no degree to check")
    prepared = _prepared(gens, n)
    masks = [eps.mask for eps in characters]
    records = []
    for b in degrees_up_to(n, bound):
        fiber = _raw_fiber(2, n, b)
        cols = _columns(prepared, fiber)
        chars = _character_rows(n, fiber, masks)
        di = rational_rank(cols)
        dt = len(fiber) - rational_rank(chars)
        equal = di == dt and chars.mul(cols).is_zero()
        records.append(DegreeRecord(degree=b, fiber_size=len(fiber),
                                    ideal_dim=di, target_dim=dt, equal=equal))
    return tuple(records)


def verify_link(n: int, omitted: SignCharacter, total_degree_bound: int
                ) -> VerificationReport:
    """Check that the link generators span the subintersection.

    For every degree with coordinate sum up to the (even) bound, the
    span of the link generators must equal the kernel cut out by the
    non-omitted characters.  A negative bound raises ValueError.
    """
    gens = link_generators(n, omitted).all_gens()
    characters = [eps for eps in all_characters(n) if eps != omitted]
    records = _check_degrees(n, gens, characters, total_degree_bound)
    return VerificationReport(n=n, degree_bound=total_degree_bound, kind="link",
                              omitted=omitted, records=records)


def verify_decomposition(n: int, total_degree_bound: int) -> VerificationReport:
    """Check the prime decomposition degree by degree.

    The principal-minor ideal J_n is the intersection of the twisted
    Veronese components: in every degree up to the bound, the span of
    the principal 2-minors must equal the common kernel of all character
    functionals.  A negative bound raises ValueError.
    """
    records = _check_degrees(n, principal_minor_gens(n), all_characters(n),
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
    the matrix width, and k = 7 already takes seconds.
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
    ambient = kernel_lattice(veronese_matrix(d, n).matrix)
    return invariant_factors(sub, ambient)


__all__ = [
    "DegreePiece", "DegreeRecord", "VerificationReport", "colon_membership",
    "group_algebra_subintersection", "higher_torsion", "ideal_degree_piece",
    "subintersection_degree_piece", "verify_decomposition", "verify_link",
]
