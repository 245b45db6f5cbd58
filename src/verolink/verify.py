"""Degreewise exact-linear-algebra verification of the decompositions.

Every check here reduces an ideal-theoretic statement to equalities of
finite-dimensional rational subspaces, one multidegree at a time: the
graded piece of a generated ideal is spanned by monomial multiples of
the generators, and the graded piece of an intersection of twisted
Veronese components is the common kernel of character-weighted
coefficient sums.  Generators are scaled to integer coefficients and
character values are +-1, so every matrix here is an integer one.  A
span lies in a common kernel when one exact integer product vanishes,
and equality then follows from a dimension count, each dimension being
one rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .errors import IndexOutOfRange, SizeMismatch
from .exactlin import (IntMatrix, invariant_factors, kernel_lattice,
                       rational_nullspace, rational_rank)
from .fibers import (canonical_representative, degrees_up_to, enumerate_fiber,
                     off_diagonal_parities)
from .ideals import generator_lattice, higher_veronese_gens, veronese_minor_gens
from .link import link_generators
from .poly import (SignCharacter, SparsePoly, all_characters,
                   in_principal_minor_ideal, multidegree)
from .veronese import Monomial, veronese_matrix


def _cleared(values) -> list[int]:
    """Exact rationals times the lcm of their denominators; spans are kept."""
    scale = lcm(*(x.denominator for x in values))
    return [int(x * scale) for x in values]


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


def ideal_degree_piece(gens: list[SparsePoly], n: int, b,
                       cap: int | None = None) -> DegreePiece:
    """Degree-b piece of the ideal generated by homogeneous polynomials.

    Spanned by the products m*g over generators g and monomials m of the
    complementary degree; expressed in the fiber coordinates of b.
    """
    b = tuple(b)
    V = veronese_matrix(2, n)
    fiber = enumerate_fiber(V, b, cap)
    index = {m.exps: k for k, m in enumerate(fiber)}
    columns = []
    for g in gens:
        bg = multidegree(g)
        diff = tuple(x - y for x, y in zip(b, bg))
        if any(x < 0 for x in diff):
            continue
        terms = list(zip(g.terms, _cleared(list(g.terms.values()))))
        for m in enumerate_fiber(V, diff, cap):
            vec = [0] * len(fiber)
            for u, c in terms:
                vec[index[(m * u).exps]] += c
            columns.append(vec)
    return DegreePiece(degree=b, fiber=tuple(fiber),
                       vectors=IntMatrix.from_columns(columns, rows=len(fiber)))


def _character_rows(fiber: list[Monomial],
                    characters: list[SignCharacter]) -> IntMatrix:
    """The +-1 values of each character on a fiber, relative to its
    canonical point: -1 where an odd number of the parity bits that
    differ from that point's carry a minus sign."""
    u0 = canonical_representative(fiber)

    def mask(u: Monomial) -> int:
        bits = off_diagonal_parities(u.exps, u0.n)
        return sum(bit << k for k, bit in enumerate(bits))

    base = mask(u0)
    diffs = [mask(u) ^ base for u in fiber]
    rows = []
    for eps in characters:
        minus = sum(1 << k for k, s in enumerate(eps.signs) if s < 0)
        rows.append([-1 if (d & minus).bit_count() & 1 else 1 for d in diffs])
    return IntMatrix(rows, cols=len(fiber))


def subintersection_degree_piece(n: int, omitted: SignCharacter, b,
                                 cap: int | None = None) -> DegreePiece:
    """Degree-b piece of the intersection of all components but one.

    The piece is the common kernel of the character-weighted coefficient
    sums over every sign character except the omitted one; the weights
    are taken relative to the dictionary-least fiber point.
    """
    if omitted.n != n:
        raise SizeMismatch("character over a different variable set")
    b = tuple(b)
    fiber = enumerate_fiber(veronese_matrix(2, n), b, cap)
    characters = [eps for eps in all_characters(n) if eps != omitted]
    kernel = rational_nullspace(_character_rows(fiber, characters))
    vectors = IntMatrix.from_columns([_cleared(c) for c in kernel.columns()],
                                     rows=len(fiber))
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


def verify_link(n: int, omitted: SignCharacter, total_degree_bound: int,
                cap: int | None = None) -> VerificationReport:
    """Check that the link generators span the subintersection.

    For every degree with coordinate sum up to the (even) bound, the
    span of the link generators must equal the kernel cut out by the
    non-omitted characters: the characters annihilate the span, which
    has the dimension of the kernel.  A negative bound raises ValueError.
    """
    if total_degree_bound < 0:
        raise ValueError("a negative degree bound leaves no degree to check")
    gens = link_generators(n, omitted).all_gens()
    characters = [eps for eps in all_characters(n) if eps != omitted]
    records = []
    for b in degrees_up_to(n, total_degree_bound):
        ideal = ideal_degree_piece(gens, n, b, cap)
        chars = _character_rows(list(ideal.fiber), characters)
        di = ideal.dimension()
        dt = len(ideal.fiber) - rational_rank(chars)
        equal = di == dt and chars.mul(ideal.vectors).is_zero()
        records.append(DegreeRecord(degree=tuple(b), fiber_size=len(ideal.fiber),
                                    ideal_dim=di, target_dim=dt, equal=equal))
    return VerificationReport(n=n, degree_bound=total_degree_bound, kind="link",
                              omitted=omitted, records=tuple(records))


def verify_decomposition(n: int, total_degree_bound: int,
                         cap: int | None = None) -> VerificationReport:
    """Check the prime decomposition degree by degree.

    The common kernel of all character functionals must equal the
    degree piece of the principal-minor ideal, computed independently as
    the kernel of the class-sum map.  The kernels agree when their row
    spaces do, as ranks decide.  A negative bound raises ValueError.
    """
    if total_degree_bound < 0:
        raise ValueError("a negative degree bound leaves no degree to check")
    V = veronese_matrix(2, n)
    characters = all_characters(n)
    records = []
    for b in degrees_up_to(n, total_degree_bound):
        fiber = enumerate_fiber(V, b, cap)
        chars = _character_rows(fiber, characters)
        class_rows: dict[tuple[int, ...], list[int]] = {}
        for k, u in enumerate(fiber):
            key = off_diagonal_parities(u.exps, n)
            class_rows.setdefault(key, [0] * len(fiber))[k] = 1
        rank_chars = rational_rank(chars)
        rank_both = rational_rank(IntMatrix(chars.data + list(class_rows.values()),
                                            cols=len(fiber)))
        # Class rows have disjoint nonempty supports: their rank is their count.
        di = len(fiber) - len(class_rows)
        dt = len(fiber) - rank_chars
        equal = di == dt and rank_both == rank_chars
        records.append(DegreeRecord(degree=tuple(b), fiber_size=len(fiber),
                                    ideal_dim=di, target_dim=dt, equal=equal))
    return VerificationReport(n=n, degree_bound=total_degree_bound,
                              kind="decomposition", omitted=None,
                              records=tuple(records))


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
    """
    if not 1 <= k <= 8:
        raise IndexOutOfRange("need 1 <= k <= 8")
    group = list(product((0, 1), repeat=k))
    index = {g: pos for pos, g in enumerate(group)}
    size = len(group)

    def char(s, g) -> int:
        return -1 if sum(a * b for a, b in zip(s, g)) % 2 else 1

    def convolve(a: list[int], b: list[int]) -> list[int]:
        out = [0] * size
        for g, ca in zip(group, a):
            if not ca:
                continue
            for h, cb in zip(group, b):
                if cb:
                    gh = tuple((x + y) % 2 for x, y in zip(g, h))
                    out[index[gh]] += ca * cb
        return out

    units = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        units.append(e)

    for s_star in group:
        # The twisted zonotope element prod_i (1 + chi*(t_i) t_i).
        q = [0] * size
        q[index[(0,) * k]] = 1
        for e in units:
            factor = [0] * size
            factor[index[(0,) * k]] = 1
            factor[index[e]] = char(s_star, e)
            q = convolve(q, factor)

        chars = IntMatrix([[char(s, g) for g in group]
                           for s in group if s != s_star], cols=size)

        translates = []
        for g in group:
            shifted = [0] * size
            for h, c in zip(group, q):
                if c:
                    gh = tuple((x + y) % 2 for x, y in zip(g, h))
                    shifted[index[gh]] = c
            translates.append(shifted)

        # With both sides lines, q (the identity translate) spans the
        # ideal, which lies in the kernel when the characters kill q.
        if (size - rational_rank(chars) != 1 or any(chars.mul_vector(q))
                or rational_rank(IntMatrix(translates, cols=size)) != 1):
            return False
    return True


def higher_torsion(d: int, n: int) -> list[int]:
    """Invariant factors of the generator lattice inside the full kernel.

    The generators are the diagonal-comparison binomials of the weight-d
    grading; the ambient lattice is the integer kernel of the grading
    matrix.  Factors equal to one are dropped.
    """
    gens = higher_veronese_gens(d, n)
    sub = generator_lattice(gens)
    ambient = kernel_lattice(veronese_matrix(d, n).matrix)
    return invariant_factors(sub, ambient)


__all__ = [
    "DegreePiece", "DegreeRecord", "VerificationReport", "colon_membership",
    "group_algebra_subintersection", "higher_torsion", "ideal_degree_piece",
    "subintersection_degree_piece", "verify_decomposition", "verify_link",
]
