"""Sparse multivariate polynomials over the rationals, with twistings.

Coefficients are exact ``fractions.Fraction`` values and the ground
field is fixed to the rationals throughout.  Terms are rendered in a
fixed order (descending dense exponent tuples, which is ascending
dictionary order on variable strings) so printed output is bit-stable
and re-parseable under the grammar::

    poly  := ["-"] term (("+" | "-") term)*
    term  := [integer ["/" integer]] ["*"] var*
    var   := "x" i j          (two juxtaposed digits, 1 <= i <= j <= 9)

Exponents are written as repeated variables, e.g. ``x12*x12``;
whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import (DegreeMismatch, Inhomogeneous, SizeMismatch,
                     ZeroPolynomial)
from .fibers import FiberClassKey, class_key, off_diagonal_parities
from .veronese import Monomial, pair, pair_count, variable_multisets


class SparsePoly:
    """Finite map from weight-2 monomials to nonzero rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if m.n != n:
                raise SizeMismatch("term over a different variable set")
            c = Fraction(c)
            if c:
                clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "SparsePoly":
        return cls(n, {Monomial.one(n): Fraction(c)})

    @classmethod
    def monomial(cls, m: Monomial, c=1) -> "SparsePoly":
        return cls(m.n, {m: Fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int, j: int) -> "SparsePoly":
        return cls.monomial(Monomial.variable(n, i, j))

    # -- ring structure ----------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.n != other.n:
            raise SizeMismatch("polynomials over different variable sets")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return SparsePoly(self.n, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return SparsePoly(self.n, out)

    def scale(self, c) -> "SparsePoly":
        c = Fraction(c)
        return SparsePoly(self.n, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c) -> "SparsePoly":
        return self.scale(c)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.terms == other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in output order: descending dense exponent tuples."""
        return sorted(self.terms.items(), key=lambda t: t[0].exps, reverse=True)

    def __repr__(self):
        return render_poly(self)


def multidegree(p: SparsePoly) -> tuple[int, ...]:
    """The common multidegree of all terms of a homogeneous polynomial."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no multidegree")
    degs = {m.degree() for m in p.terms}
    if len(degs) > 1:
        raise Inhomogeneous(f"terms of distinct multidegrees: {sorted(degs)}")
    return next(iter(degs))


def degree_split(p: SparsePoly) -> dict[tuple[int, ...], SparsePoly]:
    """Decompose into homogeneous components, keyed by multidegree."""
    parts: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
    for m, c in p.terms.items():
        parts.setdefault(m.degree(), {})[m] = c
    return {b: SparsePoly(p.n, t) for b, t in parts.items()}


# -- twisting automorphisms and sign characters -----------------------

class Twisting:
    """Sign automorphism: each variable maps to plus or minus itself."""

    __slots__ = ("n", "signs")

    def __init__(self, n: int, signs=None):
        self.n = n
        self.signs: dict[tuple[int, int], int] = {}
        for key, s in (signs or {}).items():
            if s not in (1, -1):
                raise ValueError("signs must be +1 or -1")
            self.signs[pair(*key)] = s

    def sign(self, i: int, j: int) -> int:
        return self.signs.get(pair(i, j), 1)

    @classmethod
    def identity(cls, n: int) -> "Twisting":
        return cls(n)

    def __repr__(self):
        flipped = sorted(k for k, s in self.signs.items() if s == -1)
        body = ",".join(f"{i}{j}:-" for i, j in flipped) or "identity"
        return f"Twisting(n={self.n}, {body})"


def twist(p: SparsePoly, t: Twisting) -> SparsePoly:
    """Apply a sign automorphism; an involution when applied twice."""
    if p.n != t.n:
        raise SizeMismatch("twisting over a different variable set")
    cols = variable_multisets(2, p.n)
    out = {}
    for m, c in p.terms.items():
        s = 1
        for k, e in enumerate(m.exps):
            if e & 1 and t.sign(*cols[k]) < 0:
                s = -s
        out[m] = c if s > 0 else -c
    return SparsePoly(p.n, out)


@dataclass(frozen=True)
class SignCharacter:
    """A plus/minus assignment on the off-diagonal pairs of [n-1].

    These parametrize the 2**binom(n-1, 2) components of the prime
    decomposition of the principal-minor ideal; ``signs`` is indexed by
    the pairs {i < j <= n-1} in lexicographic order.  ``mask`` has bit k
    set where ``signs[k]`` is -1, so eps takes the value -1 on a parity
    mask (``off_diagonal_parities``) exactly when ``mask & parities``
    has an odd number of bits.
    """

    n: int
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != pair_count(self.n - 1):
            raise SizeMismatch("need one sign per off-diagonal pair of [n-1]")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @cached_property
    def mask(self) -> int:
        mask = 0
        for s in reversed(self.signs):
            mask = mask << 1 | (s < 0)
        return mask

    @classmethod
    def trivial(cls, n: int) -> "SignCharacter":
        return cls(n, (1,) * pair_count(n - 1))

    @classmethod
    def from_pairs(cls, n: int, assignments: dict[tuple[int, int], int]
                   ) -> "SignCharacter":
        order = character_pairs(n)
        index = {p: k for k, p in enumerate(order)}
        signs = [1] * len(order)
        for key, s in assignments.items():
            p = pair(*key)
            if p not in index:
                raise SizeMismatch(f"pair {p} is not an off-diagonal pair of [n-1]")
            signs[index[p]] = s
        return cls(n, tuple(signs))

    def eps(self, i: int, j: int) -> int:
        order = character_pairs(self.n)
        return self.signs[order.index(pair(i, j))]

    def is_trivial(self) -> bool:
        return all(s == 1 for s in self.signs)

    def spec(self) -> str:
        """Compact text form, e.g. ``12:-,13:+,23:+``."""
        parts = [f"{i}{j}:{'+' if s > 0 else '-'}"
                 for (i, j), s in zip(character_pairs(self.n), self.signs)]
        return ",".join(parts) if parts else "trivial"


def character_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs {i < j <= n-1}, lexicographic; the character coordinates."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n))


def all_characters(n: int) -> list[SignCharacter]:
    """All sign characters in a fixed order; the trivial one comes first."""
    k = pair_count(n - 1)
    return [SignCharacter(n, signs) for signs in product((1, -1), repeat=k)]


def character_of_twisting(t: Twisting) -> SignCharacter:
    """The sign character a twisting induces on the kernel lattice.

    Coordinate (i, j) is the relative sign the twisting puts on the
    binomial x_ij*x_nn - x_in*x_jn, i.e. the product of the four
    variable signs on its support.
    """
    n = t.n
    signs = []
    for i, j in character_pairs(n):
        s = t.sign(i, j) * t.sign(i, n) * t.sign(j, n) * t.sign(n, n)
        signs.append(s)
    return SignCharacter(n, tuple(signs))


def twisting_from_character(eps: SignCharacter) -> Twisting:
    """Some twisting inducing eps: flip exactly the negative (i, j) pairs.

    Any preimage works; this one leaves every variable meeting the last
    index, and every diagonal variable, fixed.
    """
    flips = {p: s for p, s in zip(character_pairs(eps.n), eps.signs) if s < 0}
    return Twisting(eps.n, flips)


def character_value(eps: SignCharacter, u: Monomial, u0: Monomial) -> int:
    """Value of eps on the difference u - u0 (two points of one fiber).

    Only the parities of the off-diagonal off-last-column entries of
    u - u0 matter, because those entries are exactly the coordinates of
    the difference in the kernel-lattice basis.
    """
    if u.n != eps.n or u0.n != eps.n:
        raise SizeMismatch("character over a different variable set")
    if u.degree() != u0.degree():
        raise DegreeMismatch("monomials lie in different fibers")
    diff = (off_diagonal_parities(u.exps, eps.n)
            ^ off_diagonal_parities(u0.exps, eps.n))
    return -1 if (eps.mask & diff).bit_count() & 1 else 1


# -- normal forms modulo the principal-minor ideal ---------------------

def _class_sums(p: SparsePoly) -> dict[FiberClassKey, Fraction]:
    """Coefficient sums of p per (degree, class) key, zero sums dropped.

    One pass over the terms, one ``class_key`` per term; the key carries
    the degree, so p need not be homogeneous.
    """
    sums: dict[FiberClassKey, Fraction] = {}
    for m, c in p.terms.items():
        key = class_key(m)
        sums[key] = sums.get(key, 0) + c
    return {key: s for key, s in sums.items() if s}


def normal_form(p: SparsePoly) -> dict[FiberClassKey, Fraction]:
    """Normal form of a homogeneous polynomial: its class sums.

    Each (degree, class) graded piece of the quotient by the
    principal-minor ideal is one-dimensional, and every monomial maps to
    its class basis element with coefficient one, so the normal form is
    the dict of nonzero class-wise coefficient sums; it is empty exactly
    when p lies in the principal-minor ideal.  Inhomogeneous input
    raises ``Inhomogeneous``.
    """
    if not p.is_zero():
        multidegree(p)
    return _class_sums(p)


def in_principal_minor_ideal(p: SparsePoly) -> bool:
    """Membership in the principal-minor ideal, any polynomial.

    The ideal is graded and its class keys carry the degree, so p is a
    member exactly when all of its class sums vanish.
    """
    return not _class_sums(p)


def in_twisted_veronese(p: SparsePoly, eps: SignCharacter) -> bool:
    """Membership in the twisted Veronese component attached to eps.

    Per multidegree, the quotient by the (twisted) Veronese ideal is
    one-dimensional, so the degree piece of the component is the kernel
    of a single character-weighted coefficient sum.  Eps is constant on
    each class, so that sum is the total of the class sums, each signed
    by eps on its class parities; no basepoint is needed, because
    changing it multiplies a degree's total by +-1.
    """
    if p.n != eps.n:
        raise SizeMismatch("character over a different variable set")
    totals: dict[tuple[int, ...], Fraction] = {}
    for key, s in _class_sums(p).items():
        sign = -1 if (eps.mask & key.parities).bit_count() & 1 else 1
        totals[key.degree] = totals.get(key.degree, 0) + sign * s
    return not any(totals.values())


# -- text grammar -------------------------------------------------------

_TOKEN = re.compile(r"\s*(x\d\d|\d+|[+\-*/])")


def render_poly(p: SparsePoly) -> str:
    """Canonical text form; terms descending by dense exponent tuple."""
    if p.is_zero():
        return "0"
    pieces = []
    for k, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        if m.is_one():
            text = str(mag)
        elif mag == 1:
            text = str(m)
        else:
            text = f"{mag}*{m}"
        if k == 0:
            pieces.append(text if c > 0 else "-" + text)
        else:
            pieces.append((" + " if c > 0 else " - ") + text)
    return "".join(pieces)


def parse_poly(text: str, n: int | None = None) -> SparsePoly:
    """Parse the text grammar; pairs are normalized to i <= j.

    When n is omitted it is inferred from the largest index present
    (at least 2).
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    raw_terms: list[tuple[int, Fraction | None, list[tuple[int, int]]]] = []
    sign, coeff, vars_, num_open, has_den = 1, None, [], None, False

    def flush():
        nonlocal sign, coeff, vars_, num_open, has_den
        if num_open is not None:
            raise ValueError("dangling '/' in coefficient")
        if coeff is None and not vars_:
            raise ValueError("empty term")
        raw_terms.append((sign, coeff, vars_))
        sign, coeff, vars_, has_den = 1, None, [], False

    started = False
    for tok in tokens:
        if tok in "+-":
            if started and (coeff is not None or vars_):
                flush()
            if tok == "-":
                sign = -sign
            started = True
        elif tok == "*":
            if coeff is None and not vars_:
                raise ValueError("misplaced '*'")
        elif tok == "/":
            if has_den:
                raise ValueError("second '/' in a coefficient")
            if coeff is None or num_open is not None or vars_:
                raise ValueError("misplaced '/'")
            num_open = coeff
        elif tok.isdigit():
            if num_open is not None:
                if int(tok) == 0:
                    raise ValueError(
                        f"zero denominator in the coefficient {num_open}/{tok}")
                coeff = Fraction(num_open) / int(tok)
                num_open, has_den = None, True
            elif coeff is not None:
                raise ValueError("two coefficients in one term")
            else:
                coeff = Fraction(int(tok))
            started = True
        else:  # variable
            i, j = int(tok[1]), int(tok[2])
            if i < 1 or j < 1:
                raise ValueError(f"bad variable {tok!r}")
            vars_.append(pair(i, j))
            started = True
    flush()

    max_index = max((j for _, _, vs in raw_terms for _, j in vs), default=2)
    if n is None:
        n = max(max_index, 2)
    elif max_index > n:
        raise SizeMismatch(f"variable index {max_index} exceeds n={n}")

    terms: dict[Monomial, Fraction] = {}
    for s, c, vs in raw_terms:
        exponents: dict[tuple[int, int], int] = {}
        for p_ in vs:
            exponents[p_] = exponents.get(p_, 0) + 1
        m = Monomial.from_pairs(n, exponents)
        terms[m] = terms.get(m, 0) + s * (1 if c is None else c)
    return SparsePoly(n, terms)


__all__ = [
    "SignCharacter", "SparsePoly", "Twisting",
    "all_characters", "character_of_twisting", "character_pairs",
    "character_value", "degree_split", "in_principal_minor_ideal",
    "in_twisted_veronese", "multidegree", "normal_form", "parse_poly",
    "render_poly", "twist", "twisting_from_character",
]
