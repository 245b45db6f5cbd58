"""Sparse multivariate polynomials over the rationals, with twistings.

Coefficients are exact ``fractions.Fraction`` values and the ground
field is fixed to the rationals throughout.  A term's monomial is its
dense exponent tuple in the column order of ``variable_multisets(2,
n)``, and n is kept once, on the polynomial.  Terms are rendered in a
fixed order (descending dense exponent tuples, which is ascending
dictionary order on variable strings) so printed output is bit-stable
and re-parseable under the grammar::

    poly  := [sign] term (sign term)*
    sign  := "+" | "-"
    term  := coeff | [coeff ["*"]] var (["*"] var)*
    coeff := integer ["/" integer]
    var   := "x" i j          (two digits from 1 to 9; x21 is x12)

Exponents are written as repeated variables, e.g. ``x12*x12``;
whitespace between tokens is ignored, and a coefficient with its ``/``
is one token.  A third index digit (``x123``), a coefficient after a
variable (``x11*3``), a second sign (``x11 - -x22``), a ``/`` outside a
coefficient (``1/x12 2``) and a non-ASCII digit raise ValueError rather
than read another polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, itemgetter

from .fibers import class_key
from .veronese import (character_pairs, column_position, monomial,
                       monomial_degree, monomial_text, pair, pair_count,
                       variable_multisets)


class SparsePoly:
    """Finite map from weight-2 monomials to nonzero rational coefficients.

    ``terms`` maps dense exponent tuples, one entry per column of
    ``variable_multisets(2, n)``, to ``Fraction`` coefficients.  A term
    of another length raises ValueError, and so does a negative
    exponent; zero coefficients are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            size = len(variable_multisets(2, n))
            for m, c in terms.items():
                if len(m) != size:
                    raise ValueError("term over a different variable set")
                if min(m) < 0:
                    raise ValueError("negative exponent")
                c = Fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, n: int, c) -> "SparsePoly":
        return cls(n, {monomial(n, {}): c})

    @classmethod
    def variable(cls, n: int, i: int, j: int) -> "SparsePoly":
        return cls(n, {monomial(n, {(i, j): 1}): 1})

    # -- ring structure ----------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.n != other.n:
            raise ValueError("polynomials over different variable sets")

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
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return SparsePoly(self.n, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.terms == other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in output order: descending dense exponent tuples."""
        return sorted(self.terms.items(), key=itemgetter(0), reverse=True)

    def __repr__(self):
        return render_poly(self)


def multidegree(p: SparsePoly) -> tuple[int, ...]:
    """The common multidegree of all terms of a homogeneous polynomial."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no multidegree")
    degs = {monomial_degree(m, p.n) for m in p.terms}
    if len(degs) > 1:
        raise ValueError(f"terms of distinct multidegrees: {sorted(degs)}")
    return next(iter(degs))


# -- twistings and sign characters, as bit masks ----------------------
#
# A sign character is an int mask over ``character_pairs(n)``: bit k is
# set where its k-th sign is -1.  A twisting, the sign automorphism
# negating some variables, is an int mask over the columns of
# ``variable_multisets(2, n)``: bit k is set where the k-th variable
# changes sign.

def _check_mask(mask: int, bits: int, kind: str) -> None:
    """Refuse a negative mask or one with a bit past its ``bits``
    coordinates, rather than truncate it."""
    if not 0 <= mask < 1 << bits:
        raise ValueError(f"{kind} over a different variable set")


def twist(p: SparsePoly, flips: int) -> SparsePoly:
    """Apply the twisting ``flips``; an involution when applied twice.

    A term changes sign when an odd number of its odd-exponent
    variables are flipped.
    """
    _check_mask(flips, len(variable_multisets(2, p.n)), "twisting")
    out = {}
    for m, c in p.terms.items():
        odd = sum((e & 1) << k for k, e in enumerate(m))
        out[m] = character_sign(flips, odd) * c
    return SparsePoly(p.n, out)


def all_characters(n: int) -> list[int]:
    """All sign characters, as masks in increasing order; the trivial
    one, 0, comes first.

    These parametrize the 2**binom(n-1, 2) components of the prime
    decomposition of the principal-minor ideal.
    """
    return list(range(1 << pair_count(n - 1)))


def character_spec(n: int, mask: int) -> str:
    """Compact text form, e.g. ``12:-,13:+,23:+``."""
    _check_mask(mask, pair_count(n - 1), "character")
    parts = [f"{i}{j}:{'-' if mask >> k & 1 else '+'}"
             for k, (i, j) in enumerate(character_pairs(n))]
    return ",".join(parts) if parts else "trivial"


def character_of_twisting(n: int, flips: int) -> int:
    """The sign character a twisting induces on the kernel lattice.

    Coordinate (i, j) is the relative sign the twisting puts on the
    binomial x_ij*x_nn - x_in*x_jn, i.e. the product of the four
    variable signs on its support.
    """
    _check_mask(flips, len(variable_multisets(2, n)), "twisting")
    pos = column_position(2, n)
    mask = 0
    for k, (i, j) in enumerate(character_pairs(n)):
        support = (1 << pos[i, j] | 1 << pos[i, n] | 1 << pos[j, n]
                   | 1 << pos[n, n])
        mask |= ((flips & support).bit_count() & 1) << k
    return mask


def twisting_from_character(n: int, mask: int) -> int:
    """Some twisting inducing the character: flip exactly the negative
    (i, j) pairs.

    Any preimage works; this one leaves every variable meeting the last
    index, and every diagonal variable, fixed.
    """
    _check_mask(mask, pair_count(n - 1), "character")
    pos = column_position(2, n)
    return sum(1 << pos[p] for k, p in enumerate(character_pairs(n))
               if mask >> k & 1)


def character_sign(mask: int, parities: int) -> int:
    """The value, +1 or -1, of the character with this ``mask`` on a
    parity mask: -1 when ``mask & parities`` has an odd number of bits."""
    return -1 if (mask & parities).bit_count() & 1 else 1


def character_value(mask: int, u: tuple[int, ...], u0: tuple[int, ...],
                    n: int) -> int:
    """Value of the character on the difference u - u0 (two points of one
    fiber, as dense exponent tuples over n indices).

    Only the parities of the off-diagonal off-last-column entries of
    u - u0 matter, because those entries are exactly the coordinates of
    the difference in the kernel-lattice basis.
    """
    if len(u0) != len(u):
        raise ValueError("character over a different variable set")
    _check_mask(mask, pair_count(n - 1), "character")
    degree, parities = class_key(u, n)
    degree0, parities0 = class_key(u0, n)
    if degree != degree0:
        raise ValueError("monomials lie in different fibers")
    return character_sign(mask, parities ^ parities0)


# -- normal forms modulo the principal-minor ideal ---------------------

def _class_sums(p: SparsePoly) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Coefficient sums of p per (degree, parities) class key, zero sums
    dropped.

    One pass over the terms, one ``class_key`` per term; the key carries
    the degree, so p need not be homogeneous.
    """
    sums: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for m, c in p.terms.items():
        key = class_key(m, p.n)
        sums[key] = sums.get(key, 0) + c
    return {key: s for key, s in sums.items() if s}


def normal_form(p: SparsePoly) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Normal form of a homogeneous polynomial: its class sums.

    Each (degree, class) graded piece of the quotient by the
    principal-minor ideal is one-dimensional, and every monomial maps to
    its class basis element with coefficient one, so the normal form is
    the dict of nonzero class-wise coefficient sums; it is empty exactly
    when p lies in the principal-minor ideal.  A polynomial that is not
    homogeneous raises ValueError.
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


def in_twisted_veronese(p: SparsePoly, mask: int) -> bool:
    """Membership in the twisted Veronese component of a character.

    Per multidegree, the quotient by the (twisted) Veronese ideal is
    one-dimensional, so the degree piece of the component is the kernel
    of a single character-weighted coefficient sum.  The character is
    constant on each class, so that sum is the total of the class sums,
    each signed by the character on its class parities; no basepoint is
    needed, because changing it multiplies a degree's total by +-1.
    """
    _check_mask(mask, pair_count(p.n - 1), "character")
    totals: dict[tuple[int, ...], Fraction] = {}
    for (degree, parities), s in _class_sums(p).items():
        totals[degree] = (totals.get(degree, 0)
                          + character_sign(mask, parities) * s)
    return not any(totals.values())


# -- text grammar -------------------------------------------------------

_TOKEN = re.compile(r"\s*(x\d{2,}|\d+(?:\s*/\s*\d+)?|[+\-*/])", re.ASCII)


def render_poly(p: SparsePoly) -> str:
    """Canonical text form; terms descending by dense exponent tuple."""
    if p.is_zero():
        return "0"
    pieces = []
    for k, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        if not any(m):
            text = str(mag)
        elif mag == 1:
            text = monomial_text(m, p.n)
        else:
            text = f"{mag}*{monomial_text(m, p.n)}"
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
            if text[pos:].strip(" \t\n\r\f\v"):  # \s under re.ASCII
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    raw_terms: list[tuple[int, Fraction | None, list[tuple[int, int]]]] = []
    sign, signed, coeff, vars_ = 1, False, None, []

    def flush():
        nonlocal sign, signed, coeff, vars_
        if coeff is None and not vars_:
            raise ValueError("empty term")
        raw_terms.append((sign, coeff, vars_))
        sign, signed, coeff, vars_ = 1, False, None, []

    for prev, tok in zip(["", *tokens], tokens):
        # A '*' needs a variable after it; a digit fails below.
        if prev == "*" and tok in "+-*/":
            raise ValueError("'*' without a variable after it")
        if tok in "+-":
            if coeff is not None or vars_:
                flush()
            elif signed:
                raise ValueError("two signs before one term")
            if tok == "-":
                sign = -1
            signed = True
        elif tok == "*":
            if coeff is None and not vars_:
                raise ValueError("misplaced '*'")
        elif tok == "/":
            # A fraction is one token, so a lone '/' is outside the grammar.
            raise ValueError("second '/' in a coefficient" if "/" in prev
                             else "misplaced '/'")
        elif tok[0].isdigit():
            num, _, den = tok.partition("/")
            if coeff is not None:
                raise ValueError("two coefficients in one term")
            if vars_:
                raise ValueError(f"coefficient {num.rstrip()} after a variable")
            if den and int(den) == 0:
                raise ValueError("zero denominator in the coefficient "
                                 f"{int(num)}/{den.strip()}")
            coeff = Fraction(int(num), int(den or 1))
        else:  # variable
            if len(tok) > 3 or "0" in tok:
                raise ValueError(f"bad variable {tok!r}")
            vars_.append(pair(int(tok[1]), int(tok[2])))
    if tokens[-1] == "*":
        raise ValueError("'*' without a variable after it")
    flush()

    # A constant names no index, so with n < 1 the size guard refuses it.
    indices = [j for _, _, vs in raw_terms for _, j in vs]
    if n is None:
        n = max([2, *indices])
    elif indices and max(indices) > n:
        raise ValueError(f"variable index {max(indices)} exceeds n={n}")

    terms: dict[tuple[int, ...], Fraction] = {}
    for s, c, vs in raw_terms:
        exponents: dict[tuple[int, int], int] = {}
        for p_ in vs:
            exponents[p_] = exponents.get(p_, 0) + 1
        m = monomial(n, exponents)
        terms[m] = terms.get(m, 0) + s * (1 if c is None else c)
    return SparsePoly(n, terms)


__all__ = [
    "SparsePoly", "all_characters", "character_of_twisting",
    "character_pairs", "character_sign", "character_spec",
    "character_value", "in_principal_minor_ideal", "in_twisted_veronese",
    "multidegree", "normal_form", "parse_poly", "render_poly", "twist",
    "twisting_from_character",
]
