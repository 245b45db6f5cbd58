"""Command-line surface with stable text and JSON output.

Exit codes: 0 on success or a verified/affirmative result, 1 when a
verification or membership check comes back negative, 2 on usage or
input errors (a ``ValueError``), 3 when an enumeration hits the size cap
(``SizeCapExceeded``).  Either way stderr is ``error: <message>``.  A
command whose stdout reader is gone (``verolink fiber ... | head -n 1``)
exits 141, what a shell reports for a process ended by SIGPIPE, and
prints nothing to stderr.  The environment variable VLAB_SIZE_CAP, a
non-negative integer, is that cap for every command and for the library
alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import groupby

from .errors import SizeCapExceeded
from .fibers import (ASCII_INTEGER, enumerate_fiber, fiber_classes,
                     hilbert_table)
from .link import saturated_fiber_poly, zonotope_poly
from .poly import (SparsePoly, character_pairs, in_principal_minor_ideal,
                   in_twisted_veronese, parse_poly, render_poly, twist)
from .veronese import (column_position, monomial_text, pair,
                       principal_minor_basis, variable_multisets,
                       veronese_lattice_basis, veronese_matrix)
from .verify import (colon_membership, group_algebra_subintersection,
                     higher_torsion, verify_decomposition, verify_link)

USAGE_ERROR = 2
SIZE_CAP_ERROR = 3
BROKEN_PIPE = 141


# -- JSON polynomial schema --------------------------------------------

def poly_to_json(p: SparsePoly) -> list[dict]:
    """Array of {"exp": {"ij": e, ...}, "coeff": "p/q"} term objects."""
    labels = ["".join(map(str, ms)) for ms in variable_multisets(2, p.n)]
    out = []
    for m, c in p.sorted_terms():
        exp = {label: e for label, e in zip(labels, m) if e}
        out.append({"exp": exp, "coeff": str(c)})
    return out


# -- spec parsing -------------------------------------------------------

def parse_sign_spec(spec: str) -> dict[tuple[int, int], int]:
    """Parse comma-separated signed pairs, e.g. ``12:-,13:+``; an empty
    item, or a pair given twice in either order, is an error.  The empty
    spec assigns no sign."""
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty sign entry in {spec!r}")
        key, _, sign = item.partition(":")
        if not (len(key) == 2 and key.isascii() and key.isdigit()
                and "0" not in key):
            raise ValueError(f"bad sign entry {item!r}; expected like '12:-'")
        if sign not in ("+", "-"):
            raise ValueError(f"bad sign {sign!r} in {item!r}")
        p = pair(int(key[0]), int(key[1]))
        if p in out:
            raise ValueError(f"pair {key} given twice in {spec!r}")
        out[p] = 1 if sign == "+" else -1
    return out


def parse_character(spec: str | None, n: int) -> int:
    """The mask of a sign character given by its minus pairs; unnamed
    pairs, and every pair of the empty spec, get a plus."""
    index = {p: k for k, p in enumerate(character_pairs(n))}
    mask = 0
    for p, s in parse_sign_spec(spec or "").items():
        if p not in index:
            raise ValueError(f"pair {p} is not an off-diagonal pair of [n-1]")
        mask |= (s < 0) << index[p]
    return mask


def parse_degree(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII integers; ``int`` alone would also take
    ``1_0`` and non-ASCII digits."""
    entries = text.split(",")
    if not all(ASCII_INTEGER.fullmatch(x) for x in entries):
        raise ValueError(f"bad degree {text!r}; expected comma-separated integers")
    return tuple(map(int, entries))


def _emit(args, payload, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands --------------------------------------------------------

def cmd_grading(args) -> int:
    V = veronese_matrix(args.d, args.n)
    labels = ["".join(map(str, ms)) for ms in variable_multisets(args.d, args.n)]
    lines = ["# columns: " + " ".join(labels)]
    lines += [" ".join(str(x) for x in row) for row in V.data]
    _emit(args, {"d": args.d, "n": args.n, "columns": labels, "rows": V.data},
          lines)
    return 0


def cmd_basis(args) -> int:
    vectors = (principal_minor_basis(args.n) if args.prime
               else veronese_lattice_basis(args.n))
    cols = variable_multisets(2, args.n)
    payload = [{"".join(map(str, cols[k])): c for k, c in enumerate(v) if c}
               for v in vectors]
    lines = [" ".join(f"{ij}:{c}" for ij, c in entries.items()) or "0"
             for entries in payload]
    _emit(args, payload, lines)
    return 0


def cmd_torsion(args) -> int:
    factors = higher_torsion(args.d, args.n)
    groups = []
    for f, run in groupby(factors):
        count = len(list(run))
        groups.append(f"{f}^{count}" if count > 1 else str(f))
    text = "*".join(groups) or "1"
    _emit(args, {"d": args.d, "n": args.n, "factors": factors}, [text])
    return 0


def cmd_fiber(args) -> int:
    # Only the printed form is built, text lines as they are printed.
    # The fiber is complete before the first line, so a size stop
    # prints nothing.
    b = parse_degree(args.b)
    if args.classes:
        rendered = ((cid, monomial_text(m, args.n)) for cid, cls in
                    enumerate(fiber_classes(args.n, b)) for m in cls)
    else:
        rendered = ((None, monomial_text(m, args.n))
                    for m in enumerate_fiber(args.n, b))
    if args.json:
        print(json.dumps([{"monomial": text} if cid is None else
                          {"class": cid, "monomial": text}
                          for cid, text in rendered], sort_keys=True))
    else:
        for cid, text in rendered:
            print(text if cid is None else f"{cid}\t{text}")
    return 0


def cmd_hilbert(args) -> int:
    # Only the printed form is built.
    rows = list(hilbert_table(args.n, args.max_sum))
    if args.json:
        print(json.dumps([{"b": list(b), "fiber": fiber, "classes": classes,
                           "saturated": saturated}
                          for b, fiber, classes, saturated in rows],
                         sort_keys=True))
    else:
        print("#degree\tfiber\tclasses\tsaturated")
        for b, fiber, classes, saturated in rows:
            print("{}\t{}\t{}\t{}".format(
                ",".join(str(x) for x in b), fiber, classes,
                "yes" if saturated else "no"))
    return 0


def cmd_pn(args) -> int:
    p = zonotope_poly(args.n)
    _emit(args, poly_to_json(p), [render_poly(p)])
    return 0


def cmd_pplus(args) -> int:
    p = saturated_fiber_poly(args.n, args.i)
    _emit(args, poly_to_json(p), [render_poly(p)])
    return 0


def cmd_twist(args) -> int:
    signs = parse_sign_spec(args.signs)
    top = max((j for _, j in signs), default=0)
    # As in ``parse_poly``, an empty spec names no index; with -n below
    # 1 the size guard then refuses the polynomial.
    if signs and args.n is not None and top > args.n:
        raise ValueError(f"sign index {top} exceeds n={args.n}")
    text = sys.stdin.read()
    p = parse_poly(text, args.n)
    if top > p.n:
        p = parse_poly(text, top)
    pos = column_position(2, p.n)
    out = twist(p, sum(1 << pos[q] for q, s in signs.items() if s < 0))
    _emit(args, poly_to_json(out), [render_poly(out)])
    return 0


def cmd_member(args) -> int:
    p = parse_poly(sys.stdin.read(), args.n)
    if args.ideal == "jn":
        if args.eps is not None:
            raise ValueError("--eps names a twisted Veronese component; "
                             "it needs --ideal veronese")
        verdict = in_principal_minor_ideal(p)
    else:
        eps = parse_character(args.eps, args.n)
        verdict = in_twisted_veronese(p, eps)
    _emit(args, {"member": verdict}, ["yes" if verdict else "no"])
    return 0 if verdict else 1


def cmd_colon(args) -> int:
    p = parse_poly(sys.stdin.read(), args.n)
    verdict = colon_membership(p, args.n)
    _emit(args, {"member": verdict}, ["yes" if verdict else "no"])
    return 0 if verdict else 1


def cmd_verify_link(args) -> int:
    # Before the character, which needs n >= 1.
    if args.n < 3:
        raise ValueError("need n >= 3")
    omitted = parse_character(args.omit, args.n)
    report = verify_link(args.n, omitted, args.bound)
    _emit(args, report.to_json_dict(), report.to_lines())
    return 0 if report.verdict else 1


def cmd_verify_decomp(args) -> int:
    report = verify_decomposition(args.n, args.bound)
    _emit(args, report.to_json_dict(), report.to_lines())
    return 0 if report.verdict else 1


def cmd_laurent_check(args) -> int:
    verdict = group_algebra_subintersection(args.k)
    _emit(args, {"k": args.k, "verdict": verdict},
          ["k={} omissions={} verdict={}".format(
              args.k, 2 ** args.k, "pass" if verdict else "fail")])
    return 0 if verdict else 1


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, sized to the terminal when it lays out
    text, not when it is built.

    argparse builds a formatter for every argument it adds, and sizing
    one imports ``shutil`` and reads the terminal; a command that prints
    no help, usage or error text does neither.  The width and the help
    column are those of a stock formatter built as the text prints."""

    def __init__(self, prog):
        # Any width here keeps argparse from reading the terminal's; none
        # is kept, so a layout before ``format_help`` would fail.
        super().__init__(prog, width=0)
        self._width = self._max_help_position = None

    def format_help(self) -> str:
        sized = argparse.HelpFormatter(self._prog)
        self._width = sized._width
        self._max_help_position = sized._max_help_position
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verolink", formatter_class=_HelpFormatter,
        description="Exact computations around the second Veronese ideal "
                    "and its principal-minor complete intersection.")
    # Without a prog, add_subparsers lays out a usage line to make one.
    sub = parser.add_subparsers(dest="command", required=True, prog="verolink")

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("grading", cmd_grading, help="print the weight-d grading matrix")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("basis", cmd_basis, help="kernel-lattice basis (or the "
            "principal-minor one with --prime)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--prime", action="store_true")

    p = add("torsion", cmd_torsion, help="invariant factors of the "
            "generator lattice inside the kernel")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("fiber", cmd_fiber, help="enumerate the fiber of a multidegree")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-b", type=str, required=True,
                   help="comma-separated degree, e.g. 2,1,1")
    p.add_argument("--classes", action="store_true",
                   help="group the fiber into equivalence classes")

    p = add("hilbert", cmd_hilbert, help="class-count table up to a "
            "coordinate sum")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-sum", type=int, required=True)

    p = add("pn", cmd_pn, help="zonotope generating polynomial")
    p.add_argument("-n", type=int, required=True)

    p = add("pplus", cmd_pplus, help="class generating polynomial of a "
            "minimal saturated fiber")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-i", type=int, required=True)

    p = add("twist", cmd_twist, help="apply a sign automorphism to the "
            "stdin polynomial")
    p.add_argument("--signs", type=str, default="",
                   help="signed pairs, e.g. 12:-,23:+")
    p.add_argument("-n", type=int, default=None)

    p = add("member", cmd_member, help="ideal membership for the stdin "
            "polynomial")
    p.add_argument("--ideal", choices=["jn", "veronese"], required=True)
    p.add_argument("--eps", type=str, default=None,
                   help="sign character for the twisted Veronese component")
    p.add_argument("-n", type=int, required=True)

    p = add("colon", cmd_colon, help="link-ideal membership for the stdin "
            "polynomial")
    p.add_argument("-n", type=int, required=True)

    p = add("verify-link", cmd_verify_link, help="degreewise check that the "
            "link generators span the subintersection")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True,
                   help="even bound on the degree coordinate sum")
    p.add_argument("--omit", type=str, default=None,
                   help="omitted sign character, e.g. 12:-")

    p = add("verify-decomp", cmd_verify_decomp, help="degreewise check of "
            "the prime decomposition")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("laurent-check", cmd_laurent_check, help="group-algebra "
            "subintersection oracle")
    p.add_argument("-k", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush
        # at interpreter exit has somewhere to write what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SIZE_CAP_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
