"""Command-line surface with stable text and JSON output.

Exit codes: 0 on success or a verified/affirmative result, 1 when a
verification or membership check comes back negative, 2 on usage or
input errors, 3 when an enumeration hits the size cap.  The environment
variable VLAB_SIZE_CAP overrides the fiber enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import SizeCapExceeded, VerolinkError
from .fibers import enumerate_fiber, fiber_classes, hilbert_table
from .link import saturated_fiber_poly, zonotope_poly
from .poly import (SignCharacter, SparsePoly, Twisting,
                   in_principal_minor_ideal, in_twisted_veronese, parse_poly,
                   render_poly, twist)
from .veronese import Monomial, pair, veronese_matrix
from .verify import (colon_membership, group_algebra_subintersection,
                     higher_torsion, verify_decomposition, verify_link)

USAGE_ERROR = 2
SIZE_CAP_ERROR = 3


# -- JSON polynomial schema --------------------------------------------

def poly_to_json(p: SparsePoly) -> list[dict]:
    """Array of {"exp": {"ij": e, ...}, "coeff": "p/q"} term objects."""
    out = []
    for m, c in p.sorted_terms():
        exp = {"".join(str(i) for i in ms): e for ms, e in m.support()}
        out.append({"exp": exp, "coeff": str(c)})
    return out


def poly_from_json(data, n: int | None = None) -> SparsePoly:
    indices = [int(ch) for term in data for key in term["exp"] for ch in key]
    if n is None:
        n = max(indices, default=2)
    result = SparsePoly.zero(n)
    for term in data:
        exponents = {}
        for key, e in term["exp"].items():
            i, j = int(key[0]), int(key[1])
            exponents[pair(i, j)] = exponents.get(pair(i, j), 0) + e
        m = Monomial.from_pairs(n, exponents)
        result = result + SparsePoly.monomial(m, Fraction(term["coeff"]))
    return result


# -- spec parsing -------------------------------------------------------

def parse_sign_spec(spec: str) -> dict[tuple[int, int], int]:
    """Parse comma-separated signed pairs, e.g. ``12:-,13:+``."""
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, sign = item.partition(":")
        if not (len(key) == 2 and key.isascii() and key.isdigit()):
            raise ValueError(f"bad sign entry {item!r}; expected like '12:-'")
        if sign not in ("+", "-"):
            raise ValueError(f"bad sign {sign!r} in {item!r}")
        i, j = int(key[0]), int(key[1])
        out[pair(i, j)] = 1 if sign == "+" else -1
    return out


def parse_character(spec: str | None, n: int) -> SignCharacter:
    if not spec:
        return SignCharacter.trivial(n)
    return SignCharacter.from_pairs(n, parse_sign_spec(spec))


def parse_degree(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad degree {text!r}; expected comma-separated integers")


def _read_stdin_poly(n: int | None = None) -> SparsePoly:
    text = sys.stdin.read()
    return parse_poly(text, n)


def _emit(args, payload, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands --------------------------------------------------------

def cmd_grading(args) -> int:
    V = veronese_matrix(args.d, args.n)
    lines = ["# columns: " + " ".join(V.column_labels())]
    lines += [" ".join(str(x) for x in row) for row in V.matrix.data]
    _emit(args, {"d": V.d, "n": V.n, "columns": V.column_labels(),
                 "rows": V.matrix.data}, lines)
    return 0


def cmd_basis(args) -> int:
    from .veronese import principal_minor_basis, veronese_lattice_basis
    vectors = (principal_minor_basis(args.n) if args.prime
               else veronese_lattice_basis(args.n))
    lines = [str(v) for v in vectors]
    payload = [{f"{i}{j}": c for (i, j), c in v.support_pairs()} for v in vectors]
    _emit(args, payload, lines)
    return 0


def cmd_torsion(args) -> int:
    factors = higher_torsion(args.d, args.n)
    if not factors:
        text = "1"
    else:
        groups = []
        seen = []
        for f in factors:
            if seen and seen[-1][0] == f:
                seen[-1][1] += 1
            else:
                seen.append([f, 1])
        for f, count in seen:
            groups.append(f"{f}^{count}" if count > 1 else str(f))
        text = "*".join(groups)
    _emit(args, {"d": args.d, "n": args.n, "factors": factors}, [text])
    return 0


def cmd_fiber(args) -> int:
    b = parse_degree(args.b)
    V = veronese_matrix(2, args.n)
    if args.classes:
        classes = fiber_classes(V, b)
        lines = []
        payload = []
        for cid, cls in enumerate(classes):
            for m in cls:
                lines.append(f"{cid}\t{m}")
                payload.append({"class": cid, "monomial": str(m)})
    else:
        points = enumerate_fiber(V, b)
        lines = [str(m) for m in points]
        payload = [{"monomial": str(m)} for m in points]
    _emit(args, payload, lines)
    return 0


def cmd_hilbert(args) -> int:
    rows = list(hilbert_table(args.n, args.max_sum))
    lines = ["#degree\tfiber\tclasses\tsaturated"]
    payload = []
    for b, fiber, classes, saturated in rows:
        lines.append("{}\t{}\t{}\t{}".format(
            ",".join(str(x) for x in b), fiber, classes,
            "yes" if saturated else "no"))
        payload.append({"b": list(b), "fiber": fiber, "classes": classes,
                        "saturated": saturated})
    _emit(args, payload, lines)
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
    text = sys.stdin.read()
    probe = parse_poly(text)
    n = max([probe.n] + [j for _, j in signs] + ([args.n] if args.n else []))
    p = probe if n == probe.n else parse_poly(text, n)
    out = twist(p, Twisting(n, signs))
    _emit(args, poly_to_json(out), [render_poly(out)])
    return 0


def cmd_member(args) -> int:
    p = _read_stdin_poly(args.n)
    if args.ideal == "jn":
        verdict = in_principal_minor_ideal(p)
    else:
        eps = parse_character(args.eps, args.n)
        verdict = in_twisted_veronese(p, eps)
    _emit(args, {"member": verdict}, ["yes" if verdict else "no"])
    return 0 if verdict else 1


def cmd_colon(args) -> int:
    p = _read_stdin_poly(args.n)
    verdict = colon_membership(p, args.n)
    _emit(args, {"member": verdict}, ["yes" if verdict else "no"])
    return 0 if verdict else 1


def cmd_verify_link(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verolink",
        description="Exact computations around the second Veronese ideal "
                    "and its principal-minor complete intersection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
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
        return args.fn(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SIZE_CAP_ERROR
    except (VerolinkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
