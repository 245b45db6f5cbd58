"""The benchmark's workloads: verolink CLI commands and their output checks.

A workload is a list of ``Command``s.  The seed picks, for each
``verify-link``, which sign character is omitted and, for ``fiber -b``,
a coordinate permutation of the degree.  By the symmetry of the grading
these choices leave the amount of work unchanged, so runs with different
seeds measure the same work on different inputs.

Every command's output is checked twice: against a golden (exit code and
SHA-256 of stdout, captured at the default seed) and against invariants
that do not depend on the seed.  Goldens are keyed by the argv without
``--omit``: the omitted character is not printed and does not change the
records, so every seed's output is checked against the same golden.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Invariant factors of the torsion commands, as the CLI prints them.
TORSION = {(2, 8): "2^21", (3, 6): "3^45", (3, 7): "3^71", (3, 8): "3^105",
           (4, 5): "4^61", (4, 6): "4^115", (6, 4): "6^77"}

# Points in the fiber of (4, 4, 4, 4, 4, 4) at n = 6, one output line each.
FIBER_N6_B4_POINTS = 43581


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the checks its output must pass.

    ``check(stdout_text)`` returns a list of problems (empty when the
    output is right).  ``stdin_from`` names the index of an earlier
    command in the same workload whose stdout is piped in.
    """

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    stdin_from: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def golden_key(self) -> str:
        """The key of this command's golden: its argv without ``--omit X``."""
        argv = list(self.argv)
        if "--omit" in argv:
            at = argv.index("--omit")
            del argv[at:at + 2]
        return " ".join(argv)


def degree_count(n: int, bound: int) -> int:
    """Number of degrees in n coordinates with even sum up to bound."""
    return sum(comb(s + n - 1, n - 1) for s in range(0, bound + 1, 2))


def check_verify(n: int, bound: int) -> Callable[[str], list[str]]:
    expected = degree_count(n, bound)

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        problems = []
        if not lines or lines[-1] != f"verdict=pass checked={expected}":
            problems.append(f"last line is not 'verdict=pass checked={expected}'")
        records = [ln for ln in lines if ln.startswith("degree=")]
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        if any(not ln.endswith(" equal=yes") for ln in records):
            problems.append("a record is not equal=yes")
        return problems
    return check


def check_pplus(n: int) -> Callable[[str], list[str]]:
    expected = 2 ** comb(n - 1, 2)

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        if len(lines) != 1:
            return [f"{len(lines)} lines, expected 1"]
        if " - " in lines[0] or lines[0].startswith("-"):
            return ["a coefficient is not +1"]
        terms = lines[0].count(" + ") + 1
        return [] if terms == expected else [f"{terms} terms, expected {expected}"]
    return check


def check_hilbert(n: int, max_sum: int) -> Callable[[str], list[str]]:
    expected = 1 + degree_count(n, max_sum)

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        problems = []
        if len(lines) != expected:
            problems.append(f"{len(lines)} lines, expected {expected}")
        if any(len(ln.split("\t")) != 4 for ln in lines):
            problems.append("a row does not have 4 fields")
        return problems
    return check


def check_fiber_classes(points: int, classes: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        lines = text.splitlines()
        problems = []
        if len(lines) != points:
            problems.append(f"{len(lines)} points, expected {points}")
        ids = {ln.split("\t", 1)[0] for ln in lines}
        if ids != {str(c) for c in range(classes)}:
            problems.append(f"class ids are not 0..{classes - 1}")
        return problems
    return check


def check_exact(expected: str) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        got = text.rstrip("\n")
        return [] if got == expected else [f"output {got[:60]!r}, expected {expected!r}"]
    return check


def omit_spec(rng: random.Random, n: int) -> str:
    """A full sign spec over the pairs {i < j <= n-1}, e.g. ``12:-,13:+,23:+``."""
    return ",".join(f"{i}{j}:{rng.choice('+-')}"
                    for i in range(1, n) for j in range(i + 1, n))


def verify_workload(seed: int) -> list[Command]:
    rng = random.Random(seed)
    return [
        Command(("verify-link", "-n", "5", "--bound", "8"), check_verify(5, 8)),
        Command(("verify-link", "-n", "4", "--bound", "10", "--omit", omit_spec(rng, 4)),
                check_verify(4, 10)),
        Command(("verify-decomp", "-n", "5", "--bound", "8"), check_verify(5, 8)),
        Command(("verify-link", "-n", "6", "--bound", "4", "--omit", omit_spec(rng, 6)),
                check_verify(6, 4)),
        Command(("verify-decomp", "-n", "6", "--bound", "4"), check_verify(6, 4)),
    ]


def linkpoly_workload(seed: int) -> list[Command]:
    rng = random.Random(seed)
    degree = [4, 4, 4, 4, 4, 4]
    rng.shuffle(degree)
    return [
        Command(("pplus", "-n", "6", "-i", "1"), check_pplus(6)),
        Command(("hilbert", "-n", "6", "--max-sum", "10"), check_hilbert(6, 10)),
        Command(("fiber", "-n", "6", "-b", ",".join(map(str, degree)), "--classes"),
                check_fiber_classes(FIBER_N6_B4_POINTS, 2 ** comb(5, 2))),
        Command(("colon", "-n", "6"), check_exact("yes"), stdin_from=0),
    ]


def oracle_workload(seed: int) -> list[Command]:
    commands = [Command(("laurent-check", "-k", "6"),
                        check_exact("k=6 omissions=64 verdict=pass"))]
    for (d, n), factors in TORSION.items():
        commands.append(Command(("torsion", "-d", str(d), "-n", str(n)),
                                check_exact(factors)))
    return commands


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "verify": verify_workload,
    "linkpoly": linkpoly_workload,
    "oracle": oracle_workload,
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens() -> dict[str, dict]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def output_problems(command: Command, exit_code: int, stdout: bytes,
                    goldens: dict[str, dict]) -> list[str]:
    """Everything wrong with one command's result; empty when it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    golden = goldens.get(command.golden_key)
    if golden is not None:
        if golden["exit"] != exit_code:
            problems.append(f"exit code {exit_code}, golden {golden['exit']}")
        if golden["sha256"] != digest(stdout):
            problems.append("stdout differs from the golden digest")
    try:
        text = stdout.decode("ascii")
    except UnicodeDecodeError:
        return problems + ["stdout is not ASCII"]
    return problems + command.check(text)
