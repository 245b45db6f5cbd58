"""verolink benchmark: run one workload of CLI commands and print its metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/verolink`` is imported
from there, nothing is installed.  Each command runs in a fresh child
process (``bench/child.py``) through ``verolink.cli.main(argv)``, one at
a time: each once, then repeats while ``--seconds`` last.  Every output
is checked (see ``workloads``).

With ``--trace 0`` the end-to-end metrics are reported.  Their times
are in reference seconds: each untraced child runs the host speed gauge
of ``bench/gauge.py``, which scales every stretch of the command's time
by how fast a fixed probe ran beside it, so that drift in the speed of
a shared host does not show as a change in the program.  The report
lines give the raw wall-clock figures beside them.  With
``--trace 1`` every execution is a pair, untraced then traced, and the
per-layer metrics of ``bench/tracer.py`` are reported.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A human-readable report precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from child import REPORT_PREFIX
from tracer import ROOT_LAYER

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")

# Spawns per untraced run of a child that only imports verolink.cli: set-up
# samples beside those of the commands, so setup_s is a median of many.
SETUP_SPAWNS = 20
# Runs a child that only sets up; it must exit 0 and print nothing.
SETUP_ONLY = workloads.Command((), workloads.check_exact(""))
# A command running past this many seconds is killed and counts as failed.
COMMAND_LIMIT_S = 60.0
# No command is started, and none runs, past this many seconds into a run,
# so a run ends well within its 180-second allowance even if commands hang.
RUN_LIMIT_S = 150.0

END_TO_END = [
    ("wall_s", "s"), ("first_output_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("fibers.enumerate.calls", "count"), ("fibers.enumerate.points", "count"),
    ("fibers.enumerate.self_s", "s"), ("fibers.enumerate.repeat_ratio", "ratio"),
    ("fibers.classify.calls", "count"), ("fibers.classify.self_s", "s"),
    ("poly.character.calls", "count"), ("poly.character.self_s", "s"),
    ("poly.arith.calls", "count"), ("poly.arith.self_s", "s"),
    ("poly.reduce.calls", "count"), ("poly.reduce.self_s", "s"),
    ("poly.text.self_s", "s"),
    ("exactlin.eliminate.calls", "count"), ("exactlin.eliminate.entries", "count"),
    ("exactlin.eliminate.self_s", "s"), ("exactlin.eliminate.per_record", "ratio"),
    ("exactlin.compare.calls", "count"), ("exactlin.compare.self_s", "s"),
    ("exactlin.lattice.calls", "count"), ("exactlin.lattice.self_s", "s"),
    ("verify.records", "count"), ("verify.assemble.self_s", "s"),
    ("verify.oracle.self_s", "s"),
    ("link.saturated.calls", "count"), ("link.saturated.self_s", "s"),
    ("ideals.gens.self_s", "s"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"), ("trace.coverage", "ratio"),
]


@dataclass
class Sample:
    """One execution of one command."""

    stdout: bytes = b""
    problems: list[str] = field(default_factory=list)
    elapsed: float = 0.0            # parent's view: spawn to exit or kill
    report: dict | None = None      # the child's report, when it finished

    @property
    def ok(self) -> bool:
        return not self.problems and self.report is not None


def execute(command: workloads.Command, stdin: bytes, trace: bool, limit: float,
            goldens: dict) -> Sample:
    """Run one command in a fresh child process and check its output."""
    # The commands run at the CLI's default size cap, on ROOT/src only.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "VLAB_SIZE_CAP")}
    sample = Sample()
    if limit <= 0:
        sample.problems.append("run time limit reached before the command started")
        return sample
    spawn = time.monotonic()
    out = err = None
    # -S: the children import nothing from site-packages, so set-up time is
    # the interpreter's own start and verolink's import, not the host's .pth files.
    with subprocess.Popen(
            [sys.executable, "-S", str(CHILD), str(ROOT), "1" if trace else "0", *command.argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=ROOT, env=env) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=limit)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    sample.elapsed = time.monotonic() - spawn
    if out is None:
        sample.problems.append(f"killed at the {limit:.1f} s time limit")
        return sample
    sample.stdout = out
    lines = err.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(REPORT_PREFIX):
        r = sample.report = json.loads(lines[-1][len(REPORT_PREFIX):])
        # Raw times leave out the gauge's probes; untraced children also
        # give them in reference seconds (see gauge.py).
        r["setup"] = r["ready"] - spawn
        r["wall"] = r["end"] - r["start"] - r.get("probe_s", 0.0)
        r["first"] = r["first_output"] - r["start"] - r.get("first_probe_s", 0.0)
        if "setup_factor" in r:
            r["setup_ref"] = r["setup"] * r["setup_factor"]
    else:
        sample.problems.append("no report: " + " | ".join(lines[-3:]))
    sample.problems += workloads.output_problems(command, proc.returncode, out, goldens)
    return sample


@dataclass
class RunResult:
    commands: list[workloads.Command]
    plain: list[list[Sample]]       # per command, untraced samples
    traced: list[list[Sample]]      # per command, traced samples
    setups: list[Sample] = field(default_factory=list)   # set-up only spawns

    def all_samples(self) -> list[Sample]:
        return [s for group in self.plain + self.traced for s in group] + self.setups

    @property
    def attempted(self) -> int:
        return len(self.all_samples())

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.all_samples())


def run_workload(commands: list[workloads.Command], seconds: float, trace: bool,
                 goldens: dict, command_limit: float = COMMAND_LIMIT_S,
                 setup_spawns: int = 0) -> RunResult:
    """Spawn ``setup_spawns`` set-up only children, then run every command
    once, then repeat commands while ``seconds`` last.

    A repeat goes to the command with the most time per sample taken so
    far among those whose last duration still fits in the remaining time,
    so the long commands that dominate ``wall_s`` get the extra samples
    and a run ends close to ``seconds``.
    """
    start = time.monotonic()
    result = RunResult(commands, [[] for _ in commands], [[] for _ in commands])
    last_stdout: dict[int, bytes] = {}
    duration: dict[int, float] = {}
    rounds = [0] * len(commands)
    for _ in range(setup_spawns):
        limit = min(command_limit, RUN_LIMIT_S - (time.monotonic() - start))
        result.setups.append(execute(SETUP_ONLY, b"", False, limit, goldens))

    def choose() -> int | None:
        if len(duration) < len(commands):
            return len(duration)
        remaining = seconds - (time.monotonic() - start)
        fits = [k for k in range(len(commands)) if duration[k] <= remaining]
        return max(fits, key=lambda k: duration[k] / rounds[k], default=None)

    while (k := choose()) is not None:
        command = commands[k]
        began = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            if command.stdin_from is not None and command.stdin_from not in last_stdout:
                sample = Sample(problems=["its input command has not succeeded"])
            else:
                limit = min(command_limit, RUN_LIMIT_S - (time.monotonic() - start))
                stdin = last_stdout.get(command.stdin_from, b"")
                sample = execute(command, stdin, traced, limit, goldens)
            (result.traced if traced else result.plain)[k].append(sample)
            if sample.ok and not traced:
                last_stdout[k] = sample.stdout
        duration[k] = time.monotonic() - began
        rounds[k] += 1
    return result


def _per_command(group: list[Sample], key: str) -> float:
    """Median over a command's good samples; if it never succeeded, its longest run."""
    good = [s.report[key] for s in group if s.ok]
    return statistics.median(good) if good else max((s.elapsed for s in group), default=0.0)


def end_to_end_metrics(result: RunResult, suffix: str = "_ref") -> dict[str, float]:
    """The end-to-end metrics in reference seconds; with ``suffix=""``,
    the same from raw wall-clock times."""
    reports = [s.report for group in result.plain for s in group if s.report]
    setups = [s.report["setup" + suffix] for s in result.setups if s.ok]
    setups += [r["setup" + suffix] for r in reports]
    return {
        "wall_s": sum(_per_command(group, "wall" + suffix) for group in result.plain),
        "first_output_s": sum(_per_command(group, "first" + suffix) for group in result.plain),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r["peak_rss_kib"] for r in reports), default=0) / 1024,
    }


def library_self_s(layers: dict[str, dict[str, float]]) -> float:
    """Self time of every layer but the root ``cli`` span.

    Time the tracer fails to catch falls to the root span's self time,
    so this sum over the traced wall time (``trace.coverage``) drops
    when a binding site is missed.
    """
    return sum(totals["self_s"] for layer, totals in layers.items() if layer != ROOT_LAYER)


def per_layer_metrics(result: RunResult) -> dict[str, float]:
    """Per-layer sums over commands of each command's mean traced sample.

    Means, not medians, so that sums stay consistent: a command's mean
    self times add up to at most its mean traced wall time.
    """
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    traced_wall = plain_wall = 0.0
    for plain, traced in zip(result.plain, result.traced):
        good = [s.report for s in traced if s.ok]
        if not good:
            continue
        share = 1 / len(good)
        for r in good:
            traced_wall += r["wall"] * share
            for name, value in r["counters"].items():
                counters[name] = counters.get(name, 0) + value * share
            for layer, totals in r["layers"].items():
                acc = layers.setdefault(layer, {"calls": 0.0, "self_s": 0.0})
                acc["calls"] += totals["calls"] * share
                acc["self_s"] += totals["self_s"] * share
        plain_good = [s.report for s in plain if s.ok]
        plain_wall += statistics.fmean(r["wall"] for r in plain_good) if plain_good else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {}
    for name, _ in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if prefix in layers and stat in ("calls", "self_s"):
            metrics[name] = layers[prefix][stat]
        elif name in counters:
            metrics[name] = counters[name]
    metrics["fibers.enumerate.repeat_ratio"] = ratio(
        counters.get("fibers.raw_calls", 0), counters.get("fibers.distinct_degrees", 0))
    metrics["exactlin.eliminate.per_record"] = ratio(
        metrics.get("exactlin.eliminate.calls", 0), counters.get("verify.records", 0))
    metrics["trace.overhead_frac"] = ratio(traced_wall, plain_wall) - 1 if plain_wall else 0.0
    metrics["trace.coverage"] = ratio(library_self_s(layers), traced_wall)
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


def report_lines(result: RunResult, metrics: dict[str, float],
                 units: dict[str, str], traced_metrics: bool) -> list[str]:
    groups = [(command.key, result.plain[k], result.traced[k], "wall")
              for k, command in enumerate(result.commands)]
    if result.setups:
        groups.append(("(set-up only)", result.setups, [], "setup"))
    lines = []
    for label, plain, traced, key in groups:
        bad = [s for s in plain + traced if not s.ok]
        medians = []
        for suffix in ("", "_ref"):
            times = [s.report[key + suffix] for s in plain if s.ok and key + suffix in s.report]
            if times:
                medians.append(f"{key}{suffix}={statistics.median(times):.3f} s")
        lines.append(f"# {label[:60]:<60} runs={len(plain) + len(traced)} "
                     f"failed={len(bad)} median {' '.join(medians) or '-'}")
        for s in bad:
            lines.append(f"#   FAILED: {'; '.join(s.problems)}")
    raw = {} if traced_metrics else end_to_end_metrics(result, suffix="")
    for name, unit in units.items():
        note = f"   (raw wall clock: {raw[name]:.6g} {unit})" if unit == "s" and name in raw else ""
        lines.append(f"{name:<32} {metrics[name]:.6g} {unit}{note}")
    lines.append(f"{'ops_failed_frac':<32} {result.failed / result.attempted:.6g} ratio")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "verolink" / "cli.py").is_file():
        print(f"error: no verolink source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = workloads.load_goldens()
    commands = workloads.WORKLOADS[args.workload](args.seed)
    result = run_workload(commands, args.seconds, bool(args.trace), goldens,
                          setup_spawns=0 if args.trace else SETUP_SPAWNS)
    if args.trace:
        metrics, units = per_layer_metrics(result), dict(PER_LAYER)
    else:
        metrics, units = end_to_end_metrics(result), dict(END_TO_END)
    for line in report_lines(result, metrics, units, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
