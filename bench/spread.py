"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 bench/spread.py --runs 10 [--sets 2] [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` as separate processes for every workload of
BENCHMARK.json at its ``run_seconds``, ``--runs`` times per set, each run
with its own seed.  Workloads are interleaved round-robin (seed 1 of
every workload, then seed 2, ...), and so are the sets (a round for set
1, then one for set 2, ...), so that slow drift in host speed spreads
over all workloads and all sets instead of landing on one.  Before each
run it times a fixed pure-Python probe and records it beside that run's
metrics, never folded into them.

For each set, workload and metric it prints the median, the quartiles
and the spread, which is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.  With
more than one set it also prints how far each later set's median lies
from the first set's, as a share of the first, signed so that positive
is worse.  With ``--out`` it writes every run and the summaries to a
JSON file, e.g. ``bench/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def probe() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed drift."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 0xFFF] = i
    return time.perf_counter() - start


def one_run(workload: str, seed: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = time.monotonic() - start
    return result


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (other - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    sets = [{name: [] for name in names} for _ in range(args.sets)]
    for round_ in range(args.runs * args.sets):
        seed = round_ + 1
        for name in names:
            probe_s = probe()
            result = one_run(name, seed, args.trace)
            result.update(seed=seed, probe_s=probe_s)
            sets[round_ % args.sets][name].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"set={round_ % args.sets + 1} {name:<9} seed={seed:<3} "
                  f"run_s={result['run_s']:.1f} probe_s={probe_s:.4f} "
                  f"correct={result['correct']} {values}", flush=True)

    summaries = []
    if args.runs >= 2:
        for number, runs in enumerate(sets, 1):
            summary = {}
            for name, results in runs.items():
                summary[name] = {}
                for metric in [*results[0]["metrics"], "probe_s"]:
                    values = [r["metrics"][metric]["value"] if metric != "probe_s"
                              else r["probe_s"] for r in results]
                    stats = summary[name][metric] = summarize(values)
                    bound = METRICS.get(metric, {}).get("bound")
                    print(f"set={number} {name:<9} {metric:<32} "
                          f"median={stats['median']:.5g} q1={stats['q1']:.5g} "
                          f"q3={stats['q3']:.5g} spread={stats['spread']:.4f} "
                          f"bound={'-' if bound is None else f'{bound:.2f}'}")
            summaries.append(summary)
    worse = {}
    for number, summary in enumerate(summaries[1:], 2):
        for name, stats in summary.items():
            for metric, entry in stats.items():
                if metric not in METRICS:
                    continue
                first = summaries[0][name][metric]["median"]
                share = worse_by(first, entry["median"], METRICS[metric]["better"])
                worse.setdefault(f"set{number}", {}).setdefault(name, {})[metric] = share
                bound = METRICS[metric].get("bound")
                print(f"set={number} vs set=1 {name:<9} {metric:<32} worse_by={share:+.4f} "
                      f"bound={'-' if bound is None else f'{bound:.2f}'}")
    if args.out:
        args.out.write_text(json.dumps({
            "run_seconds": SPEC["run_seconds"], "trace": args.trace,
            "summaries": summaries, "worse_than_set1": worse, "sets": sets},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
