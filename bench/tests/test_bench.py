"""Tests of the benchmark harness on a tiny n = 3 workload.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys

import pytest

import gauge
import run
import workloads
from child import REPORT_PREFIX
from workloads import Command, check_exact, check_hilbert, check_pplus, check_verify

TINY = [
    Command(("verify-link", "-n", "3", "--bound", "4", "--omit", "12:-"), check_verify(3, 4)),
    Command(("pplus", "-n", "3", "-i", "1"), check_pplus(3)),
    Command(("colon", "-n", "3"), check_exact("yes"), stdin_from=1),
    Command(("hilbert", "-n", "3", "--max-sum", "4"), check_hilbert(3, 4)),
    Command(("laurent-check", "-k", "2"), check_exact("k=2 omissions=4 verdict=pass")),
    Command(("torsion", "-d", "2", "-n", "3"), check_exact("2")),
]


@pytest.fixture(scope="module")
def traced():
    return run.run_workload(TINY, 0, True, goldens={})


def test_tiny_workload_runs_and_passes_its_checks():
    result = run.run_workload(TINY, 0, False, goldens={}, setup_spawns=3)
    assert [len(g) for g in result.plain] == [1] * len(TINY)
    assert len(result.setups) == 3
    assert (result.attempted, result.failed) == (len(TINY) + 3, 0)
    for raw in (False, True):
        metrics = run.end_to_end_metrics(result, suffix="" if raw else "_ref")
        assert [name for name, _ in run.END_TO_END] == list(metrics)
        assert all(value > 0 for value in metrics.values())
        assert metrics["first_output_s"] <= metrics["wall_s"]


def gauge_with(durations, gap=0.05):
    """A gauge whose probes took ``durations``, with ``gap`` seconds of
    command time between each probe and the next."""
    g = gauge.Gauge()
    g.samples, t = [], 0.0
    for d in durations:
        g.samples.append((t, t + d))
        t += d + gap
    return g


def test_gauge_counts_time_at_reference_speed_and_leaves_out_probes():
    ref = gauge.REFERENCE_S
    steady = gauge_with([ref] * 11)
    end = steady.samples[-1][1]
    assert steady.probe_time(0, end) == pytest.approx(11 * ref)
    assert steady.reference_time(0, end) == pytest.approx(10 * 0.05)
    # Twice as slow a host: the same wall time counts half.
    assert gauge_with([2 * ref] * 11).reference_time(0, 1e9) == pytest.approx(5 * 0.05)
    # One probe interrupted by the host is outvoted by its neighbours.
    blip = gauge_with([ref] * 5 + [10 * ref] + [ref] * 5)
    assert blip.reference_time(0, 1e9) == pytest.approx(10 * 0.05)
    # Only stretches inside the interval count.
    assert steady.reference_time(0, steady.samples[3][0]) == pytest.approx(3 * 0.05)


def test_corrupted_golden_is_a_failed_operation():
    command = TINY[1]
    good = run.run_workload([command], 0, False, goldens={}).plain[0][0]
    golden = {"exit": 0, "sha256": workloads.digest(good.stdout)}
    ok = run.run_workload([command], 0, False, goldens={command.golden_key: golden})
    assert ok.failed == 0
    corrupted = dict(golden, sha256=workloads.digest(good.stdout + b"x"))
    bad = run.run_workload([command], 0, False, goldens={command.golden_key: corrupted})
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "stdout differs from the golden digest" in bad.plain[0][0].problems


def test_every_command_has_a_golden_at_every_seed():
    goldens = workloads.load_goldens()
    keys = {c.golden_key for name in workloads.WORKLOADS
            for seed in (workloads.DEFAULT_SEED, 1, 2, 17)
            for c in workloads.WORKLOADS[name](seed)}
    assert keys == set(goldens)
    assert TINY[0].golden_key == "verify-link -n 3 --bound 4"


def test_wrong_output_fails_the_invariants():
    command = Command(TINY[5].argv, check_exact("3"))
    result = run.run_workload([command], 0, False, goldens={})
    assert result.failed == 1


def test_command_past_its_time_limit_is_killed_and_failed():
    result = run.run_workload(TINY[:1], 0, False, goldens={}, command_limit=0.01)
    (sample,) = result.plain[0]
    assert result.failed == 1
    assert "time limit" in sample.problems[0]


def test_input_of_a_failed_command_fails_its_consumer():
    producer = Command(TINY[1].argv, check_exact("wrong"))
    result = run.run_workload([producer, TINY[2]], 0, False, goldens={})
    assert result.failed == 2


def test_self_times_sum_to_at_most_the_traced_wall(traced):
    assert traced.failed == 0
    for group in traced.traced:
        for sample in group:
            self_total = sum(v["self_s"] for v in sample.report["layers"].values())
            assert 0 < self_total <= sample.report["wall"]
    metrics = run.per_layer_metrics(traced)
    assert 0 < metrics["trace.coverage"] <= 1


# Runs child.py with the tracer installed, then puts one original function
# back into verolink.cli's namespace: a binding site the tracer missed.
MISS_ONE_BINDING = """
import sys
sys.path.insert(0, {bench!r})
import child, tracer
install = tracer.install

def install_but_miss(t):
    import verolink.cli as cli
    original = getattr(cli, {name!r})
    install(t)
    setattr(cli, {name!r}, original)

tracer.install = install_but_miss
sys.exit(child.main(sys.argv[1:]))
"""


def traced_coverage(argv, miss=None):
    """Library self time over traced wall time of one traced child run."""
    bench = run.ROOT / "bench"
    script = (["-c", MISS_ONE_BINDING.format(bench=str(bench), name=miss)] if miss
              else [str(bench / "child.py")])
    proc = subprocess.run([sys.executable, *script, str(run.ROOT), "1", *argv],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stderr.splitlines()[-1].removeprefix(REPORT_PREFIX))
    return run.library_self_s(report["layers"]) / (report["end"] - report["ready"])


def test_a_missed_binding_site_lowers_coverage():
    # laurent-check spends most of its time in group_algebra_subintersection,
    # which cli calls through its own binding.
    argv = ["laurent-check", "-k", "4"]
    full = min(traced_coverage(argv) for _ in range(3))
    missed = max(traced_coverage(argv, "group_algebra_subintersection") for _ in range(3))
    assert missed < full - 0.1


def test_tracer_catches_names_imported_into_other_modules(traced):
    def layers(k):
        return traced.traced[k][0].report["layers"]
    # cli binds saturated_fiber_poly and render_poly in its own namespace.
    assert layers(1)["link.saturated"]["calls"] == 1
    assert layers(1)["poly.text"]["calls"] == 1
    # colon: parse_poly and colon_membership from cli, __mul__ on the class.
    assert layers(2)["verify.assemble"]["calls"] == 1
    assert layers(2)["poly.arith"]["calls"] > 0
    # verify imports link_generators and the fiber functions.
    assert layers(0)["link.saturated"]["calls"] == 1
    assert layers(0)["poly.character"]["calls"] > 0


def test_generators_are_timed_over_their_whole_iteration(traced):
    report = traced.traced[3][0].report
    degrees = workloads.degree_count(3, 4)
    assert report["layers"]["fibers.classify"]["calls"] == 1
    # degrees_up_to once, then one fiber per degree, all inside hilbert_table.
    assert report["layers"]["fibers.enumerate"]["calls"] == 1 + degrees
    assert report["counters"]["fibers.raw_calls"] == degrees


def test_per_layer_metrics_are_complete(traced):
    metrics = run.per_layer_metrics(traced)
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    records = workloads.degree_count(3, 4)
    assert metrics["verify.records"] == records
    assert metrics["exactlin.eliminate.per_record"] == metrics["exactlin.eliminate.calls"] / records
    assert metrics["exactlin.lattice.calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    design = json.loads((run.ROOT / "bench" / "design.json").read_text())
    assert list(design["layer_map"]) == [name for name, _ in run.PER_LAYER]
    assert list(design["workloads"]) == list(workloads.WORKLOADS)


def test_seed_changes_inputs_not_work():
    def argvs(seed):
        return [c.argv for name in workloads.WORKLOADS
                for c in workloads.WORKLOADS[name](seed)]
    a, b = argvs(1), argvs(2)
    assert argvs(1) == a
    assert [argv[:5] for argv in a] == [argv[:5] for argv in b]
    assert a != b


def test_main_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "oracle", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
