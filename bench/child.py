"""Run one verolink CLI command in this fresh process and report its timings.

Usage: child.py ROOT TRACE [ARG...]

Imports ``verolink.cli`` from ROOT/src, optionally installs the tracer,
then calls ``verolink.cli.main(ARGS)`` with stdout passed through a
recorder that notes the time of the first write and the bytes written.
Untraced, it also runs the host speed gauge of ``gauge.py`` and reports
set-up, run and first-output times in reference seconds beside the raw
ones; traced, it does not, so probes add nothing to the layers' times.
The CLI's stdout goes to this process's stdout unchanged; the report is
the last line of stderr, prefixed with ``REPORT_PREFIX``, and the exit
code is the CLI's.  All times are ``time.monotonic()`` readings, which
the parent shares.  With no ARGs it only imports and reports: a set-up
time sample.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from gauge import Gauge

REPORT_PREFIX = "#bench-report "


class StdoutRecorder:
    """Text stream proxy noting the first write time and the bytes written."""

    def __init__(self, stream):
        self.stream = stream
        self.first_write = None
        self.bytes = 0

    def write(self, text: str) -> int:
        if self.first_write is None:
            self.first_write = time.monotonic()
        self.bytes += len(text.encode())
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main(argv: list[str]) -> int:
    root, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    src = root / "src"
    sys.path.insert(0, str(src))
    import verolink.cli
    if not Path(verolink.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"verolink imported from {verolink.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    recorder = StdoutRecorder(sys.stdout)
    sys.stdout = recorder
    ready = time.monotonic()
    gauge = None if trace else Gauge()
    start = gauge.start() if gauge else ready
    if not cli_args:
        code = 0
    elif tracer is None:
        code = verolink.cli.main(cli_args)
    else:
        root_span = tracer.open(tracing.ROOT_LAYER)
        try:
            code = verolink.cli.main(cli_args)
        finally:
            tracer.close(root_span)
    recorder.stream.flush()
    end = time.monotonic()
    first = recorder.first_write if recorder.first_write is not None else end
    report = {
        "ready": ready, "start": start, "end": end, "first_output": first,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if gauge is not None:
        gauge.stop()
        report.update(
            probe_s=gauge.probe_time(start, end),
            first_probe_s=gauge.probe_time(start, first),
            setup_factor=gauge.setup_factor(),
            wall_ref=gauge.reference_time(start, end),
            first_ref=gauge.reference_time(start, first))
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counters"] = dict(tracer.counters,
                                  **{"fibers.distinct_degrees": len(tracer.fiber_keys),
                                     "cli.stdout_bytes": recorder.bytes})
    sys.stderr.write(REPORT_PREFIX + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
