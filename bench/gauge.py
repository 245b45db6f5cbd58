"""Host speed gauge: a fixed pure-Python probe timed all through a command.

On a shared host the speed of one vCPU drifts by a quarter or more over
seconds to minutes, and two vCPUs drift independently, so a probe run
before a command, or on another CPU, does not tell how fast the command
ran.  ``Gauge`` runs the probe in the command's own process, on a
SIGALRM every ``INTERVAL_S``, and converts each stretch of command time
between two probes to *reference seconds*: the stretch's wall time times
``REFERENCE_S`` over the local probe time.  A stretch in which the host
ran at its reference speed counts at its wall time; one in which the
probe took twice as long counts half.  Time spent in probes is left out.

The probe is deterministic and does not allocate containers, so it does
not advance the command's garbage collector.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds between probes while a command runs.
INTERVAL_S = 0.05
# The probe's duration at reference speed: about its median on a 2-vCPU Xeon
# (Sapphire Rapids) KVM guest on a shared host, Python 3.11.
REFERENCE_S = 0.0014
# Probes run after import, before timing starts: the first of them warm
# the interpreter's specialised code, the rest give set-up's speed.
WARMUP = 5
# Neighbouring probes whose median gives a stretch's local probe time.
WINDOW = 3

_TABLE = [0] * 4096
_KEYS = [(i & 63, i & 7) for i in range(512)]
_COUNTS = dict.fromkeys(_KEYS, 0)


def _mix(a: int, b: int) -> int:
    return a + b if a < b else a - b


def probe() -> None:
    """A fixed mix of interpreter work: integer arithmetic, list stores,
    dict lookups with tuple keys and function calls."""
    acc = 0
    table = _TABLE
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 0xFFF] = i
    keys, counts, total = _KEYS, _COUNTS, 0
    for i in range(1500):
        key = keys[i & 511]
        total = _mix(total, counts[key]) & 0xFFFF
        counts[key] = total


def timed_probe() -> tuple[float, float]:
    start = time.monotonic()
    probe()
    return start, time.monotonic()


class Gauge:
    """Probes taken during one command, and the reference time they imply."""

    def __init__(self) -> None:
        warm = [timed_probe() for _ in range(WARMUP)]
        # Set-up speed: the last warm-up probes, right after import.
        self.setup_probe_s = statistics.median(e - s for s, e in warm[2:])
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_) -> None:
        self.samples.append(timed_probe())

    def start(self) -> float:
        """Take the first probe and start the timer; return the start time."""
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return time.monotonic()

    def stop(self) -> None:
        """Stop the timer and take the last probe."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def setup_factor(self) -> float:
        return REFERENCE_S / self.setup_probe_s

    def probe_time(self, t0: float, t1: float) -> float:
        """Wall time spent in probes within [t0, t1]."""
        return sum(max(0.0, min(t1, e) - max(t0, s)) for s, e in self.samples)

    def reference_time(self, t0: float, t1: float) -> float:
        """Command time within [t0, t1], outside probes, in reference seconds."""
        durations = [e - s for s, e in self.samples]
        total = 0.0
        for i in range(len(self.samples) - 1):
            lo = max(t0, self.samples[i][1])
            hi = min(t1, self.samples[i + 1][0])
            if hi > lo:
                local = statistics.median(durations[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
                total += (hi - lo) * REFERENCE_S / local
        return total
