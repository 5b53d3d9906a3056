"""Host probes: a fixed piece of work, timed around set-ups and windows.

On a shared host the same code runs slower for seconds to minutes at a
time, and a run cannot tell that from a slower program.  Two things
change, and the probe measures both:

* speed: the CPU's clock and what other tenants do to its caches make
  the same work take up to 1.6x longer.  ``setup_s`` is reported at a
  fixed reference speed: the time as measured, multiplied by
  ``REFERENCE_S`` over the probe's unit time measured just before and
  just after the set-up.  A set-up is single-threaded work of the
  probe's kind, and the scaled figure repeats better than the measured
  one (over ten seeds, spreads of 0.05-0.14 against 0.13-0.18).
* running share: the hypervisor takes the vCPU away from the guest
  (steal), and time passes without the program running at all.  The
  probe's thread CPU time over its wall time is the share of the time
  the vCPU ran it; the guest kernel accounts stolen time to no thread.
  Latency at a light load is one request's service time, stretched by
  1 / share, so ``p50_ms`` is reported with each nominal window's
  latencies multiplied by the share measured around it.  On a quiet
  host the share is 1 and the figure is the latency as measured.

The probe's work belongs to the benchmark, not to the program, so no
change to the program can move it; a program that gets faster or
slower moves a corrected time exactly as much as the measured one.
Both the corrected and the measured figures are printed.

The probe is the kind of work the served path spends its time on:
numpy calls on arrays of about a thousand elements, where the
interpreter and numpy's per-call overhead cost more than the
arithmetic (the kernels locate each object's segments one object at a
time).  Its time follows the backends' (correlation 0.89 with a
one-query EXACT3 batch over 300 ms windows), more closely than a
probe that sorts large arrays or builds dictionaries.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Median time of one probe unit on the reference host, a 2-vCPU
#: x86_64 sandbox (Python 3.11, numpy 2.4) at its usual speed.  Scaled
#: times read as if measured at that speed.
REFERENCE_S = 0.40e-3
#: Length of one probe burst; its result is the median unit time.
BURST_S = 0.04

_ARRAY = np.random.default_rng(20120801).random(1 << 16)


def _unit() -> float:
    total = 0.0
    for i in range(40):
        chunk = _ARRAY[i * 1000 : (i + 1) * 1000]
        total += float(np.clip(chunk, 0.1, 0.9).sum()) + float(chunk.max())
    return total


@dataclass(frozen=True)
class Probe:
    #: Median wall seconds of one unit over the burst.
    unit_s: float
    #: Thread CPU time over wall time, summed over the burst.
    running: float


def probe() -> Probe:
    """Time probe units for a ``BURST_S`` burst."""
    times = []
    cpu0, wall0 = time.thread_time(), time.perf_counter()
    burst_end = wall0 + BURST_S
    while True:
        start = time.perf_counter()
        _unit()
        end = time.perf_counter()
        times.append(end - start)
        if end >= burst_end and len(times) >= 5:
            running = (time.thread_time() - cpu0) / (end - wall0)
            return Probe(statistics.median(times), min(1.0, running))


class Speedometer:
    """Probes around timed work: :meth:`start` before it, :meth:`finish`
    after it, which gives the work's speed factor (reference unit time
    over the measured one) and running share."""

    def __init__(self) -> None:
        self.speeds = []
        self.running = []

    def start(self) -> Probe:
        return probe()

    def finish(self, before: Probe):
        after = probe()
        speed = REFERENCE_S / (0.5 * (before.unit_s + after.unit_s))
        running = 0.5 * (before.running + after.running)
        self.speeds.append(speed)
        self.running.append(running)
        return speed, running

    def median_speed(self) -> float:
        return statistics.median(self.speeds) if self.speeds else float("nan")

    def median_running(self) -> float:
        return statistics.median(self.running) if self.running else float("nan")
