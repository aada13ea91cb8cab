"""Host speed probe: scale a time measured on a shared host to the host's
unloaded speed.

On a shared host the CPU that runs a worker switches, within seconds,
between its full speed and about half of it, as other tenants load the
machine.  A single scenario call therefore took anywhere from 1x to 2x its
unloaded time, and the share of slow seconds drifts from one minute to the
next.  The probe measures that share while the work runs: a background
thread, on the same CPU as the work, times a fixed pure-Python kernel
every ``PERIOD_S`` seconds.  The kernel's speed relative to
``REFERENCE_S`` is the host's speed at that moment, and the mean speed over
an interval turns the interval's wall time into the time the same work
takes at reference speed.

The worker pins itself to one CPU before it starts the probe, so probe and
work share a CPU even while numpy runs without the GIL.
"""

from __future__ import annotations

import math
import os
import threading
import time

# The kernel's time on an unloaded 2-vCPU Intel Xeon host (Python 3.11):
# the unit in which scaled times are given.
REFERENCE_S = 100e-6
PERIOD_S = 0.01
KERNEL_STEPS = 200


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A fixed mix of float arithmetic, small lists, dicts and tuples, the
    kind of interpreter work the scenarios do between numpy calls."""
    acc = 0.0
    for i in range(steps):
        x = [math.cos(i), math.sin(i)]
        d = {"v": x[0] * x[1], "g": (x[0] + 1.0, x[1] - 1.0)}
        acc += d["v"] + d["g"][0] * d["g"][1]
    return acc


def pin_to_one_cpu() -> int:
    """Restrict this process, and the threads it starts later, to the
    lowest CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostProbe:
    """Samples ``(start, duration)`` of the kernel until stopped."""

    def __init__(self, clock=time.perf_counter, work=kernel, period_s: float = PERIOD_S):
        self.clock = clock
        self.work = work
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = self.clock()
            self.work()
            self.samples.append((t0, self.clock() - t0))
            self._stop.wait(self.period_s)

    def start(self) -> "HostProbe":
        for _ in range(3):  # the first runs of new code are slower; keep them out
            self.work()
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1], 1.0 at reference speed.  Samples
        are about evenly spaced in time, so the mean of REFERENCE_S / duration
        is the share of reference-speed work per second; a sample the OS
        delayed reads as a slow moment and weighs little.  With no sample
        inside the interval, the samples nearest to it stand in."""
        inside = [d for s, d in self.samples if t0 <= s and s + d <= t1]
        if not inside and self.samples:
            mid = 0.5 * (t0 + t1)
            inside = [min(self.samples, key=lambda sd: abs(sd[0] - mid))[1]]
        if not inside:
            return 1.0
        return sum(REFERENCE_S / d for d in inside) / len(inside)
