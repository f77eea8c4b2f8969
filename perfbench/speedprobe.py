"""A probe of how fast the CPU runs the program while it runs.

On a shared host a virtual CPU's speed swings by up to 2x within seconds,
and each virtual CPU swings on its own, so neither a kernel timed between
commands nor one timed on another CPU tells how fast a command ran. This
probe samples the speed in the same process, at the same moments: a timer
on the process's CPU time raises a signal every ``INTERVAL_S``, and the
handler runs a small fixed kernel twice and times the second run. A
command's CPU seconds, less the probe's own, divided by the mean probe
time, times ``REFERENCE_S``, give the command's seconds on a host where
the probe takes ``REFERENCE_S``.

The kernel parses short comma-separated lines into a dict of lists: the
interpreter work the program does most, and, of the kernels tried, the one
whose slow spells best matched the program's. The probe imports only gc,
signal and time, which bibfactor loads anyway, so it can run while
``import bibfactor`` is timed; and no change to bibfactor can move it.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.02
# About the seconds one timed kernel run takes on a quiet 2-vCPU Intel Xeon
# VM (Python 3.11); only a unit, never re-measured.
REFERENCE_S = 0.00015

_LINES = [f"s{i % 50:03d},{i * 7 % 1000}" for i in range(400)]


def kernel():
    grouped = {}
    for line in _LINES:
        label, count = line.split(",")
        grouped.setdefault(label, []).append(int(count))
    return len(grouped)


def _timed_kernel():
    """(seconds of the second of two kernel runs, seconds of both).

    The first run brings the kernel's code and data back into the caches
    the program has just filled, so the timed run measures the CPU's speed
    rather than what the program left in its caches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        return end - middle, end - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Context manager: samples the speed while its block runs.

    Only the main thread may use it, and only one at a time.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0  # seconds the probe itself took inside the block

    def _handler(self, signum, frame):
        timed, spent = _timed_kernel()
        self.samples.append(timed)
        self.overhead_s += spent

    def __enter__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(_timed_kernel()[0])
        return False

    def reference_s(self, cpu_s):
        """``cpu_s`` measured around the block, less the probe's own time,
        in seconds on the reference host."""
        mean = sum(self.samples) / len(self.samples)
        return (cpu_s - self.overhead_s) * REFERENCE_S / mean
