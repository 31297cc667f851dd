"""Calibration of the benchmark's time metrics against the machine's speed.

The 2-vCPU virtual machines this benchmark was built on change speed by up to
2x for seconds at a time; a fixed pure-Python loop shows a 27-37%
interquartile spread.  Every op is therefore timed together with the speed
of the machine while it ran, measured with fixed interpreter-bound work:

* ``Sampler`` runs a small slice of that work every 5 ms *inside* the op's
  process (the worker, or the CLI process), from a timer signal, so an op
  is calibrated by the speed it actually met.  The slices' own time is
  taken out of the op's time.
* ``probe()`` runs just before and just after the op.  It calibrates only
  an op too short to have met a slice.

An op's calibrated time is its time scaled to the reference speed (see
``calibrated``).  The work is benchmark code, untouched by changes to
``tailbounds``, so a faster program still reads faster.  On twelve runs
spread over three workloads in a noisy phase, the slices and probes together
(20 ms apart at the time) took the run-to-run spread of wall_s from 9-15% to
4-5%, against the probes alone.  Slicing every 5 ms and calibrating by the
slices alone then took the spread of one op's time between replicas from
7.9% to 5.8%, against 12.3% uncalibrated.
"""

from __future__ import annotations

import math
import signal
import time

# medians on the reference machine (2 vCPU, Python 3.11.7)
REF_PROBE_S = 0.0020
REF_SLICE_S = 0.0002
SLICE_EVERY_S = 0.005


def _work(n: int) -> float:
    # pure Python, so that a CLI process can sample before it imports numpy
    s = 0.0
    for k in range(n):
        x = k * 1e-3
        s += math.exp(-x) * x + math.log1p(x) * max(x, 0.5)
    return s


def probe() -> float:
    """Median time of three fixed chunks: how fast the machine runs now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work(6000)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Sampler:
    """Times a slice of fixed work every 5 ms while active (main thread)."""

    def __init__(self):
        self.slices: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work(600)
        self.slices.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.slices = []
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def calibrated(seconds: float, probes: list[float], slices: list[float] = ()) -> float:
    """``seconds`` scaled to the reference speed: by the slices taken while
    the op ran, or by the probes around it when it met no slice."""
    if slices:
        return seconds * len(slices) * REF_SLICE_S / sum(slices)
    return seconds * len(probes) * REF_PROBE_S / sum(probes)
