"""A fixed reference computation that measures how fast the machine is now.

The benchmark runs on a shared host that flips between a fast and a slow
speed within seconds, and whose share of slow time drifts from minute to
minute, in CPU time as well as wall time (README, "Normalized times").
Two runs of the same code made a few minutes apart therefore disagree by
more than any useful bound.  Each worker runs ``kernel()``
between ops, a few times a second, and each op's time is scaled by how
long the kernel took around it:

    normalized = measured * NOMINAL_MS / (kernel time near the op)

so the reported figure is the op's time on a machine on which the kernel
takes NOMINAL_MS.  The kernel never calls the program: a change to the
program moves the op times and not the kernel, so the scaled figures show
it, while a change in the host's speed moves both and cancels.

The kernel mixes what the program's own hot loops do: scalar float
arithmetic, tuple and set work in the interpreter, and numpy calls on
2- and 3-element arrays.
"""
from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# A round figure near the kernel's mean time on the 2-vCPU VM the
# README's figures come from (3.1 ms over 278 samples; single samples
# cluster near 1.9 and 3.5 ms).  Only a unit: it scales every normalized
# figure by the same constant, so normalized ms are close to measured ms.
NOMINAL_MS = 3.0
# Passes over the fixed work per kernel call: about 3 ms in all.
REPEAT = 2
# An op uses the kernel samples taken during it or within this many seconds
# of it: short enough to follow the host's changes, long enough to hold
# several samples (1 s gave the steadiest figures of 0.15, 0.3, 1 and 3 s).
WINDOW_S = 1.0
# Set-up uses the samples of the first this many seconds of the timed phase.
SETUP_WINDOW_S = 3.0
# A kernel sample is taken before an op when this long has passed since the last.
EVERY_S = 0.1

_PTS = [(math.cos(0.37 * k) * (1 + 0.1 * k), math.sin(0.37 * k) * (1 + 0.05 * k)) for k in range(40)]
_ARR = np.array(_PTS)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _work() -> float:
    acc = 0.0
    seen = set()
    n = len(_PTS)
    for i in range(n):
        a, b = _PTS[i], _PTS[(i + 1) % n]
        for j in range(i + 2, n):
            c, d = _PTS[j], _PTS[(j + 1) % n]
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            acc += math.copysign(1.0, _cross(a, b, c) * _cross(a, b, d))
    rot = np.eye(3)
    for k in range(60):
        s, c = math.sin(0.01 * k), math.cos(0.01 * k)
        rot = rot @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        acc += float(np.linalg.norm(_ARR[k % n] - _ARR[(k + 7) % n]))
    return acc + float(rot[0, 0])


def kernel() -> float:
    """Run the fixed work once; return its wall time in ms."""
    was = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(REPEAT):
        _work()
    ms = 1e3 * (time.perf_counter() - t0)
    if was:
        gc.enable()
    return ms


def sample_for(seconds: float) -> list[float]:
    """Kernel times in ms, back to back for ``seconds``, after one untimed call."""
    kernel()
    out = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        out.append(kernel())
    return out


class Clock:
    """Kernel samples taken during a timed phase, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the sample's start
        self.ms: list[float] = []
        self._last = -math.inf

    def maybe_sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= EVERY_S:
            self.times.append(now)
            self.ms.append(kernel())
            self._last = time.perf_counter()

    def near(self, start: float, end: float, reach: float) -> float:
        """Mean kernel ms of the samples from ``reach`` seconds before
        ``start`` to ``reach`` seconds after ``end`` (all, if none)."""
        close = [ms for ts, ms in zip(self.times, self.ms) if start - reach <= ts <= end + reach]
        return statistics.fmean(close or self.ms)

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns the time of an op into a normalized one."""
        return NOMINAL_MS / self.near(start, start + seconds, WINDOW_S)
