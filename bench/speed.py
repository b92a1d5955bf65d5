"""Durations scaled to a fixed machine speed.

The machine the benchmark runs on changes speed by up to 2x over seconds
and over minutes, as other tenants load the host. So the benchmark runs a
short, fixed piece of reference work before every timed lap (and once
after the last), and scales each lap by how long the reference took around
it: a lap's scaled duration is what it would have taken on a machine that
runs the reference in ``REFERENCE_S``.

The reference is a loop of small numpy calls, as the program's steps are;
it tracked the program's speed better than a plain-Python loop did. It is
benchmark code: no change to the program changes it, but a program change
that slows every caller in the process (a busy background thread, say)
slows the reference too and is partly scaled away.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the reference's median time on the 2-core x86_64 machine the
# baseline was measured on; scaled durations read as if every lap ran at
# that speed.
REFERENCE_S = 1.7e-3
# A lap is scaled by the median of the HALF_WINDOW reference times before
# it and the HALF_WINDOW after it, so one disturbed reference does not move it.
HALF_WINDOW = 6


def reference() -> np.ndarray:
    x = np.full((64, 24), 0.5)
    w = np.full((24, 24), 0.01)
    for _ in range(80):
        x = np.exp(-(x @ w))
        x = x / x.sum(axis=1, keepdims=True)
    return x


def scaled(laps: list[float], refs: list[float]) -> list[float]:
    """Each lap times REFERENCE_S over the median reference time around it.

    ``refs[i]`` is the reference run just before lap ``i``, so
    ``len(refs) == len(laps) + 1``.
    """
    if len(refs) != len(laps) + 1:
        raise ValueError(f"{len(laps)} laps need {len(laps) + 1} reference times, got {len(refs)}")
    out = []
    for i, lap in enumerate(laps):
        local = refs[max(0, i + 1 - HALF_WINDOW): i + 1 + HALF_WINDOW]
        out.append(lap * REFERENCE_S / statistics.median(local))
    return out


class Laps:
    """Times consecutive laps, running the reference before each one."""

    def __init__(self, clock=time.perf_counter, work=reference):
        self.clock = clock
        self.work = work
        self.laps: list[float] = []
        self.refs: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        before = self.clock()
        self.work()
        self._start = self.clock()
        self.refs.append(self._start - before)

    def lap(self) -> None:
        """End the current lap and start the next one."""
        self.laps.append(self.clock() - self._start)
        self.start()

    def scaled(self) -> list[float]:
        return scaled(self.laps, self.refs)
