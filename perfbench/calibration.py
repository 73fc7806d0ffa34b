"""Timings that cancel out the speed changes of a shared machine.

Other tenants of a small shared machine slow every program on it, by up to a
third, in phases that last from about a second to minutes, so that a whole run
can fall into a slow phase and its medians with it. A Clock therefore runs a
fixed reference loop (pure Python, small BLAS products and sorts, about 2 ms)
at least every INTERVAL seconds of the run: between stages, and, through
hooks on functions the package calls once a step or once a user, inside the
long ones. Each timed sample is scaled by REF_S over the mean time of the
references run around it, so that it reads as it would on a machine on which
the reference loop takes REF_S seconds. A reference that runs inside a sample
has its own time taken out of that sample.

The reference loop calls nothing of convrec, so a change to the package
cannot move it.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from spans import patched

# The reference's median on a 2-core x86 VM; it sets the unit of the scaled
# times, so that they read close to real seconds there.
REF_S = 2.0e-3
INTERVAL = 0.1  # at most this long between references, about 2% of the run
WINDOW = 2 * INTERVAL  # a sample is scaled by the references this close to it

_MATRIX = np.random.default_rng(0).random((64, 64))
_VECTOR = np.random.default_rng(1).random(4000)


def reference_loop() -> None:
    x = 0
    for i in range(20000):
        x += i
    for _ in range(40):
        _MATRIX @ _MATRIX
    for _ in range(10):
        np.argsort(_VECTOR)


@dataclass(frozen=True)
class Sample:
    start: float
    end: float
    seconds: float  # end - start, less the references run inside


class Clock:
    """Times calls; with ``reference`` off it only times them."""

    def __init__(self, reference: bool = True):
        self.reference = reference
        self.marks: list[float] = []  # midpoint of each reference run
        self.durations: list[float] = []
        self._last = -math.inf
        if reference:
            for _ in range(3):  # warm caches and the BLAS
                reference_loop()

    def tick(self) -> None:
        """Run the reference if INTERVAL has passed since the last one."""
        if self.reference and time.perf_counter() - self._last >= INTERVAL:
            start = time.perf_counter()
            reference_loop()
            self._last = time.perf_counter()
            self.marks.append((start + self._last) / 2)
            self.durations.append(self._last - start)

    def timed(self, fn, *args, **kwargs):
        self.tick()
        first = len(self.durations)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return Sample(start, end, end - start - sum(self.durations[first:])), result

    def hooks(self, targets) -> contextlib.ExitStack:
        """Tick on each call of the ``"module:function"`` targets, until the
        returned stack closes."""
        with contextlib.ExitStack() as stack:
            for target in targets:
                stack.enter_context(patched(target, self._ticking))
            return stack.pop_all()

    def _ticking(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return wrapper

    def seconds(self, samples: list[Sample]) -> list[float]:
        """Each sample's time on the reference machine."""
        if not self.reference:
            return [s.seconds for s in samples]
        marks = np.asarray(self.marks)
        total = np.concatenate([[0.0], np.cumsum(self.durations)])
        start = np.array([s.start for s in samples]) - WINDOW
        end = np.array([s.end for s in samples]) + WINDOW
        hi = np.searchsorted(marks, end, side="right")
        # timed() ticks first, so a reference ran at most INTERVAL before each start
        lo = np.minimum(np.searchsorted(marks, start, side="left"), hi - 1)
        mean = (total[hi] - total[lo]) / (hi - lo)
        return (np.array([s.seconds for s in samples]) * REF_S / mean).tolist()

    def slowdown(self) -> float:
        """The median reference time over REF_S: how slow the machine ran."""
        return float(np.median(self.durations)) / REF_S if self.durations else 1.0
