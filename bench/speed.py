"""Machine-speed reference for the timed loop.

The CPU speed a process sees on a shared host drifts, by up to 2x over a
few seconds, and every pure-Python op slows with it.  The loop therefore
runs a fixed reference kernel between ops, about once every 2 ms, and
scales each op's time by REF_NS over the kernel's median time in the same
and the previous quarter second.  A scaled time reads as the time on a
machine where the kernel takes REF_NS.  The kernel is benchmark code only;
no change to the library changes it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns
from typing import NamedTuple

REF_NS = 30_000.0
WINDOW_NS = 250_000_000
KERNEL_EVERY_NS = 2_000_000     # about 125 kernel samples per window
MIN_WINDOW_SAMPLES = 8


class _Point(NamedTuple):
    x: float
    y: float


def kernel() -> float:
    """Fixed pure-Python work: small tuples, float arithmetic, calls."""
    a11, a12, a21, a22 = 0.5, -1.25, 0.75, 0.3
    p = _Point(1.0, 0.5)
    acc = 0.0
    for k in range(40):
        p = _Point(a11 * p.x + a12 * p.y + 0.01 * k, a21 * p.x + a22 * p.y)
        acc += math.hypot(p.x, p.y)
        if acc > 1e6:
            acc = 0.0
    return acc


def timed_kernel() -> int:
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def sample(n: int = 20) -> list:
    """n kernel times taken now, to scale work done right beside them."""
    return [timed_kernel() for _ in range(n)]


def scaled(seconds: float, samples: list) -> float:
    """A time as it would read where the kernel takes REF_NS."""
    return seconds * REF_NS / statistics.median(samples)


class Calibration:
    """Kernel samples taken between ops, grouped by quarter-second window."""

    def __init__(self, start_ns: int):
        self.start_ns = start_ns
        self.done = 0
        self.samples = {}

    def window(self, t_ns: int) -> int:
        return (t_ns - self.start_ns) // WINDOW_NS

    def after_op(self, window: int, now_ns: int) -> None:
        """Catch up to one kernel per KERNEL_EVERY_NS since the loop started;
        the samples count for the window of the op just finished."""
        due = (now_ns - self.start_ns) // KERNEL_EVERY_NS
        while self.done < due:
            self.samples.setdefault(window, []).append(timed_kernel())
            self.done += 1

    def all_samples(self) -> list:
        return [ns for v in self.samples.values() for ns in v]

    def scale(self, raw_ns: list, windows: list) -> list:
        """Each op time times REF_NS over the kernel median of its window and
        the one before (the run's median where they hold too few samples).

        Kernels run after ops, so the window before brackets an op that
        fills its window on its own, such as a CLI child.
        """
        overall = statistics.median(self.all_samples())
        local = {}
        for w in set(windows):
            near = self.samples.get(w - 1, []) + self.samples.get(w, [])
            local[w] = statistics.median(near) if len(near) >= MIN_WINDOW_SAMPLES else overall
        return [ns * REF_NS / local[w] for ns, w in zip(raw_ns, windows)]

    def speed(self, windows=None) -> float:
        """Kernel median over REF_NS, run-wide or over the given windows:
        above 1 means a slower machine."""
        samples = (self.all_samples() if windows is None else
                   [ns for w in windows for ns in self.samples.get(w, [])])
        return statistics.median(samples or self.all_samples()) / REF_NS

