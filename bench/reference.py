"""Read op times at one fixed host speed, with a reference kernel.

On a shared VM the speed of a core moves with what other tenants do. Times
of back-to-back runs of a 2 ms kernel varied with a coefficient of variation
of 0.5, correlated over 10-40 ms; and a whole 50-second run could be
1.3-1.5x slower than the next, in CPU time as much as in wall time, for
every op alike. So the benchmark runs a fixed kernel between every two op
runs, and divides an op run's CPU time by the mean time of the two kernel
runs around it. Over windows of a run in which raw times of short ops moved
by 1.45x, that ratio moved by 2-4%. Times are reported as ratio x
``NOMINAL_S``: as if the host always ran at the speed at which the kernel
takes ``NOMINAL_S``.

The kernel does the kind of work the solver does (small exact rationals,
tuples, dict updates, integer products) and imports nothing from symcones,
so a change to symcones moves the ratio by its own effect.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the CPU time of one kernel call on the 2-core VM the bounds were
# tuned on, in its fast phase. Only ratios to it matter.
NOMINAL_S = 0.002
KERNEL_STEPS = 200


def kernel() -> tuple[Fraction, int]:
    seen: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for i in range(KERNEL_STEPS):
        v = (i % 7 - 3, i % 5 - 2, i % 11 - 5, i % 13 - 6)
        d = v[0] * v[3] - v[1] * v[2] or 1
        w = tuple(Fraction(a, d) for a in v)
        total += w[0] * w[1] - w[2]
        key = tuple(2 * a + 1 for a in v)
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


def time_kernel() -> float:
    """CPU seconds of one kernel call."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


class Clock:
    """Kernel runs between op runs, and the scaling of each op run by them.

    ``tick()`` runs the kernel once, right after an op run, and returns the
    index of that kernel run; the kernel run before the op is the one at the
    index before. ``scale`` reads the op run's CPU time at the nominal speed,
    by the mean time of those two kernel runs. (Medians over wider windows
    of kernel runs tracked the host's speed no better for long ops, and
    worse for short ones.)"""

    def __init__(self):
        self.kernel_times = [time_kernel()]

    def tick(self) -> int:
        self.kernel_times.append(time_kernel())
        return len(self.kernel_times) - 1

    def scale(self, seconds: float, after: int) -> float:
        around = (self.kernel_times[after - 1] + self.kernel_times[after]) / 2
        return seconds * NOMINAL_S / around
