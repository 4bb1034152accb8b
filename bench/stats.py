"""Summary statistics with the rules the benchmark reports by."""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_MIN_BEYOND samples beyond it. With fewer
    than 20 samples no percentile qualifies and the median is reported; the
    returned count of samples beyond then says so."""
    n = len(values)
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return percentile(values, p), p, beyond(n, p)
    return percentile(values, 50.0), 50.0, beyond(n, 50.0)


def slot_latencies(samples, limit: float) -> dict:
    """Latency of each op slot over the passes of one run: the median of its
    samples, or the limit if any of its samples failed. Charging a failure
    the full limit makes turning a timeout into a fast error or a fast
    success read as a gain.

    ``samples`` maps a slot to its (seconds, ok) samples."""
    return {
        slot: median([s for s, _ in values]) if all(ok for _, ok in values) else limit
        for slot, values in samples.items()
    }


def median(values) -> float:
    return statistics.median(values)
