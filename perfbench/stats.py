"""Latency summaries: the median, the quartiles and the highest percentile
with ten samples beyond it."""

from __future__ import annotations

import statistics

# a tail value needs at least this many samples above it to mean anything
TAIL_SAMPLES_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_SAMPLES_BEYOND samples above it, and its percentile.

    With fewer than 2 * TAIL_SAMPLES_BEYOND + 1 samples no rank at or
    above the median has enough samples beyond it, so the median itself
    is returned with percentile 50: a run that short has no measured tail.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 1 - TAIL_SAMPLES_BEYOND
    if rank < (n - 1) / 2:
        return median(values), 50.0
    return ordered[rank], 100.0 * rank / (n - 1)



def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartile; a single sample is both."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3
