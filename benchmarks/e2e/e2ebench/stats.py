"""Sample statistics: medians with quartiles, and the tail the sample
supports.  No min-of-N anywhere — a timing is summarized over every
sample it has."""

from __future__ import annotations

import statistics

#: Candidate tail percentiles, lowest first.
TAILS = (90.0, 95.0, 99.0, 99.9, 99.99)


def quartiles(samples) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them
    (the single-sample case repeats the sample)."""
    samples = list(samples)
    if len(samples) < 2:
        return (samples[0],) * 3
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def tail(samples) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest percentile in
    :data:`TAILS` that still has at least ten samples beyond it, or
    None when even the lowest has fewer."""
    ordered = sorted(samples)
    best = None
    for percentile in TAILS:
        beyond = round(len(ordered) * (100.0 - percentile) / 100.0, 6)
        if beyond >= 10:
            index = min(len(ordered) - 1,
                        int(len(ordered) * percentile / 100.0))
            best = (percentile, ordered[index])
    return best
