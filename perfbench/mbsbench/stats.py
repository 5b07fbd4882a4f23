"""Percentiles with a sample-count rule, and small summary helpers."""
from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single slow sample could set the tail.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def min_samples(q: float) -> int:
    """The smallest sample count whose ``q``-th percentile may be reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it: a p99 needs 1000 samples, a p95 200 and a
    median 20.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    ordered = sorted(values)
    rank = q / 100.0 * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0 where the rule refuses (per-layer only)."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return 0.0

