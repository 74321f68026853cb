"""Latency summaries: the median of every sample, and tail percentiles
that refuse to speak for samples the run does not have."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the chosen rank: p90 needs 100 samples and p99
    1000.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {max(beyond, 0)} "
            f"beyond it; {MIN_BEYOND} needed"
        )
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
