"""Statistical helpers for the paper's three headline metrics.

The paper reports (i) average slowdown, (ii) average flow completion time and
(iii) 99th-percentile (tail) FCT, plus tail CDFs of single-packet message
latency for Figure 8.  The per-run values come from the collector's streaming
digests (:mod:`repro.metrics.sketch`); this module holds the percentile rule
they share and the across-replica statistics of the sweep aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    return sorted_percentile(sorted(values), fraction)


def sorted_percentile(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` of values already sorted ascending, unchecked:
    ``ordered`` must be non-empty and ``fraction`` within [0, 1]."""
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class MetricSummary:
    """The paper's three headline metrics over a set of flows."""

    avg_slowdown: float
    avg_fct: float
    tail_fct: float
    num_flows: int


def tail_fractions(start_fraction: float = 0.90, points: int = 50) -> List[float]:
    """The evenly spaced cumulative fractions a tail CDF is sampled at.

    The grid of :meth:`~repro.metrics.sketch.QuantileDigest.tail_cdf`.
    The last point is clamped to 0.999: the degenerate 100th
    percentile only reads noise from a single maximum.
    """
    if points < 2:
        raise ValueError("need at least two CDF points")
    fractions = [
        start_fraction + (1.0 - start_fraction) * i / (points - 1) for i in range(points)
    ]
    fractions[-1] = min(fractions[-1], 0.999)
    return fractions


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input).  ``math.fsum``, not
    ``sum``: CPython 3.12 made ``sum()`` of floats compensated, so a plain
    sum would read differently on the interpreters CI runs."""
    values = list(values)
    if not values:
        raise ValueError("cannot take the mean of an empty sequence")
    return math.fsum(values) / len(values)


def stderr(values: Iterable[float]) -> float:
    """Standard error of the mean: ``s / sqrt(n)`` with the sample (n-1)
    standard deviation.  0.0 for fewer than two samples (one replica gives
    no spread information), so single-seed sweeps stay well-defined.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        raise ValueError("cannot take the standard error of an empty sequence")
    if n < 2:
        return 0.0
    m = math.fsum(values) / n
    variance = math.fsum((v - m) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance / n)


#: Two-sided 95% Student-t critical values by degrees of freedom.  Seed
#: replica counts are small (3-10), where the normal 1.96 would understate
#: the interval badly (df=2 needs 4.30).
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value (normal 1.96 beyond 30 dof)."""
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return _T_CRITICAL_95.get(df, 1.960)


def ci95_half_width(values: Iterable[float]) -> float:
    """Half-width of the t-based 95% confidence interval on the mean.

    ``mean +/- ci95_half_width`` brackets the true mean at 95% confidence
    under the usual normal-replicate assumption.  0.0 for a single sample.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0 if values else _raise_empty()
    return t_critical_95(len(values) - 1) * stderr(values)


def _raise_empty() -> float:
    raise ValueError("cannot take a confidence interval of an empty sequence")
