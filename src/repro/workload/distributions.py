"""Flow-size distributions.

The paper's default workload is a realistic heavy-tailed mix derived from
datacenter measurements (Benson et al.):

* 50% of flows are single-packet messages of 32 bytes to 1 KB (small RPCs,
  e.g. RDMA key-value lookups),
* 15% of flows are 200 KB to 3 MB (background/storage traffic) and carry most
  of the bytes,
* the remaining 35% fall in between.

The appendix also evaluates a uniform 500 KB-5 MB workload representing pure
storage/background traffic.  Sizes inside each band are drawn log-uniformly,
which preserves the "most flows small, most bytes in large flows" shape.
All distributions accept a ``scale`` factor so benchmarks can shrink flow
sizes while keeping the same shape (the simulator substitutes for the paper's
OMNET++ testbed, see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence, Tuple


class FlowSizeDistribution(Protocol):
    """Samples flow sizes in bytes."""

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size."""

    def mean_bytes(self) -> float:
        """Expected flow size (used to calibrate the arrival rate for a load)."""


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    if low <= 0 or high < low:
        raise ValueError(f"invalid log-uniform range [{low}, {high}]")
    if high == low:
        return low
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _log_uniform_mean(low: float, high: float) -> float:
    if high == low:
        return low
    return (high - low) / (math.log(high) - math.log(low))


@dataclass
class HeavyTailedSizes:
    """The paper's default heavy-tailed RPC + storage mix.

    ``bands`` is a list of ``(probability, low_bytes, high_bytes)`` tuples.
    The default bands follow §4.1; ``scale`` multiplies the byte ranges of the
    medium and large bands (small RPCs stay small so they remain single-packet
    messages).
    """

    scale: float = 1.0
    bands: Sequence[Tuple[float, float, float]] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bands is None:
            self.bands = (
                (0.50, 32, 1_000),                                  # single-packet RPCs
                (0.35, 1_000 * self.scale, 200_000 * self.scale),   # mid-size flows
                (0.15, 200_000 * self.scale, 3_000_000 * self.scale),  # storage/background
            )
        total = math.fsum(p for p, _, _ in self.bands)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"band probabilities must sum to 1 (got {total})")

    def sample(self, rng: random.Random) -> int:
        roll = rng.random()
        cumulative = 0.0
        for probability, low, high in self.bands:
            cumulative += probability
            if roll <= cumulative:
                return max(1, int(_log_uniform(rng, low, high)))
        probability, low, high = self.bands[-1]
        return max(1, int(_log_uniform(rng, low, high)))

    def mean_bytes(self) -> float:
        return math.fsum(p * _log_uniform_mean(low, high) for p, low, high in self.bands)


@dataclass
class UniformSizes:
    """Uniformly distributed flow sizes (the appendix's 500KB-5MB workload)."""

    low_bytes: float = 500_000
    high_bytes: float = 5_000_000

    def __post_init__(self) -> None:
        if self.low_bytes <= 0 or self.high_bytes < self.low_bytes:
            raise ValueError("invalid uniform size range")

    def sample(self, rng: random.Random) -> int:
        return max(1, int(rng.uniform(self.low_bytes, self.high_bytes)))

    def mean_bytes(self) -> float:
        return (self.low_bytes + self.high_bytes) / 2.0


@dataclass
class FixedSizes:
    """Every flow has the same size (used by unit tests and microbenchmarks)."""

    size_bytes: int = 100_000

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes

    def mean_bytes(self) -> float:
        return float(self.size_bytes)
