"""A deterministic, mergeable quantile sketch for latency distributions.

The paper's headline results are distributional -- average and tail FCT, and
Figure 8's tail CDF of single-packet message latency.  Computing those from
raw per-flow lists requires keeping every :class:`Flow` alive, which cannot
cross a process boundary cheaply and cannot be merged across seed replicas.
:class:`QuantileDigest` is the compact, *mergeable* representation that the
whole metrics pipeline carries instead (collector -> ``ResultRow`` -> sweep
cache -> report):

* **Exact mode.**  Up to ``max_exact`` positive samples are stored verbatim
  (zeros are counted separately), and every quantile is computed with the
  same linear-interpolation rule as :func:`repro.metrics.stats.percentile`
  -- bit-identical to the exact serial computation.
* **Bucket mode.**  Beyond ``max_exact`` samples the digest condenses into a
  fixed-resolution logarithmic histogram: a positive value ``v`` lands in
  bucket ``floor(log(v) / log(gamma))`` with ``gamma = (1 + relative_error)**2``,
  and quantile queries return the bucket's geometric midpoint
  ``gamma**(i + 0.5)``.

Error bound (documented and tested in ``tests/test_sketch.py``): a value in
bucket ``[gamma**i, gamma**(i+1))`` differs from the midpoint by at most a
factor ``sqrt(gamma) = 1 + relative_error``, so any reported quantile is
within ``relative_error`` (default **1%**) of *some* sample whose rank brackets
the requested one; there is no additional rank error.  For ``n >= 1000``
samples from a continuous distribution this keeps p99/p99.9 well inside the
2% envelope the Figure 8 acceptance check requires.  In exact mode the error
is zero.

Merge semantics: ``merge`` is commutative and associative -- folding the
same multiset of samples in any order or grouping yields identical quantile
state (samples/bucket counts, count, extrema, and hence identical
``percentile`` answers), because a value's bucket index depends only on the
value, the exact->bucket condensation is per-value deterministic, and the
mode (exact vs bucket) depends only on the total count.  Only the running
``sum`` is order-sensitive in its lowest floating-point bits.  The sweep's
:func:`~repro.experiments.sweep.aggregate_rows` relies on this to fold seed
replicas in whatever order the cache returns them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.stats import sorted_percentile, tail_fractions

__all__ = ["QuantileDigest", "merge_digest_dicts"]

#: Default ceiling on the exact-mode sample store.  Below this the digest is
#: lossless; fig-scale benchmark scenarios (a few hundred flows) never leave
#: exact mode, so their digests reproduce the serial computation bit-for-bit.
DEFAULT_MAX_EXACT = 1024

#: Default relative error of bucket-mode quantiles (see module docstring).
DEFAULT_RELATIVE_ERROR = 0.01


class QuantileDigest:
    """Mergeable quantile sketch over non-negative samples.

    Parameters
    ----------
    relative_error:
        Bucket-mode relative value error bound (``> 0``).  The bucket growth
        factor is ``gamma = (1 + relative_error)**2``.
    max_exact:
        Sample count up to which the digest stays exact (``>= 0``).

    Digests only merge with digests built with identical parameters.
    """

    __slots__ = (
        "relative_error",
        "max_exact",
        "_gamma",
        "_log_gamma",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_zeros",
        "_exact",
        "_buckets",
        "_sorted",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_exact: int = DEFAULT_MAX_EXACT,
    ) -> None:
        if relative_error <= 0.0:
            raise ValueError("relative_error must be positive")
        if max_exact < 0:
            raise ValueError("max_exact must be non-negative")
        self.relative_error = relative_error
        self.max_exact = max_exact
        self._gamma = (1.0 + relative_error) ** 2
        self._log_gamma = math.log(self._gamma)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._zeros = 0
        #: Positive samples while in exact mode; ``None`` once condensed.
        self._exact: Optional[List[float]] = []
        #: ``bucket index -> count`` once condensed; ``None`` in exact mode.
        self._buckets: Optional[Dict[int, int]] = None
        #: ``(count, samples)``: exact mode's samples, zeros included, as
        #: ``percentile`` sorted them when the digest held ``count``.  Every
        #: ``add`` and every non-empty ``merge`` moves the count, so a sort
        #: taken at another count is stale; ingestion never touches this.
        self._sorted: Tuple[int, List[float]] = (0, [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of samples absorbed (including zeros)."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:  # an empty digest is falsy, like a list
        return self._count > 0

    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still computed from verbatim samples."""
        return self._exact is not None

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("cannot take the mean of an empty digest")
        return self._sum / self._count

    @property
    def min(self) -> float:
        if self._min is None:
            raise ValueError("empty digest has no minimum")
        return self._min

    @property
    def max(self) -> float:
        if self._max is None:
            raise ValueError("empty digest has no maximum")
        return self._max

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Absorb one sample (non-negative; latencies and slowdowns are)."""
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"digest samples must be finite and >= 0, got {value!r}")
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if value == 0.0:
            self._zeros += 1
        elif self._exact is not None:
            self._exact.append(value)
        else:
            assert self._buckets is not None
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        if self._exact is not None and self._count > self.max_exact:
            self._condense()

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _bucket_index(self, value: float) -> int:
        return math.floor(math.log(value) / self._log_gamma)

    def _condense(self) -> None:
        """Switch from exact to bucket mode (per-value deterministic)."""
        assert self._exact is not None
        buckets: Dict[int, int] = {}
        for value in self._exact:
            index = self._bucket_index(value)
            buckets[index] = buckets.get(index, 0) + 1
        self._exact = None
        self._buckets = buckets
        self._sorted = (0, [])

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold ``other`` into this digest in place; returns ``self``.

        ``other`` is left untouched.  Raises :class:`ValueError` when the two
        digests were built with different parameters (their buckets would not
        line up).
        """
        if (other.relative_error, other.max_exact) != (self.relative_error, self.max_exact):
            raise ValueError(
                "cannot merge digests with different parameters: "
                f"({self.relative_error}, {self.max_exact}) vs "
                f"({other.relative_error}, {other.max_exact})"
            )
        self._count += other._count
        self._sum += other._sum
        for bound in (other._min, other._max):
            if bound is not None:
                self._min = bound if self._min is None else min(self._min, bound)
                self._max = bound if self._max is None else max(self._max, bound)
        self._zeros += other._zeros

        if self._exact is not None and other._exact is not None and self._count <= self.max_exact:
            self._exact.extend(other._exact)
            return self

        if self._exact is not None:
            self._condense()
        assert self._buckets is not None
        if other._exact is not None:
            for value in other._exact:
                index = self._bucket_index(value)
                self._buckets[index] = self._buckets.get(index, 0) + 1
        else:
            assert other._buckets is not None
            for index, bucket_count in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + bucket_count
        return self

    def copy(self) -> "QuantileDigest":
        """An independent deep copy (merging into it leaves ``self`` alone)."""
        clone = QuantileDigest(self.relative_error, self.max_exact)
        clone._count = self._count
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        clone._zeros = self._zeros
        clone._exact = list(self._exact) if self._exact is not None else None
        clone._buckets = dict(self._buckets) if self._buckets is not None else None
        return clone

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (``fraction`` in [0, 1]).

        Exact mode matches :func:`repro.metrics.stats.percentile` bit for
        bit; bucket mode returns the geometric midpoint of the containing
        bucket, clamped to the observed ``[min, max]`` range.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self._count == 0:
            raise ValueError("cannot take a percentile of an empty digest")

        if self._exact is not None:
            # The rule of ``stats.percentile``, over one sort per set of
            # samples: a tail CDF asks for many fractions of the same set.
            sorted_at, ordered = self._sorted
            if sorted_at != self._count:
                ordered = sorted([0.0] * self._zeros + self._exact)
                self._sorted = (self._count, ordered)
            return sorted_percentile(ordered, fraction)

        assert self._buckets is not None
        rank = fraction * (self._count - 1)
        cumulative = 0
        if self._zeros:
            cumulative += self._zeros
            if rank < cumulative:
                return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank < cumulative:
                midpoint = self._gamma ** (index + 0.5)
                return min(max(midpoint, self.min), self.max)
        return self.max

    def percentiles(self, fractions: Iterable[float]) -> List[float]:
        return [self.percentile(fraction) for fraction in fractions]

    def tail_cdf(
        self, start_fraction: float = 0.90, points: int = 40
    ) -> List[Tuple[float, float]]:
        """CDF points ``(value, fraction)`` over the tail, Figure 8 style."""
        return [
            (self.percentile(fraction), fraction)
            for fraction in tail_fractions(start_fraction, points)
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A canonical JSON-safe payload (inverse of :meth:`from_dict`).

        Exact samples are sorted and bucket pairs ordered by index, so two
        digests over the same multiset serialize with identical quantile
        state regardless of insertion or merge order; only the running
        ``sum`` can differ in its lowest floating-point bits (addition
        order), so do not byte-compare payloads across merge orders.
        """
        return {
            "relative_error": self.relative_error,
            "max_exact": self.max_exact,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "zeros": self._zeros,
            "exact": sorted(self._exact) if self._exact is not None else None,
            "buckets": (
                [[index, self._buckets[index]] for index in sorted(self._buckets)]
                if self._buckets is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileDigest":
        digest = cls(
            relative_error=payload["relative_error"],
            max_exact=payload["max_exact"],
        )
        digest._count = int(payload["count"])
        digest._sum = float(payload["sum"])
        digest._min = payload["min"]
        digest._max = payload["max"]
        digest._zeros = int(payload["zeros"])
        exact = payload.get("exact")
        buckets = payload.get("buckets")
        if (exact is None) == (buckets is None):
            raise ValueError("digest payload must carry exactly one of exact/buckets")
        digest._exact = [float(value) for value in exact] if exact is not None else None
        digest._buckets = (
            {int(index): int(bucket_count) for index, bucket_count in buckets}
            if buckets is not None
            else None
        )
        return digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileDigest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        mode = "exact" if self.is_exact else "buckets"
        return (
            f"QuantileDigest(count={self._count}, mode={mode}, "
            f"relative_error={self.relative_error}, max_exact={self.max_exact})"
        )


def merge_digest_dicts(payloads: Iterable[Optional[Dict[str, Any]]]) -> Optional[QuantileDigest]:
    """Merge serialized digests, skipping ``None`` entries.

    The reduction the sweep aggregator uses on cached rows: returns ``None``
    when no payload carries a digest, otherwise one merged
    :class:`QuantileDigest`.
    """
    merged: Optional[QuantileDigest] = None
    for payload in payloads:
        if payload is None:
            continue
        digest = QuantileDigest.from_dict(payload)
        merged = digest if merged is None else merged.merge(digest)
    return merged
