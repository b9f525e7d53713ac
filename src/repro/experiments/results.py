"""The one record of an experiment's outcome.

:class:`ResultRow` is the flat record that the sweep subsystem ships between
worker processes and stores in the on-disk cache: plain strings, numbers,
booleans and JSON-safe digest payloads only, so it pickles in microseconds
and round-trips through JSON.  It carries serialized
:class:`~repro.metrics.sketch.QuantileDigest` sketches of the FCT and
single-packet-latency distributions so tail metrics survive process
boundaries, disk caching and seed aggregation; the sketch module is imported
only when a digest view decodes one, so reading and reporting rows loads it
only when a report needs a distribution.

What :func:`~repro.experiments.runner.run_experiment` returns,
:class:`~repro.experiments.runner.ExperimentResult`, *is* this row plus the
live collector and flows.  It lives with the runner, its only producer, so
a process that only reads rows never builds that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.metrics.stats import MetricSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.sketch import QuantileDigest


@dataclass(frozen=True)
class ResultRow:
    """Flat, immutable outcome of one simulation run.

    Every field is a JSON-representable scalar; see :meth:`to_dict` /
    :meth:`from_dict`.
    """

    # --- identity ---------------------------------------------------------
    label: str
    name: str
    fingerprint: str
    transport: str
    congestion_control: str
    topology: str
    pfc_enabled: bool
    seed: int

    # --- headline metrics (the paper's three, over completed flows) -------
    avg_slowdown: float
    avg_fct_s: float
    tail_fct_s: float
    num_flows: int

    # --- completion accounting --------------------------------------------
    flows_total: int
    flows_completed: int

    # --- simulation / fabric counters --------------------------------------
    sim_time_s: float
    events_processed: int
    packets_dropped: int
    pause_frames: int
    packets_forwarded: int
    data_packets_sent: int
    retransmissions: int
    timeouts: int

    # --- PFC deadlock detection (§2's circular buffer dependency) -----------
    #: Wait-for-graph cycles observed by the online detector (0 on rows
    #: predating the detector, and always 0 when PFC is disabled).
    deadlock_events: int = 0
    #: Simulation time of the first deadlock event (``None`` if none fired).
    time_to_deadlock_s: Optional[float] = None

    # --- fault injection / recovery (``ExperimentConfig.fault_plan``) -------
    #: True when the run carried a non-empty fault plan (0/None defaults on
    #: all of these keep rows cached before fault injection deserializable).
    faults_enabled: bool = False
    #: Packets dropped by injected faults (flap + corruption), counted
    #: separately from switch buffer drops.
    fault_injected_drops: int = 0
    #: Retransmissions triggered while a fault window was open.
    retransmissions_during_fault: int = 0
    #: Last-fault-end to first full-goodput instant; ``None`` if never.
    recovery_time_s: Optional[float] = None

    # --- optional incast / cross-traffic metrics (§4.4.3) ------------------
    incast_rct_s: Optional[float] = None
    background_avg_slowdown: Optional[float] = None
    background_avg_fct_s: Optional[float] = None
    background_tail_fct_s: Optional[float] = None
    background_num_flows: Optional[int] = None

    # --- mergeable latency digests -----------------------------------------
    #: Serialized :class:`~repro.metrics.sketch.QuantileDigest` payloads
    #: (``QuantileDigest.to_dict()``): plain JSON-safe dicts, so the row still
    #: pickles cheaply and round-trips through the sweep cache.  ``None`` on
    #: rows predating the digest pipeline.  Excluded from ``__hash__`` (dicts
    #: are unhashable) so rows stay usable in sets/dict keys; they still
    #: participate in ``==``.
    fct_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    #: Digest over single-packet message FCTs only (Figure 8's metric).
    single_packet_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    #: §4.4 fabric observability (``ExperimentConfig.fabric_digests``):
    #: per-switch input-port occupancy sampled at every enqueue, and the
    #: duration of every PFC pause episode across switch and host ports.
    #: ``None`` when the run did not collect them.
    queue_depth_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    pfc_pause_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    #: Fault-run recovery observables: per-time-bin goodput (bits/s) over
    #: the whole run, and per-flow total stall seconds.  ``None`` on
    #: fault-free rows.
    goodput_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    stall_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)
    #: Per-flow c-latency ratios -- FCT over the path's speed-of-light
    #: propagation bound (``ExperimentConfig.c_latency_ratios``).  ``None``
    #: when the run did not collect them.
    c_latency_digest: Optional[Dict[str, Any]] = field(default=None, hash=False)

    # ------------------------------------------------------------------
    # Headline views
    # ------------------------------------------------------------------
    @property
    def summary(self) -> MetricSummary:
        """The headline metrics in :class:`MetricSummary` form."""
        return MetricSummary(
            avg_slowdown=self.avg_slowdown,
            avg_fct=self.avg_fct_s,
            tail_fct=self.tail_fct_s,
            num_flows=self.num_flows,
        )

    @property
    def background_summary(self) -> Optional[MetricSummary]:
        """Metrics restricted to background traffic, when recorded."""
        if self.background_avg_slowdown is None:
            return None
        return MetricSummary(
            avg_slowdown=self.background_avg_slowdown,
            avg_fct=self.background_avg_fct_s or 0.0,
            tail_fct=self.background_tail_fct_s or 0.0,
            num_flows=self.background_num_flows or 0,
        )

    @property
    def drop_rate(self) -> float:
        """Dropped packets as a fraction of data packets sent."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.data_packets_sent

    def completion_fraction(self) -> float:
        """Fraction of injected flows that completed."""
        if self.flows_total == 0:
            return 0.0
        return self.flows_completed / self.flows_total

    # ------------------------------------------------------------------
    # Digest views
    # ------------------------------------------------------------------
    @cached_property
    def fct_distribution(self) -> Optional[QuantileDigest]:
        """The FCT digest, deserialized (``None`` on pre-digest rows)."""
        return _decode(self.fct_digest)

    @cached_property
    def single_packet_distribution(self) -> Optional[QuantileDigest]:
        """The single-packet message latency digest, deserialized."""
        return _decode(self.single_packet_digest)

    @cached_property
    def queue_depth_distribution(self) -> Optional[QuantileDigest]:
        """Pooled per-switch queue-depth digest (``None`` unless collected)."""
        return _decode(self.queue_depth_digest)

    @cached_property
    def pfc_pause_distribution(self) -> Optional[QuantileDigest]:
        """PFC pause-episode duration digest (``None`` unless collected)."""
        return _decode(self.pfc_pause_digest)

    @property
    def single_packet_count(self) -> int:
        """Completed single-packet messages (0 when the digest is absent)."""
        digest = self.single_packet_distribution
        return digest.count if digest is not None else 0

    def fct_percentile(self, fraction: float) -> float:
        """Any FCT percentile, from the digest (exact for small samples)."""
        digest = self.fct_distribution
        if digest is None or digest.count == 0:
            raise ValueError(f"row {self.label!r} carries no FCT digest")
        return digest.percentile(fraction)

    def single_packet_percentile(self, fraction: float) -> float:
        """Single-packet latency percentile (Figure 8's y axis)."""
        digest = self.single_packet_distribution
        if digest is None or digest.count == 0:
            raise ValueError(f"row {self.label!r} carries no single-packet digest")
        return digest.percentile(fraction)

    # ------------------------------------------------------------------
    # Construction and serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (inverse of :meth:`from_dict`): the fields in
        declaration order, digests copied, so it equals
        ``dataclasses.asdict(self)`` without ``deepcopy``'s cost."""
        return {name: _json_copy(getattr(self, name)) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultRow":
        """Rebuild a row from :meth:`to_dict` output (extra keys rejected)."""
        return cls(**data)


_FIELD_NAMES = tuple(spec.name for spec in fields(ResultRow))


def _decode(payload: Optional[Dict[str, Any]]) -> Optional[QuantileDigest]:
    """A digest payload decoded (``None`` and an empty payload give
    ``None``).  The sketch module is imported here, where a digest is
    decoded, so reading and reporting rows does not load it."""
    if not payload:
        return None
    from repro.metrics.sketch import QuantileDigest

    return QuantileDigest.from_dict(payload)


def _json_copy(value: Any) -> Any:
    """``value`` with every dict and list in it copied: a caller mutating
    a :meth:`ResultRow.to_dict` digest must not reach the frozen row."""
    if type(value) is dict:
        return {key: _json_copy(item) for key, item in value.items()}
    if type(value) is list:
        return [_json_copy(item) for item in value]
    return value
