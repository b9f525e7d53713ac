"""Per-flow metric collection.

The collector computes, for every completed flow, its flow completion time
and its *slowdown*: the FCT divided by the time the flow would have taken to
traverse its path at line rate in an empty network (one store-and-forward
MTU per hop plus propagation plus transmission of the whole flow at the
bottleneck rate).

Completions feed streaming accumulators (:class:`GroupStats`, one per
workload group plus one over all flows): a count, left-to-right running sums
for the means, and mergeable :class:`~repro.metrics.sketch.QuantileDigest`
sketches of the FCT and single-packet latency distributions.  They
are the only representation of a run's flow-level metrics: compact,
serializable and mergeable across seed replicas, and what
:class:`~repro.experiments.results.ResultRow` exports through the sweep
cache.  No per-flow record outlives its completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.transport import Flow
from repro.metrics.recovery import RecoveryTracker
from repro.metrics.sketch import QuantileDigest
from repro.metrics.stats import MetricSummary
from repro.sim.deadlock import PfcDeadlockDetector
from repro.sim.packet import DEFAULT_HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network


@dataclass
class GroupStats:
    """Streaming accumulator over one group of completed flows.

    Everything here is O(1) per flow and mergeable: left-to-right running
    sums for the means, quantile digests for the distributions.
    """

    count: int = 0
    fct_sum: float = 0.0
    slowdown_sum: float = 0.0
    fct_digest: QuantileDigest = field(default_factory=QuantileDigest)
    #: FCTs of single-packet messages only (Figure 8's latency metric).
    single_packet_digest: QuantileDigest = field(default_factory=QuantileDigest)

    def observe(self, fct: float, slowdown: float, single_packet: bool) -> None:
        self.count += 1
        self.fct_sum += fct
        self.slowdown_sum += slowdown
        self.fct_digest.add(fct)
        if single_packet:
            self.single_packet_digest.add(fct)

    @property
    def avg_fct(self) -> float:
        if self.count == 0:
            raise ValueError("no flows observed")
        return self.fct_sum / self.count

    @property
    def avg_slowdown(self) -> float:
        if self.count == 0:
            raise ValueError("no flows observed")
        return self.slowdown_sum / self.count

    def summary(self, tail_fraction: float = 0.99) -> MetricSummary:
        """Headline metrics from the streaming state: means from the running
        sums, tail from the FCT digest (exact while the digest is in exact
        mode, within its documented error bound beyond)."""
        if self.count == 0:
            raise ValueError("no flows observed")
        return MetricSummary(
            avg_slowdown=self.avg_slowdown,
            avg_fct=self.avg_fct,
            tail_fct=self.fct_digest.percentile(tail_fraction),
            num_flows=self.count,
        )


class MetricsCollector:
    """Accumulates completed flows and produces paper-style summaries."""

    def __init__(
        self,
        network: "Network",
        mtu_bytes: int = 1000,
        header_bytes: int = DEFAULT_HEADER_BYTES,
    ) -> None:
        self.network = network
        self.mtu_bytes = mtu_bytes
        self.header_bytes = header_bytes
        #: Streaming accumulators: ``None`` covers all flows, a string key
        #: covers one workload group (``Flow.group``).
        self.streams: Dict[Optional[str], GroupStats] = {None: GroupStats()}
        #: Per-flow c-latency ratio digest; ``None`` until
        #: :meth:`install_c_latency_probe` attaches it.
        self._c_latency_digest: Optional[QuantileDigest] = None
        #: Per-switch queue-depth digests, in switch order; ``None`` until
        #: :meth:`install_fabric_probes` attaches them.
        self._switch_depth_digests: Optional[List[QuantileDigest]] = None
        #: Per-output-port PFC pause-duration digests (switches and hosts).
        self._port_pause_digests: Optional[List[QuantileDigest]] = None
        #: Online PFC deadlock detector; ``None`` until
        #: :meth:`install_deadlock_detector` attaches it.
        self.deadlock_detector = None
        #: Recovery tracker for fault-enabled runs; ``None`` until
        #: :meth:`install_recovery_probes` attaches it.
        self.recovery_tracker = None

    # ------------------------------------------------------------------
    def path_bounds(self, flow: Flow) -> Tuple[float, float]:
        """``(ideal FCT, one-way propagation delay)`` of ``flow``'s path: its
        completion time at line rate on an empty network, and the
        speed-of-light denominator of the c-latency ratio."""
        hops, bandwidth, prop_delay = self.network.path_properties(
            flow.src, flow.dst, flow.flow_id
        )
        packets = flow.num_packets(self.mtu_bytes)
        wire_bytes = flow.size_bytes + packets * self.header_bytes
        transmission = wire_bytes * 8.0 / bandwidth
        # Store-and-forward of the first packet across the remaining hops.
        per_hop_packet = (min(self.mtu_bytes, flow.size_bytes) + self.header_bytes) * 8.0 / bandwidth
        pipeline = (hops - 1) * per_hop_packet if hops > 1 else 0.0
        return transmission + prop_delay + pipeline, prop_delay

    def on_flow_complete(self, flow: Flow, now: float) -> None:
        """Record a completed flow (wired as the receiver completion callback)."""
        if flow.completion_time is None:
            flow.completion_time = now
        fct = flow.fct()
        ideal, prop = self.path_bounds(flow)
        slowdown = max(1.0, fct / ideal) if ideal > 0 else float("inf")
        single_packet = flow.num_packets(self.mtu_bytes) == 1
        self.streams[None].observe(fct, slowdown, single_packet)
        if self._c_latency_digest is not None and prop > 0:
            ratio = fct / prop
            if math.isfinite(ratio):
                self._c_latency_digest.add(ratio)
        group_stats = self.streams.get(flow.group)
        if group_stats is None:
            group_stats = self.streams[flow.group] = GroupStats()
        group_stats.observe(fct, slowdown, single_packet)

    # ------------------------------------------------------------------
    # Fabric observability (§4.4 congestion spreading)
    # ------------------------------------------------------------------
    def install_fabric_probes(self) -> None:
        """Attach queue-depth / pause-duration digests across the fabric.

        One :class:`QuantileDigest` per switch samples the enqueueing input
        port's occupancy on every accepted packet; one per output port
        (switch ports and host NIC uplinks -- PFC pauses innocent hosts
        too, which is exactly the congestion spreading §4.4 studies)
        records the duration of every pause episode.  Call once, after the
        network is built and before the simulation runs.  Pure observation:
        it adds no events and consumes no randomness, so enabling it leaves
        results byte-identical.
        """
        self._switch_depth_digests = []
        self._port_pause_digests = []
        for switch in self.network.switches.values():
            digest = QuantileDigest()
            switch.queue_depth_digest = digest
            self._switch_depth_digests.append(digest)
        for port in self.network.output_ports():
            digest = QuantileDigest()
            port.pause_digest = digest
            self._port_pause_digests.append(digest)

    def install_c_latency_probe(self) -> None:
        """Attach the c-latency-ratio digest (§"Speed of Light Internet").

        Every completed flow contributes ``FCT / path propagation delay`` --
        its completion time over the speed-of-light lower bound implied by
        the topology's hop delays.  On propagation-dominated (WAN) fabrics
        this is the headline tail metric; on intra-DC fabrics it is
        serialization-dominated and mostly tracks slowdown.  Pure
        observation, like the fabric probes: no events, no randomness.
        Call once, before the run (enabled by
        ``ExperimentConfig.c_latency_ratios``).
        """
        self._c_latency_digest = QuantileDigest()

    def c_latency_digest(self) -> Optional[QuantileDigest]:
        """Per-flow c-latency ratios (``None`` unless the probe is installed)."""
        return self._c_latency_digest

    def install_deadlock_detector(self):
        """Attach a :class:`~repro.sim.deadlock.PfcDeadlockDetector` fabric-wide.

        Watches every output port's PFC pause state for wait-for cycles
        (the paper's §2 circular-buffer-dependency deadlocks).  Like
        :meth:`install_fabric_probes` this is pure observation -- no events,
        no randomness -- so it is installed unconditionally by the runner.
        Call once, after the network is built and before the run.
        """
        detector = PfcDeadlockDetector()
        detector.install(self.network)
        self.deadlock_detector = detector
        return detector

    def install_recovery_probes(self, bin_s: float, stall_threshold_s: float):
        """Attach a :class:`~repro.metrics.recovery.RecoveryTracker` to every
        host downlink (goodput timeline, per-flow stall gaps).

        Must be installed *before* the fault engine taps the same links,
        so injected drops never count as delivered goodput.
        Pure observation otherwise: no events, no randomness.
        """
        tracker = RecoveryTracker(
            self.network.sim, bin_s=bin_s, stall_threshold_s=stall_threshold_s
        )
        tracker.install(self.network)
        self.recovery_tracker = tracker
        return tracker

    def goodput_timeline_digest(self) -> Optional[QuantileDigest]:
        """Per-bin goodput over the run (``None`` without recovery probes)."""
        tracker = self.recovery_tracker
        return None if tracker is None else tracker.goodput_timeline_digest()

    def flow_stall_digest(self) -> Optional[QuantileDigest]:
        """Per-flow stall seconds (``None`` without recovery probes)."""
        tracker = self.recovery_tracker
        return None if tracker is None else tracker.flow_stall_digest()

    @property
    def deadlock_events(self) -> int:
        """Wait-for cycles observed (0 when no detector is installed)."""
        detector = self.deadlock_detector
        return 0 if detector is None else detector.deadlock_events

    @property
    def time_to_deadlock_s(self) -> Optional[float]:
        """Simulation time of the first deadlock event, if any."""
        detector = self.deadlock_detector
        return None if detector is None else detector.time_to_deadlock_s

    @staticmethod
    def _merge_probe_digests(
        digests: Optional[List[QuantileDigest]],
    ) -> Optional[QuantileDigest]:
        if digests is None:
            return None
        merged = QuantileDigest()
        for digest in digests:
            merged.merge(digest)
        return merged

    def fabric_queue_depth_digest(self) -> Optional[QuantileDigest]:
        """Queue-depth samples pooled over every switch (``None`` when
        probes were never installed; per-switch digests stay readable on
        each :class:`~repro.sim.switch.Switch`)."""
        return self._merge_probe_digests(self._switch_depth_digests)

    def fabric_pfc_pause_digest(self) -> Optional[QuantileDigest]:
        """PFC pause durations pooled over every output port."""
        return self._merge_probe_digests(self._port_pause_digests)

    # ------------------------------------------------------------------
    # Streaming views
    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        """Completed flows seen so far."""
        return self.streams[None].count

    def stream(self, group: Optional[str] = None) -> GroupStats:
        """The streaming accumulator for ``group`` (``None`` == all flows).

        An unknown group yields an empty accumulator, so callers can probe
        ``.count`` without special-casing.
        """
        return self.streams.get(group) or GroupStats()

    def summary(self, group: Optional[str] = None, tail_fraction: float = 0.99) -> MetricSummary:
        """Average slowdown / average FCT / tail FCT over ``group``'s
        completed flows (``None`` == all flows), from its stream."""
        stats = self.stream(group)
        if stats.count == 0:
            raise RuntimeError("no completed flows to summarize")
        return stats.summary(tail_fraction)
