"""Recovery observables for fault-enabled runs.

The :class:`RecoveryTracker` taps the arrivals over every host downlink
(``link.arrive``; installed *inside* the fault engine's tap on a link both
wrap, so injected drops never count as delivered traffic) and maintains:

- a **goodput timeline**: delivered DATA payload bytes binned into
  fixed-width time bins, exported both as a quantile digest (per-bin
  goodput in bits/s over the whole run) and consulted for
  ``recovery_time_s``;
- **per-flow stall time**: for each flow, the summed inter-delivery gaps
  that exceeded the stall threshold (default: the transport's low RTO) —
  a flow that never stalls contributes 0;
- **recovery_time_s**: the delay from the last fault-window end to the
  first bin whose goodput reaches 90% of the best pre-fault bin.  ``None``
  when there is no pre-fault traffic to reference, when some fault window
  is open-ended, or when goodput never recovers before the run ends.

Everything here is driven by simulator event order and ``sim.now`` only —
no RNG, no wall clock — so fault-enabled rows stay byte-identical across
scheduler cores.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.metrics.sketch import QuantileDigest
from repro.sim.packet import Packet, PacketType

__all__ = ["RecoveryTracker", "RECOVERY_GOODPUT_FRACTION"]

_DATA = PacketType.DATA

#: Fraction of the best pre-fault bin goodput that counts as "recovered".
RECOVERY_GOODPUT_FRACTION = 0.9


def _bin_index(t: float, bin_s: float) -> int:
    """The ``k`` with ``k * bin_s <= t < (k + 1) * bin_s`` in floats: the
    bin whose reported start, ``k * bin_s``, is the last at or before ``t``.
    ``int(t / bin_s)`` alone can be one off either way (a delivery at
    exactly ``49 * 1e-4`` divides to 48.99...)."""
    k = int(t / bin_s)
    if k * bin_s > t:
        return k - 1
    if (k + 1) * bin_s <= t:
        return k + 1
    return k


class _DownlinkTap:
    """Wraps one host downlink's ``arrive``: counts its DATA arrivals."""

    __slots__ = ("tracker", "inner")

    def __init__(self, tracker: "RecoveryTracker", link: Any) -> None:
        self.tracker = tracker
        self.inner = link.arrive
        link.arrive = self

    def __call__(self, packet: Packet, link: Any) -> None:
        if packet.ptype is _DATA:
            self.tracker.on_data_delivered(packet)
        self.inner(packet, link)


class RecoveryTracker:
    """Bins delivered goodput and tracks per-flow delivery gaps."""

    def __init__(self, sim: Any, bin_s: float, stall_threshold_s: float) -> None:
        if bin_s <= 0.0:
            raise ValueError("bin_s must be > 0")
        if stall_threshold_s <= 0.0:
            raise ValueError("stall_threshold_s must be > 0")
        self.sim = sim
        self.bin_s = bin_s
        self.stall_threshold_s = stall_threshold_s
        self._bins: Dict[int, float] = {}
        self._last_delivery: Dict[int, float] = {}
        self._stall: Dict[int, float] = {}

    def install(self, network: Any) -> None:
        """Tap every link into a host; call before the fault engine's
        :meth:`~repro.faults.FaultEngine.install`."""
        hosts = network.hosts
        for link in network.links:
            if link.dst.name in hosts:
                _DownlinkTap(self, link)

    def on_data_delivered(self, packet: Packet) -> None:
        now = self.sim.now
        index = _bin_index(now, self.bin_s)
        self._bins[index] = self._bins.get(index, 0.0) + packet.payload_bytes
        last = self._last_delivery.get(packet.flow_id)
        if last is not None:
            gap = now - last
            if gap > self.stall_threshold_s:
                self._stall[packet.flow_id] = (
                    self._stall.get(packet.flow_id, 0.0) + gap
                )
        self._last_delivery[packet.flow_id] = now

    # -- exports ----------------------------------------------------------

    def goodput_timeline_digest(self) -> Optional[QuantileDigest]:
        """Per-bin goodput (bits/s) over the covered timeline, zeros included."""
        if not self._bins:
            return None
        digest = QuantileDigest()
        last_index = max(self._bins)
        for index in range(last_index + 1):
            digest.add(self._bins.get(index, 0.0) * 8.0 / self.bin_s)
        return digest

    def flow_stall_digest(self) -> Optional[QuantileDigest]:
        """Per-flow total stall seconds (0 for flows that never stalled)."""
        if not self._last_delivery:
            return None
        digest = QuantileDigest()
        for flow_id in self._last_delivery:
            digest.add(self._stall.get(flow_id, 0.0))
        return digest

    def recovery_time_s(
        self,
        first_fault_start_s: Optional[float],
        last_fault_end_s: Optional[float],
    ) -> Optional[float]:
        """Seconds from last-fault-end to the first full-goodput bin."""
        if first_fault_start_s is None or last_fault_end_s is None:
            return None
        if not self._bins:
            return None
        reference_end = _bin_index(first_fault_start_s, self.bin_s)
        reference = max(
            (self._bins.get(index, 0.0) for index in range(reference_end)),
            default=0.0,
        )
        if reference <= 0.0:
            return None
        threshold = RECOVERY_GOODPUT_FRACTION * reference
        # The first bin that starts at or after the last fault's end.
        start_index = _bin_index(last_fault_end_s, self.bin_s)
        if start_index * self.bin_s < last_fault_end_s:
            start_index += 1
        last_index = max(self._bins)
        for index in range(start_index, last_index + 1):
            if self._bins.get(index, 0.0) >= threshold:
                return index * self.bin_s - last_fault_end_s
        return None
