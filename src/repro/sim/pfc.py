"""Priority Flow Control (PFC) primitives.

PFC (IEEE 802.1Qbb) is a hop-by-hop, per-priority pause mechanism: when an
input queue exceeds a configured threshold the switch sends an X-OFF frame to
the upstream entity, which stops transmitting on that priority until an X-ON
frame is received.  The paper configures the pause threshold as the per-port
buffer size minus a headroom equal to one bandwidth-delay product of the
upstream link, so packets already in flight can be absorbed without loss.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PfcConfig:
    """PFC configuration for one switch (single priority class).

    Attributes
    ----------
    enabled:
        When ``False`` the switch never pauses and drops packets on buffer
        overflow instead (the "lossy" fabric IRN targets).
    headroom_bytes:
        Buffer reserved above the pause threshold to absorb in-flight packets
        from the upstream link.
    """

    enabled: bool = True
    headroom_bytes: int = 20_000

    def pause_threshold(self, buffer_bytes: int) -> int:
        """Occupancy at which an X-OFF frame is generated."""
        return max(0, buffer_bytes - self.headroom_bytes)

    def resume_threshold(self, buffer_bytes: int) -> int:
        """Occupancy below which an X-ON frame is generated."""
        return self.pause_threshold(buffer_bytes)


def headroom_for_link(
    bandwidth_bps: float,
    prop_delay_s: float,
    mtu_bytes: int = 1000,
) -> int:
    """Compute the PFC headroom needed to absorb a link's in-flight bytes.

    The headroom must cover one propagation delay of data at line rate in each
    direction (the time for the pause to reach the sender plus the data already
    on the wire), the departure batch the upstream port had already committed
    to its MAC when the threshold was crossed (``DEFAULT_PORT_BATCH`` packets,
    see :mod:`repro.sim.link`), the batch that starts just before the pause
    frame arrives, and the pause frame's own serialization time.
    """
    from repro.sim.link import DEFAULT_PORT_BATCH

    batch_bytes = DEFAULT_PORT_BATCH * mtu_bytes
    in_flight = 2.0 * bandwidth_bps * prop_delay_s / 8.0
    return int(in_flight + 2 * batch_bytes + mtu_bytes + 64)


class PfcState:
    """Tracks pause state and statistics for one input port.

    The switch sends X-OFF when ``occupancy >= pause_threshold`` and no
    X-OFF is outstanding, and X-ON when one is and ``occupancy <
    resume_threshold``; it tests both inline, on its enqueue and dequeue.
    """

    def __init__(self) -> None:
        self.upstream_paused = False
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0

    def mark_paused(self) -> None:
        self.upstream_paused = True
        self.pause_frames_sent += 1

    def mark_resumed(self) -> None:
        self.upstream_paused = False
        self.resume_frames_sent += 1
