"""iWARP-style transport: a full TCP stack in the NIC (§2.3, §4.6).

iWARP implements the complete TCP machinery in hardware.  For the transport
comparison in §4.6 the paper uses the INET TCP implementation; here we model
the pieces that matter for network-wide performance:

* slow start and AIMD congestion avoidance (a congestion window instead of
  IRN's static BDP-FC cap),
* fast retransmit after three duplicate acknowledgements, with SACK-based
  selective retransmission during recovery,
* dynamically estimated retransmission timeouts (SRTT/RTTVAR, RFC 6298).

The receive side is shared with IRN (out-of-order acceptance plus SACK
NACKs), since both ends of an iWARP connection buffer out-of-order segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.irn import IrnConfig, IrnSender
from repro.core.transport import Flow, FlowCallback
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host


@dataclass
class TcpConfig(IrnConfig):
    """TCP stack parameters used by the iWARP model."""

    #: The TCP stack has no static BDP cap; its window is the cwnd.
    bdp_fc_enabled: bool = False
    #: Initial congestion window in packets.
    initial_cwnd_packets: float = 2.0
    #: Initial slow-start threshold.
    initial_ssthresh_packets: float = float("inf")
    #: Duplicate-acknowledgement threshold for fast retransmit.
    dupack_threshold: int = 3
    #: Minimum and initial RTO bounds.
    min_rto_s: float = 100e-6
    initial_rto_s: float = 1e-3
    max_rto_s: float = 64e-3


class TcpSender(IrnSender):
    """NewReno-with-SACK sender modelling the iWARP hardware TCP stack."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: Flow,
        config: Optional[TcpConfig] = None,
        congestion_control: Optional["CongestionControl"] = None,
        on_complete: Optional[FlowCallback] = None,
    ) -> None:
        config = config or TcpConfig()
        super().__init__(sim, host, flow, config, congestion_control, on_complete)
        self.config: TcpConfig = config

        self.cwnd = config.initial_cwnd_packets
        self.ssthresh = config.initial_ssthresh_packets
        self._dupacks = 0

        # RTO estimation (RFC 6298).
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = config.initial_rto_s

        # Statistics
        self.fast_retransmits = 0
        self.slow_start_exits = 0

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def _window_limit(self) -> float:
        limit = super()._window_limit()
        return min(limit, max(1.0, self.cwnd))

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # RTT / RTO estimation
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        if sample <= 0:
            return
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        rto = self._srtt + 4.0 * self._rttvar
        self._rto = min(self.config.max_rto_s, max(self.config.min_rto_s, rto))

    def _rto_value(self, now: float) -> float:
        return self._rto

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def _handle_ack(self, packet: Packet, now: float) -> None:
        self._update_rtt(now - packet.echo_time)
        previous_una = self.snd_una
        super()._handle_ack(packet, now)
        if self.snd_una > previous_una:
            self._dupacks = 0
            acked = self.snd_una - previous_una
            self._grow_window(acked)

    def _handle_nack(self, packet: Packet, now: float) -> None:
        """Each SACK-carrying NACK behaves like a duplicate acknowledgement."""
        self._update_rtt(now - packet.echo_time)
        cum = packet.cumulative_ack
        if packet.sack_psn is not None and packet.sack_psn >= cum:
            self.sacked.add(packet.sack_psn)
        previous_una = self.snd_una
        self._advance(cum, now)
        if self.snd_una > previous_una:
            self._dupacks = 0
            self._grow_window(self.snd_una - previous_una)
            return
        if self.in_recovery:
            return
        self._dupacks += 1
        if self._dupacks >= self.config.dupack_threshold:
            self._fast_retransmit(now)

    def _fast_retransmit(self, now: float) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(2.0, self.in_flight() / 2.0)
        self.cwnd = self.ssthresh
        self._dupacks = 0
        self._enter_recovery(now)
        if self.cc is not None:
            self.cc.on_loss(now)

    def _grow_window(self, acked_packets: int) -> None:
        for _ in range(acked_packets):
            if self.in_slow_start:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / max(self.cwnd, 1.0)

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _handle_timeout(self, now: float) -> None:
        if self.snd_una >= self.num_packets:
            return
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self._rto = min(self.config.max_rto_s, self._rto * 2.0)
        self._dupacks = 0
        super()._handle_timeout(now)
