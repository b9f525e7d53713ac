"""Current RoCE NIC transport: go-back-N loss recovery (§2.1).

RoCE adopted the Infiniband reliable-connected transport unchanged: the
responder discards out-of-order packets and returns a NACK carrying its
expected sequence number; the requester then retransmits *everything* from
that sequence number onward (go-back-N).  There is no end-to-end window --
absent congestion control the sender transmits as fast as the NIC drains --
which is why the design depends on PFC to avoid drops.

Configuration notes mirroring §4.1 of the paper:

* With PFC enabled the baseline sends no ACKs (the all-Reads extreme) and
  timeouts are disabled to avoid spurious retransmissions.
* Without PFC a single fixed timeout of ``RTO_high`` is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.irn import IrnReceiver
from repro.core.transport import BaseSender, Flow, FlowCallback, TransportConfig
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host


@dataclass
class RoceConfig(TransportConfig):
    """RoCE transport parameters."""

    #: Fixed retransmission timeout (the paper uses RTO_high = 320 us).
    rto_s: float = 320e-6


class RoceSender(BaseSender):
    """Go-back-N requester logic of current RoCE NICs."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: Flow,
        config: Optional[RoceConfig] = None,
        congestion_control: Optional["CongestionControl"] = None,
        on_complete: Optional[FlowCallback] = None,
    ) -> None:
        config = config or RoceConfig()
        super().__init__(sim, host, flow, config, congestion_control, on_complete)
        self.config: RoceConfig = config
        self.go_back_events = 0

    # ------------------------------------------------------------------
    def _select_packet(self, now: float) -> Optional[int]:
        if self.snd_nxt >= self.num_packets:
            return None
        if self.in_flight() >= self._window_limit():
            return None
        return self.snd_nxt

    def _note_sent(self, psn: int, packet: Packet, now: float) -> None:
        if psn == self.snd_nxt:
            self.snd_nxt += 1
        BaseSender._note_sent(self, psn, packet, now)

    # ------------------------------------------------------------------
    def _handle_ack(self, packet: Packet, now: float) -> None:
        if self.cc is not None:
            self.cc.on_ack(
                now - packet.echo_time,
                now,
                packet.ecn_echo,
                newly_acked=self._newly_acked(packet.cumulative_ack),
            )
        self._advance_cumulative(packet.cumulative_ack, now)

    def _handle_nack(self, packet: Packet, now: float) -> None:
        """Go back to the responder's expected sequence number."""
        if self.cc is not None:
            self.cc.on_ack(
                now - packet.echo_time,
                now,
                packet.ecn_echo,
                newly_acked=self._newly_acked(packet.cumulative_ack),
            )
            self.cc.on_loss(now)
        self._advance_cumulative(packet.cumulative_ack, now)
        if packet.cumulative_ack < self.num_packets:
            self.go_back_events += 1
            self.snd_nxt = max(self.snd_una, packet.cumulative_ack)

    def _handle_timeout(self, now: float) -> None:
        if self.snd_una >= self.num_packets:
            return
        self.go_back_events += 1
        self.snd_nxt = self.snd_una

    def _rto_value(self, now: float) -> float:
        return self.config.rto_s


class RoceReceiver(IrnReceiver):
    """RoCE responder: an :class:`IrnReceiver` that discards out-of-order
    packets and NACKs once per gap."""

    def __init__(
        self,
        sim: "Simulator",
        flow: Flow,
        config: Optional[TransportConfig] = None,
        on_complete: Optional[FlowCallback] = None,
        cnp_interval_s: Optional[float] = None,
    ) -> None:
        super().__init__(sim, flow, config, on_complete, cnp_interval_s, accept_ooo=False)
