"""IRN: the Improved RoCE NIC transport (§3 of the paper).

IRN makes two changes to the RoCE transport:

1. **Efficient loss recovery.**  The receiver does not discard out-of-order
   packets; on every out-of-order arrival it sends a NACK carrying both the
   cumulative acknowledgement (its expected sequence number) and the sequence
   number of the packet that triggered the NACK (a simplified SACK).  The
   sender tracks cumulative/selective acknowledgements in a bitmap and, while
   in loss-recovery mode, selectively retransmits lost packets instead of new
   ones.  The first retransmission is the cumulative-ack packet; any later
   packet is considered lost only once a higher sequence number has been
   selectively acked.  Recovery ends when the cumulative ack passes the
   recovery sequence (the last regular packet sent before the first
   retransmission).

2. **BDP-FC.**  A static cap -- the bandwidth-delay product of the longest
   network path divided by the MTU -- bounds the number of packets in flight.

Timeouts use two static values: ``RTO_low`` when at most ``N`` packets are in
flight (so single-packet messages recover quickly) and ``RTO_high`` otherwise
(so large flows avoid spurious retransmissions).

The module also implements the §4.3 factor-analysis variants via
:class:`LossRecovery`: go-back-N loss recovery, selective retransmission
without SACK state, and disabling BDP-FC.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Set

from repro.core.transport import BaseReceiver, BaseSender, Flow, FlowCallback, TransportConfig
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host

_ACK = PacketType.ACK
_NACK = PacketType.NACK


class LossRecovery(Enum):
    """Loss-recovery scheme used by the sender (for the factor analysis)."""

    SACK = "sack"
    GO_BACK_N = "go_back_n"
    SELECTIVE_NO_SACK = "selective_no_sack"


@dataclass
class IrnConfig(TransportConfig):
    """IRN transport parameters (defaults follow §4.1)."""

    #: BDP of the longest path in MTU-sized packets (110 for the paper's
    #: default 40 Gbps fat-tree).
    bdp_cap_packets: int = 110
    #: Enable the BDP-FC in-flight cap (disabled for the factor analysis).
    bdp_fc_enabled: bool = True
    #: Loss recovery scheme.
    loss_recovery: LossRecovery = LossRecovery.SACK
    #: Low timeout used when few packets are in flight.
    rto_low_s: float = 100e-6
    #: High timeout used otherwise.
    rto_high_s: float = 320e-6
    #: In-flight threshold N below which ``rto_low`` applies.
    rto_low_threshold_packets: int = 3
    #: §6.3 worst-case overhead: delay before a packet identified as lost can
    #: be fetched over PCIe for retransmission (0 disables the model).
    retransmission_fetch_delay_s: float = 0.0


class IrnSender(BaseSender):
    """IRN transmit-side logic: SACK-based recovery plus BDP-FC."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: Flow,
        config: Optional[IrnConfig] = None,
        congestion_control: Optional["CongestionControl"] = None,
        on_complete: Optional[FlowCallback] = None,
    ) -> None:
        config = config or IrnConfig()
        super().__init__(sim, host, flow, config, congestion_control, on_complete)
        self.config: IrnConfig = config
        if config.bdp_fc_enabled:
            self._window_cap = config.bdp_cap_packets

        #: Selectively acknowledged PSNs above ``snd_una``.
        self.sacked: Set[int] = set()
        self.in_recovery = False
        #: PSN that must be cumulatively acked to exit recovery.
        self.recovery_seq = 0
        #: PSNs already retransmitted in the current recovery episode.
        self._rtx_done: Set[int] = set()
        #: Earliest time a retransmission may leave the NIC (PCIe fetch model).
        self._rtx_not_before = 0.0

        # Statistics
        self.recovery_episodes = 0

    # ------------------------------------------------------------------
    # Packet selection
    # ------------------------------------------------------------------
    def _select_packet(self, now: float) -> Optional[int]:
        if self.in_recovery and now >= self._rtx_not_before:
            lost = self._next_lost_packet()
            if lost is not None:
                return lost
        if self.snd_nxt < self.num_packets and self.in_flight() < self._window_limit():
            return self.snd_nxt
        return None

    def _select_waits_on_clock(self, now: float) -> bool:
        # Retransmissions wait out the PCIe fetch delay.
        return self.in_recovery and now < self._rtx_not_before

    def _next_lost_packet(self) -> Optional[int]:
        """The next PSN to retransmit under the configured recovery scheme."""
        if self.config.loss_recovery is LossRecovery.GO_BACK_N:
            # Go-back-N rewinds snd_nxt instead of retransmitting selectively.
            return None
        max_sacked = max(self.sacked) if self.sacked else -1
        for psn in range(self.snd_una, min(self.highest_sent, self.num_packets)):
            if psn in self.sacked or psn in self._rtx_done:
                continue
            if psn == self.snd_una:
                return psn
            if self.config.loss_recovery is LossRecovery.SACK and psn < max_sacked:
                return psn
            # Without SACK state only the cumulative-ack packet is recovered.
            break
        return None

    def _note_sent(self, psn: int, packet: Packet, now: float) -> None:
        if psn == self.snd_nxt:
            self.snd_nxt += 1
        else:
            self._rtx_done.add(psn)
        BaseSender._note_sent(self, psn, packet, now)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def _handle_ack(self, packet: Packet, now: float) -> None:
        if self.cc is not None:
            self.cc.on_ack(
                now - packet.echo_time,
                now,
                packet.ecn_echo,
                newly_acked=self._newly_acked(packet.cumulative_ack),
            )
        self._advance(packet.cumulative_ack, now)

    def _handle_nack(self, packet: Packet, now: float) -> None:
        if self.cc is not None:
            self.cc.on_ack(
                now - packet.echo_time,
                now,
                packet.ecn_echo,
                newly_acked=self._newly_acked(packet.cumulative_ack),
            )
        if packet.error_nack:
            # "Receiver not ready" style errors fall back to go-back-N (§B.4).
            self._advance(packet.cumulative_ack, now)
            self.snd_nxt = self.snd_una
            return
        cum = packet.cumulative_ack
        if packet.sack_psn is not None and packet.sack_psn >= cum:
            self.sacked.add(packet.sack_psn)
        entered = False
        if not self.in_recovery and cum < self.num_packets:
            self._enter_recovery(now)
            entered = True
        if self.config.loss_recovery is LossRecovery.GO_BACK_N:
            self._advance(cum, now)
            self.snd_nxt = max(self.snd_una, cum)
        else:
            if self.config.loss_recovery is LossRecovery.SELECTIVE_NO_SACK:
                # Each NACK only licenses one retransmission of the expected
                # packet; forget prior retransmissions so it can be resent.
                self._rtx_done.discard(cum)
            self._advance(cum, now)
        if entered and self.cc is not None:
            self.cc.on_loss(now)

    def _advance(self, cum: int, now: float) -> None:
        if self._advance_cumulative(cum, now):
            self.sacked = {psn for psn in self.sacked if psn >= self.snd_una}
            if self.in_recovery and self.snd_una > self.recovery_seq:
                self._exit_recovery()

    def _enter_recovery(self, now: float) -> None:
        self.in_recovery = True
        self.recovery_episodes += 1
        self.recovery_seq = max(self.snd_nxt - 1, self.snd_una)
        self._rtx_done.clear()
        delay = self.config.retransmission_fetch_delay_s
        if delay > 0:
            self._rtx_not_before = now + delay
            self.sim.schedule(delay, self.host.notify_ready, self.flow_id)

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self._rtx_done.clear()

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _rto_value(self, now: float) -> float:
        if self.in_flight() <= self.config.rto_low_threshold_packets:
            return self.config.rto_low_s
        return self.config.rto_high_s

    def _handle_timeout(self, now: float) -> None:
        if self.snd_una >= self.num_packets:
            return
        if not self.in_recovery:
            self._enter_recovery(now)
        else:
            # Allow the cumulative-ack packet to be retransmitted again.
            self._rtx_done.discard(self.snd_una)
        if self.config.loss_recovery is LossRecovery.GO_BACK_N:
            self.snd_nxt = self.snd_una


class IrnReceiver(BaseReceiver):
    """IRN receive-side logic: out-of-order acceptance and (N)ACK generation.

    With ``accept_ooo=False`` it is the RoCE responder instead: it discards
    out-of-order packets and NACKs once per sequence gap.  Either way it
    reads only :class:`TransportConfig` fields, so every transport's config
    fits.
    """

    def __init__(
        self,
        sim: "Simulator",
        flow: Flow,
        config: Optional[TransportConfig] = None,
        on_complete: Optional[FlowCallback] = None,
        cnp_interval_s: Optional[float] = None,
        accept_ooo: bool = True,
    ) -> None:
        config = config or TransportConfig()
        super().__init__(sim, flow, config, on_complete, cnp_interval_s)
        self.accept_ooo = accept_ooo
        #: Next expected PSN (cumulative acknowledgement value).
        self.expected_psn = 0
        #: Out-of-order PSNs already received (the receive bitmap).
        self.ooo_received: Set[int] = set()
        self._nacked_expected: Optional[int] = None

    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, now: float) -> List[Packet]:
        responses: List[Packet] = []
        if packet.ecn and self._cnp_interval_s is not None:
            cnp = self._maybe_cnp(packet, now)
            if cnp is not None:
                responses.append(cnp)
        self.data_received += 1

        psn = packet.psn
        if psn < self.expected_psn or psn in self.ooo_received:
            # Duplicates signal recovery in progress: the ACK fires
            # immediately (and supersedes any banked coalescing window,
            # since it carries the latest cumulative acknowledgement).
            self.duplicates_received += 1
            if self.config.generate_acks:
                banked_ecn = self._absorb_pending_ack()
                responses.append(
                    self._control(_ACK, packet, self.expected_psn, None, banked_ecn)
                )
            return responses

        if psn == self.expected_psn:
            self._advance_expected()
            self._note_delivered(1, now)
            self._nacked_expected = None
            if self.config.generate_acks:
                self._queue_ack(packet, self.expected_psn, responses, now)
            return responses

        # Out-of-order arrival: loss signals always fire immediately, and a
        # NACK carries the cumulative ack, so it folds in any banked window.
        if self.accept_ooo:
            self.ooo_received.add(psn)
            self._note_delivered(1, now)
            banked_ecn = self._absorb_pending_ack()
            responses.append(
                self._control(_NACK, packet, self.expected_psn, psn, banked_ecn)
            )
        else:
            # Go-back-N receiver: discard and NACK once per sequence error.
            self.duplicates_received += 1
            if self._nacked_expected != self.expected_psn:
                self._nacked_expected = self.expected_psn
                banked_ecn = self._absorb_pending_ack()
                responses.append(
                    self._control(_NACK, packet, self.expected_psn, None, banked_ecn)
                )
        return responses

    def _advance_expected(self) -> None:
        self.expected_psn += 1
        while self.expected_psn in self.ooo_received:
            self.ooo_received.remove(self.expected_psn)
            self.expected_psn += 1

    @property
    def ooo_degree(self) -> int:
        """Number of out-of-order packets currently buffered in the bitmap."""
        return len(self.ooo_received)
