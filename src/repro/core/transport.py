"""Common transport machinery shared by IRN, RoCE and the iWARP TCP stack.

A :class:`Flow` is the unit of data transfer from the paper: one or more
messages between a source/destination queue pair.  :class:`BaseSender` and
:class:`BaseReceiver` implement everything that is identical across the
transports -- packetization, the host-NIC scheduling interface, pacing via an
optional congestion-control module, retransmission timers, and completion
signalling -- so each concrete transport only implements its loss-recovery
and windowing policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.sim.packet import DEFAULT_HEADER_BYTES, Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host


FlowCallback = Callable[["Flow", float], None]


@dataclass
class Flow:
    """A unit of data transfer between a source and a destination host."""

    flow_id: int
    src: str
    dst: str
    size_bytes: int
    start_time: float = 0.0
    #: Optional grouping key (e.g. "incast" vs "background" traffic).
    group: str = "default"

    # Filled in at runtime -----------------------------------------------------
    completion_time: Optional[float] = None
    first_packet_time: Optional[float] = None

    def num_packets(self, mtu_bytes: int) -> int:
        """Number of MTU-sized packets needed to carry the flow."""
        return max(1, math.ceil(self.size_bytes / mtu_bytes))

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    def fct(self) -> float:
        """Flow completion time (raises if the flow has not finished)."""
        if self.completion_time is None:
            raise RuntimeError(f"flow {self.flow_id} has not completed")
        return self.completion_time - self.start_time


@dataclass
class TransportConfig:
    """Knobs shared by every transport implementation."""

    mtu_bytes: int = 1000
    header_bytes: int = DEFAULT_HEADER_BYTES
    #: Retransmission timeout used when the transport has a single timer.
    rto_s: float = 320e-6
    #: Whether the receiver generates per-packet cumulative ACKs.  The paper's
    #: RoCE-with-PFC baseline models the all-Reads extreme and sends no ACKs.
    generate_acks: bool = True
    #: Whether the sender arms retransmission timers (disabled for the
    #: RoCE-with-PFC baseline to avoid spurious retransmissions).
    timeouts_enabled: bool = True
    #: Receiver-side cumulative-ACK coalescing window, in packets: the
    #: receiver banks up to N in-order ACK grants and emits one cumulative
    #: ACK covering all of them.  1 (the default here) reproduces the
    #: per-packet ACK stream exactly -- no deferral state is ever touched.
    #: NACK/SACK and duplicate-arrival paths always fire immediately, so
    #: loss recovery never waits on the window.
    ack_coalesce_n: int = 1
    #: Flush timeout for a partially filled coalescing window (N packets or
    #: T seconds, whichever first).  Must stay well below RTO_low or a
    #: delayed ACK could masquerade as a loss; the experiment wiring clamps
    #: it to half of the effective RTO_low (the sender budgets the flush
    #: delay into its retransmission timer, see ``BaseSender._arm_rto``).
    ack_coalesce_s: float = 25e-6
    #: Pacing wake-up quantization grid, in seconds.  0 keeps one wake-up
    #: event per paced packet (per QP); a positive quantum rounds wake-ups
    #: up onto the grid and shares a single timer host-wide, so a paced
    #: sender costs one event per quantized batch.  The congestion module's
    #: burst credit is set to the quantum so the average rate is preserved.
    pacing_quantum_s: float = 0.0


class BaseSender:
    """Transmit side of a flow.

    Subclasses must implement :meth:`_select_packet` (choose the next PSN to
    put on the wire, or ``None``) and the control-packet handlers
    :meth:`_handle_ack` / :meth:`_handle_nack`.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow: Flow,
        config: TransportConfig,
        congestion_control: Optional["CongestionControl"] = None,
        on_complete: Optional[FlowCallback] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config
        self.cc = congestion_control
        self.on_complete = on_complete

        self.flow_id = flow.flow_id
        self.num_packets = flow.num_packets(config.mtu_bytes)
        self.last_packet_payload = flow.size_bytes - (self.num_packets - 1) * config.mtu_bytes

        #: Highest cumulatively acknowledged PSN (all packets < snd_una done).
        self.snd_una = 0
        #: Next brand-new PSN to send.
        self.snd_nxt = 0
        #: Highest PSN handed to the NIC so far (exclusive).
        self.highest_sent = 0

        self.completed = False

        # Statistics
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts_fired = 0
        self.nacks_received = 0

        self._rto_event = None
        self._pacing_event = None

    # ------------------------------------------------------------------
    # Interface used by the host NIC
    # ------------------------------------------------------------------
    def next_packet(self, now: float) -> Optional[Packet]:
        """Hand the next packet of this flow to the NIC (or ``None``).

        Selection runs before the pacing gate: a flow with nothing
        eligible returns ``None`` *without* arming a pacing wake-up, so an
        idle-but-paced QP never keeps the event loop alive on its own.
        """
        if self.completed:
            return None
        psn = self._select_packet(now)
        if psn is None:
            return None
        release = self._pacing_release_time(now)
        if release > now:
            self._ensure_pacing_wakeup(release)
            return None
        packet = self._build_packet(psn, now)
        self._note_sent(psn, packet, now)
        return packet

    def on_control(self, packet: Packet, now: float) -> None:
        """Dispatch an ACK/NACK/CNP to the right handler."""
        if packet.ptype is PacketType.ACK:
            self._handle_ack(packet, now)
        elif packet.ptype is PacketType.NACK:
            self.nacks_received += 1
            self._handle_nack(packet, now)
        elif packet.ptype is PacketType.CNP:
            if self.cc is not None:
                self.cc.on_cnp(now)
        self.host.notify_ready()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _select_packet(self, now: float) -> Optional[int]:
        """Return the PSN to transmit next, or ``None`` if nothing is ready."""
        raise NotImplementedError

    def _handle_ack(self, packet: Packet, now: float) -> None:
        raise NotImplementedError

    def _handle_nack(self, packet: Packet, now: float) -> None:
        raise NotImplementedError

    def _is_retransmission(self, psn: int) -> bool:
        return psn < self.highest_sent

    # ------------------------------------------------------------------
    # Packet construction and pacing
    # ------------------------------------------------------------------
    def _payload_for(self, psn: int) -> int:
        if psn == self.num_packets - 1:
            return max(1, self.last_packet_payload)
        return self.config.mtu_bytes

    def _build_packet(self, psn: int, now: float) -> Packet:
        return Packet(
            ptype=PacketType.DATA,
            flow_id=self.flow_id,
            src=self.flow.src,
            dst=self.flow.dst,
            psn=psn,
            payload_bytes=self._payload_for(psn),
            header_bytes=self.config.header_bytes,
            msg_id=0,
            last_of_message=(psn == self.num_packets - 1),
            retransmitted=self._is_retransmission(psn),
            sent_time=now,
        )

    def _note_sent(self, psn: int, packet: Packet, now: float) -> None:
        self.packets_sent += 1
        if packet.retransmitted:
            self.retransmissions += 1
        if self.flow.first_packet_time is None:
            self.flow.first_packet_time = now
        self.highest_sent = max(self.highest_sent, psn + 1)
        if self.cc is not None:
            self.cc.on_packet_sent(packet.size_bits, now)
        if self.config.timeouts_enabled:
            self._arm_rto(now)

    def _pacing_release_time(self, now: float) -> float:
        if self.cc is None:
            return now
        return self.cc.next_send_time(now)

    def _ensure_pacing_wakeup(self, release: float) -> None:
        quantum = self.config.pacing_quantum_s
        if quantum > 0.0:
            # Round up onto the quantum grid and share the wake-up host-wide:
            # one timer serves every paced QP on this NIC, and the pacer's
            # burst credit lets it catch up on the whole quantum at once.
            self.host.request_pacing_wakeup(math.ceil(release / quantum) * quantum)
            return
        if self._pacing_event is not None and not self._pacing_event.cancelled:
            return
        self._pacing_event = self.sim.schedule_at(release, self._pacing_fired)

    def _pacing_fired(self) -> None:
        self._pacing_event = None
        self.host.notify_ready()

    def _newly_acked(self, cum: int) -> int:
        """Packets a cumulative acknowledgement newly covers (for the
        congestion module's ``newly_acked``).  With coalescing off this is
        pinned to 1, keeping window dynamics byte-identical to the
        historical one-credit-per-ACK-frame behavior; with coalescing on it
        is the true cumulative delta, so growth does not depend on how many
        per-packet ACKs were folded into the frame."""
        if self.config.ack_coalesce_n <= 1:
            return 1
        return max(1, min(cum, self.num_packets) - self.snd_una)

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def _window_limit(self) -> float:
        """Maximum number of unacknowledged packets allowed in flight."""
        base = float("inf")
        if self.cc is not None:
            base = self.cc.window_limit(base)
        return base

    def in_flight(self) -> int:
        """Packets sent but not yet cumulatively acknowledged."""
        return max(0, self.snd_nxt - self.snd_una)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _rto_value(self, now: float) -> float:
        return self.config.rto_s

    def _arm_rto(self, now: float, restart: bool = False) -> None:
        if not self.config.timeouts_enabled or self.completed:
            return
        if self._rto_event is not None and not self._rto_event.cancelled:
            if not restart:
                return
            self._rto_event.cancel()
        delay = self._rto_value(now)
        if self.config.ack_coalesce_n > 1:
            # A coalescing receiver may legitimately sit on the ACK for up
            # to the flush timeout; budget it into the RTO (as RFC 6298
            # stacks do for delayed ACKs) or that wait reads as a loss.
            delay += self.config.ack_coalesce_s
        self._rto_event = self.sim.schedule(delay, self._rto_fired)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fired(self) -> None:
        self._rto_event = None
        if self.completed or self.snd_una >= self.num_packets:
            return
        self.timeouts_fired += 1
        self._handle_timeout(self.sim.now)
        if self.cc is not None:
            self.cc.on_timeout(self.sim.now)
        self._arm_rto(self.sim.now)
        self.host.notify_ready()

    def _handle_timeout(self, now: float) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _advance_cumulative(self, cum: int, now: float) -> bool:
        """Advance ``snd_una``; returns True if it moved."""
        if cum <= self.snd_una:
            return False
        self.snd_una = cum
        self.snd_nxt = max(self.snd_nxt, cum)
        if self.snd_una >= self.num_packets:
            self._mark_complete(now)
        else:
            self._arm_rto(now, restart=True)
        return True

    def _mark_complete(self, now: float) -> None:
        if self.completed:
            return
        self.completed = True
        self._cancel_rto()
        if self._pacing_event is not None:
            self._pacing_event.cancel()
        if self.on_complete is not None:
            self.on_complete(self.flow, now)


class BaseReceiver:
    """Receive side of a flow.

    Tracks arrival of the flow's packets and signals completion once every
    byte has been delivered, independently of whether the transport generates
    acknowledgements (the paper's RoCE-with-PFC baseline does not).
    """

    def __init__(
        self,
        sim: "Simulator",
        flow: Flow,
        config: TransportConfig,
        on_complete: Optional[FlowCallback] = None,
        cnp_interval_s: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.flow = flow
        self.config = config
        self.flow_id = flow.flow_id
        self.num_packets = flow.num_packets(config.mtu_bytes)
        self.on_complete = on_complete

        self.delivered_packets = 0
        self.completed = False

        # DCQCN notification-point state: at most one CNP per interval.
        self._cnp_interval_s = cnp_interval_s
        self._last_cnp_time = -float("inf")

        #: Out-of-band control emitter, wired by ``Host.register_receiver``;
        #: lets the ACK-coalescing flush timer send a frame outside the
        #: ``on_data`` response path.  Coalescing stays off until it is set.
        self.send_control: Optional[Callable[[Packet], None]] = None
        # Deferred cumulative-ACK state (the coalescing window).
        self._ack_pending = 0
        self._ack_cum = 0
        self._ack_psn = 0
        self._ack_echo_time = 0.0
        self._ack_ecn = False
        self._ack_timer = None
        self._ack_last_data_time = -float("inf")

        # Statistics
        self.data_received = 0
        self.duplicates_received = 0
        self.acks_sent = 0
        self.nacks_sent = 0
        self.cnps_sent = 0
        #: Per-packet ACK grants absorbed into a later cumulative frame.
        self.acks_coalesced = 0
        #: Coalescing windows flushed by the timeout rather than the count.
        self.ack_flush_timeouts = 0

    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, now: float) -> List[Packet]:
        """Consume a data packet; returns control frames to send back."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _control(self, ptype: PacketType, data_packet: Packet, **fields) -> Packet:
        """Build an ACK/NACK/CNP going back to the data packet's source."""
        packet = Packet(
            ptype=ptype,
            flow_id=self.flow_id,
            src=self.flow.dst,
            dst=self.flow.src,
            psn=data_packet.psn,
            echo_time=data_packet.sent_time,
            ecn_echo=data_packet.ecn,
        )
        for key, value in fields.items():
            setattr(packet, key, value)
        if ptype is PacketType.ACK:
            self.acks_sent += 1
        elif ptype is PacketType.NACK:
            self.nacks_sent += 1
        return packet

    # ------------------------------------------------------------------
    # Cumulative-ACK coalescing
    # ------------------------------------------------------------------
    def _queue_ack(
        self, data_packet: Packet, cum: int, responses: List[Packet], now: float
    ) -> None:
        """Emit a cumulative ACK, or bank it into the coalescing window.

        The window flushes on whichever comes first: the N-th banked grant,
        the flush timer, or flow completion (so the last ACK of a message is
        never delayed).  At ``ack_coalesce_n <= 1`` -- or before the host has
        wired :attr:`send_control` -- this is exactly the historical
        one-ACK-per-packet path.
        """
        config = self.config
        gap, self._ack_last_data_time = now - self._ack_last_data_time, now
        if config.ack_coalesce_n <= 1 or self.send_control is None:
            responses.append(self._control(PacketType.ACK, data_packet, cumulative_ack=cum))
            return
        if data_packet.retransmitted:
            # Recovery traffic: the sender is waiting on this cumulative
            # advance to exit recovery -- holding it in the window would
            # stretch every loss episode by up to the flush timeout.
            banked_ecn = self._absorb_pending_ack()
            responses.append(
                self._control(
                    PacketType.ACK,
                    data_packet,
                    cumulative_ack=cum,
                    ecn_echo=data_packet.ecn or banked_ecn,
                )
            )
            return
        if self._ack_pending == 0 and gap > config.ack_coalesce_s:
            # Adaptive moderation, as NICs do: only back-to-back streams are
            # worth banking.  At this arrival spacing the window would be cut
            # short by the flush timer anyway, so deferring buys no ACK
            # deletion -- it just converts each ACK into a timer event plus a
            # late ACK.  Send immediately and keep the slow path per-packet.
            responses.append(self._control(PacketType.ACK, data_packet, cumulative_ack=cum))
            return
        self._ack_pending += 1
        self._ack_cum = cum
        self._ack_psn = data_packet.psn
        self._ack_echo_time = data_packet.sent_time
        self._ack_ecn = self._ack_ecn or data_packet.ecn
        if self._ack_pending >= config.ack_coalesce_n or self.completed:
            responses.append(self._flush_ack())
        elif self._ack_timer is None:
            self._ack_timer = self.sim.schedule(config.ack_coalesce_s, self._ack_timer_fired)

    def _flush_ack(self) -> Packet:
        """Materialize the banked window as one cumulative ACK frame."""
        packet = Packet(
            ptype=PacketType.ACK,
            flow_id=self.flow_id,
            src=self.flow.dst,
            dst=self.flow.src,
            psn=self._ack_psn,
            echo_time=self._ack_echo_time,
            ecn_echo=self._ack_ecn,
            cumulative_ack=self._ack_cum,
        )
        self.acks_sent += 1
        self.acks_coalesced += self._ack_pending - 1
        self._clear_pending_ack()
        return packet

    def _absorb_pending_ack(self) -> bool:
        """Fold the banked window into an immediate frame the caller is
        about to emit (a NACK or duplicate-ACK already carries the latest
        cumulative acknowledgement, superseding the deferred one).

        Returns the banked ECN echo bit: the superseding frame must OR it
        into its own ``ecn_echo`` or congestion marks observed on the
        absorbed packets would be lost -- under-signaling DCTCP/DCQCN
        exactly during loss episodes."""
        ecn = self._ack_ecn
        if self._ack_pending:
            self.acks_coalesced += self._ack_pending
            self._clear_pending_ack()
        return ecn

    def _clear_pending_ack(self) -> None:
        self._ack_pending = 0
        self._ack_ecn = False
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _ack_timer_fired(self) -> None:
        self._ack_timer = None
        if self._ack_pending == 0:
            return
        self.ack_flush_timeouts += 1
        packet = self._flush_ack()
        if self.send_control is not None:
            self.send_control(packet)

    def _maybe_cnp(self, data_packet: Packet, now: float) -> Optional[Packet]:
        """Generate a DCQCN CNP if the packet was ECN-marked (rate limited)."""
        if self._cnp_interval_s is None or not data_packet.ecn:
            return None
        if now - self._last_cnp_time < self._cnp_interval_s:
            return None
        self._last_cnp_time = now
        self.cnps_sent += 1
        return self._control(PacketType.CNP, data_packet)

    def _note_delivered(self, count: int, now: float) -> None:
        """Record ``count`` newly delivered (in-order or placed) packets."""
        self.delivered_packets += count
        if not self.completed and self.delivered_packets >= self.num_packets:
            self.completed = True
            self.flow.completion_time = now
            if self.on_complete is not None:
                self.on_complete(self.flow, now)
