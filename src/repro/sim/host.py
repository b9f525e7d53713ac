"""End hosts and their NICs.

A host owns one uplink to its top-of-rack switch and schedules the queue
pairs (flows) that want to transmit, round-robin, the way the RoCE NIC model
in the paper "periodically polls the MAC layer until the link is available".
Returning ACK/NACK/CNP frames are queued separately and served before data,
mirroring how responder hardware generates acknowledgements directly from the
receive pipeline.

The host is deliberately transport-agnostic: senders and receivers are duck
typed.  A sender must provide ``next_packet(now)`` (returning ``None`` when
nothing is eligible) and ``on_control(packet, now)``; a receiver must
provide ``on_data(packet, now)`` returning the control frames to send back.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Protocol

from repro.sim.link import Link, OutputPort
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class SenderQP(Protocol):
    """Transmit side of a flow, as seen by the host NIC."""

    flow_id: int

    def next_packet(self, now: float) -> Optional[Packet]:
        """Pop the next packet to transmit (``None`` when nothing is
        eligible; the QP arranges its own pacing wake-up in that case)."""

    def on_control(self, packet: Packet, now: float) -> None:
        """Process an ACK/NACK/CNP addressed to this flow."""


class ReceiverQP(Protocol):
    """Receive side of a flow, as seen by the host NIC."""

    flow_id: int

    def on_data(self, packet: Packet, now: float) -> List[Packet]:
        """Consume a data packet and return control frames to send back."""


class Host:
    """An end host with a single NIC uplink."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.uplink_port: Optional[OutputPort] = None
        self.uplink: Optional[Link] = None

        self._senders: Dict[int, SenderQP] = {}
        self._receivers: Dict[int, ReceiverQP] = {}
        self._active_order: List[int] = []       # round-robin order of sender flow ids
        self._rr_index = 0
        self._control_queue: Deque[Packet] = deque()
        #: Shared quantized pacing wake-up (at most one pending per host).
        self._pacing_wakeup = None

        # Statistics
        self.data_packets_sent = 0
        self.data_packets_received = 0
        self.control_packets_sent = 0
        self.control_packets_received = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_uplink(self, link: Link) -> OutputPort:
        """Attach the host's outgoing link; returns the created port."""
        self.uplink = link
        self.uplink_port = OutputPort(self.sim, link, source=self)
        return self.uplink_port

    def add_input_link(self, link: Link) -> None:
        """Hosts sink packets directly; nothing to set up for the downlink."""

    # ------------------------------------------------------------------
    # QP registration
    # ------------------------------------------------------------------
    def register_sender(self, sender: SenderQP) -> None:
        """Register the transmit side of a flow originating at this host."""
        self._senders[sender.flow_id] = sender
        self._active_order.append(sender.flow_id)
        self.notify_ready()

    def register_receiver(self, receiver: ReceiverQP) -> None:
        """Register the receive side of a flow terminating at this host.

        Receivers that coalesce acknowledgements expose a ``send_control``
        slot; wiring it to :meth:`enqueue_control` lets their flush timer
        emit a frame outside the ``on_data`` response path.
        """
        self._receivers[receiver.flow_id] = receiver
        if hasattr(receiver, "send_control"):
            receiver.send_control = self.enqueue_control

    def deregister_sender(self, flow_id: int) -> None:
        """Remove a completed flow from the transmit scheduler."""
        self._senders.pop(flow_id, None)
        if flow_id in self._active_order:
            self._active_order.remove(flow_id)

    def sender(self, flow_id: int) -> Optional[SenderQP]:
        """Look up a registered sender by flow id."""
        return self._senders.get(flow_id)

    def receiver(self, flow_id: int) -> Optional[ReceiverQP]:
        """Look up a registered receiver by flow id."""
        return self._receivers.get(flow_id)

    # ------------------------------------------------------------------
    # NIC transmit scheduling (PacketSource protocol)
    # ------------------------------------------------------------------
    def notify_ready(self) -> None:
        """Kick the uplink; called when a QP becomes eligible to transmit."""
        if self.uplink_port is not None:
            self.uplink_port.kick()

    def enqueue_control(self, packet: Packet) -> None:
        """Queue an ACK/NACK/CNP for transmission ahead of data packets."""
        self._control_queue.append(packet)
        self.notify_ready()

    def request_pacing_wakeup(self, when: float) -> None:
        """Ask for one NIC kick at (or before) ``when``.

        All paced QPs on this host share a single pending wake-up: a request
        at or after the pending one is absorbed; an earlier request cancels
        and replaces it.  This is what makes a saturated paced host cost one
        event per pacing quantum instead of one per QP per packet.
        """
        event = self._pacing_wakeup
        if event is not None and not event.cancelled:
            if event.time <= when:
                return
            event.cancel()
        self._pacing_wakeup = self.sim.schedule_at(when, self._pacing_wakeup_fired)

    def _pacing_wakeup_fired(self) -> None:
        self._pacing_wakeup = None
        self.notify_ready()

    def next_packet(self, port: OutputPort) -> Optional[Packet]:
        """Serve control frames first, then round-robin over ready QPs."""
        if self._control_queue:
            self.control_packets_sent += 1
            return self._control_queue.popleft()

        if not self._active_order:
            return None
        now = self.sim.now
        count = len(self._active_order)
        for offset in range(count):
            idx = (self._rr_index + offset) % count
            flow_id = self._active_order[idx]
            sender = self._senders.get(flow_id)
            if sender is None:
                continue
            # The QP returns None when it has nothing eligible (and
            # arranges its own pacing wake-up).
            packet = sender.next_packet(now)
            if packet is None:
                continue
            self._rr_index = (idx + 1) % count
            self.data_packets_sent += 1
            return packet
        return None

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        """Dispatch an arriving frame to the right QP."""
        if packet.pfc_frame:
            if self.uplink_port is not None:
                if packet.ptype is PacketType.PFC_PAUSE:
                    self.uplink_port.pause()
                else:
                    self.uplink_port.resume()
            return

        if packet.ptype is PacketType.DATA:
            self.data_packets_received += 1
            receiver = self._receivers.get(packet.flow_id)
            if receiver is None:
                return
            for response in receiver.on_data(packet, self.sim.now):
                self.enqueue_control(response)
            return

        # ACK / NACK / CNP addressed to one of our senders.
        self.control_packets_received += 1
        sender = self._senders.get(packet.flow_id)
        if sender is not None:
            sender.on_control(packet, self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name})"
