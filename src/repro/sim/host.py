"""End hosts and their NICs.

A host owns one uplink to its top-of-rack switch and schedules the queue
pairs (flows) that want to transmit, round-robin, the way the RoCE NIC model
in the paper "periodically polls the MAC layer until the link is available".
Returning ACK/NACK/CNP frames are queued separately and served before data,
mirroring how responder hardware generates acknowledgements directly from the
receive pipeline.

The host is deliberately transport-agnostic: senders and receivers are duck
typed.  A sender must provide ``next_packet(now)`` and ``on_control(packet,
now)``; a receiver must provide ``on_data(packet, now)`` returning the
control frames to send back.  The NIC polls only senders that may have a
packet: one that answers ``None`` says in ``waits_on_clock`` whether the
clock alone can change that answer; if not, it is skipped until it calls
``host.notify_ready(flow_id)``, which it must whenever its answer may change.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Protocol

from repro.sim.link import Link, OutputPort
from repro.sim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

_DATA = PacketType.DATA
_PFC_PAUSE = PacketType.PFC_PAUSE


class SenderQP(Protocol):
    """Transmit side of a flow, as seen by the host NIC."""

    flow_id: int
    #: Read after ``next_packet`` returned ``None``: True when a later poll
    #: may find a packet without a ``host.notify_ready(flow_id)`` first.
    waits_on_clock: bool

    def next_packet(self, now: float) -> Optional[Packet]:
        """Pop the next packet to transmit (``None`` when nothing is
        eligible; the QP sets ``waits_on_clock`` and arranges its own
        wake-up in that case)."""

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
        self._position: Dict[int, int] = {}       # flow id -> index in _active_order
        #: Bit ``i`` set <=> the sender at ``_active_order[i]`` may have a packet.
        self._ready_mask = 0
        self._rr_index = 0
        self._control_queue: Deque[Packet] = deque()

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
        flow_id = sender.flow_id
        if flow_id in self._senders:
            raise ValueError(f"flow {flow_id} already has a sender on {self.name}")
        self._senders[flow_id] = sender
        self._position[flow_id] = len(self._active_order)
        self._active_order.append(flow_id)
        self.notify_ready(flow_id)

    def register_receiver(self, receiver: ReceiverQP) -> None:
        """Register the receive side of a flow terminating at this host.

        Receivers that coalesce acknowledgements expose a ``send_control``
        slot; wiring it to :meth:`enqueue_control` lets their flush timer
        emit a frame outside the ``on_data`` response path.
        """
        if receiver.flow_id in self._receivers:
            raise ValueError(f"flow {receiver.flow_id} already has a receiver on {self.name}")
        self._receivers[receiver.flow_id] = receiver
        if hasattr(receiver, "send_control"):
            receiver.send_control = self.enqueue_control

    def deregister_sender(self, flow_id: int) -> None:
        """Remove a completed flow from the transmit scheduler; the senders
        above it, bits included, move down one position (``_rr_index`` stays)."""
        if self._senders.pop(flow_id, None) is None:
            return
        pos = self._position.pop(flow_id)
        del self._active_order[pos]
        for moved in self._active_order[pos:]:
            self._position[moved] -= 1
        mask = self._ready_mask
        self._ready_mask = (mask & ((1 << pos) - 1)) | (mask >> (pos + 1) << pos)

    def sender(self, flow_id: int) -> Optional[SenderQP]:
        """Look up a registered sender by flow id."""
        return self._senders.get(flow_id)

    def receiver(self, flow_id: int) -> Optional[ReceiverQP]:
        """Look up a registered receiver by flow id."""
        return self._receivers.get(flow_id)

    # ------------------------------------------------------------------
    # NIC transmit scheduling (PacketSource protocol)
    # ------------------------------------------------------------------
    def notify_ready(self, flow_id: Optional[int] = None) -> None:
        """Mark ``flow_id``'s QP as worth polling (if it is registered) and
        kick the uplink; called when a QP may have become eligible."""
        pos = self._position.get(flow_id)
        if pos is not None:
            self._ready_mask |= 1 << pos
        if self.uplink_port is not None:
            self.uplink_port.kick()

    def enqueue_control(self, packet: Packet) -> None:
        """Queue an ACK/NACK/CNP for transmission ahead of data packets."""
        self._control_queue.append(packet)
        self.notify_ready()

    def next_packet(self, port: OutputPort) -> Optional[Packet]:
        """Serve control frames first, then round-robin over ready QPs: in the
        order a scan from ``_rr_index`` would poll them, skipping clear bits
        (a poll would find nothing).  An empty poll clears the bit unless the
        QP waits on the clock."""
        if self._control_queue:
            self.control_packets_sent += 1
            return self._control_queue.popleft()

        mask = self._ready_mask
        if not mask:
            return None
        now = self.sim.now
        count = len(self._active_order)
        start = self._rr_index % count
        while mask:
            ahead = mask >> start
            if ahead:
                idx = start + (ahead & -ahead).bit_length() - 1
            else:
                idx = (mask & -mask).bit_length() - 1
            sender = self._senders[self._active_order[idx]]
            packet = sender.next_packet(now)
            if packet is not None:
                self._rr_index = (idx + 1) % count
                self.data_packets_sent += 1
                return packet
            bit = 1 << idx
            mask ^= bit
            if not sender.waits_on_clock:
                self._ready_mask &= ~bit
        return None

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        """Dispatch an arriving frame to the right QP."""
        if packet.pfc_frame:
            if self.uplink_port is not None:
                if packet.ptype is _PFC_PAUSE:
                    self.uplink_port.pause()
                else:
                    self.uplink_port.resume()
            return

        if packet.ptype is _DATA:
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
