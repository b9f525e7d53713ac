"""Packet and frame definitions.

Packets model RoCEv2-style datagrams: a data payload carried over
Ethernet/IP/UDP with a base transport header (PSN, opcode) plus the IRN
extensions described in §5 of the paper (per-packet RETH, WQE sequence
numbers).  Control frames (ACK/NACK, DCQCN CNPs, PFC pause/resume) use the
same class with a different :class:`PacketType`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional


class PacketType(Enum):
    """Kinds of frames that traverse the simulated network."""

    DATA = auto()
    ACK = auto()
    NACK = auto()
    CNP = auto()          # DCQCN congestion notification packet
    PFC_PAUSE = auto()    # priority flow control X-OFF
    PFC_RESUME = auto()   # priority flow control X-ON


#: Ethernet + IP + UDP + BTH (+ICRC) overhead carried by every RoCEv2 packet.
DEFAULT_HEADER_BYTES = 48

#: Size of an ACK/NACK/CNP control frame on the wire.
CONTROL_FRAME_BYTES = 64

#: Size of a PFC pause/resume frame on the wire.
PFC_FRAME_BYTES = 64


_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """A single frame in flight.

    Attributes
    ----------
    flow_id:
        Identifier of the flow (queue pair) the packet belongs to.  Control
        frames echo the flow id of the data flow they refer to.
    src, dst:
        Names of the originating and destination hosts.
    psn:
        Packet sequence number within the flow (data packets), or the
        sequence number being acknowledged (ACK/NACK).
    payload_bytes:
        Application payload carried (0 for control frames).
    header_bytes:
        Wire overhead added to the payload.  IRN's worst-case overhead model
        (§6.3) inflates this by 16 bytes per data packet.
    """

    ptype: PacketType
    flow_id: int
    src: str
    dst: str
    psn: int = 0
    payload_bytes: int = 0
    header_bytes: int = DEFAULT_HEADER_BYTES
    priority: int = 0

    # Acknowledgement fields -------------------------------------------------
    #: Cumulative acknowledgement (the receiver's expected sequence number).
    cumulative_ack: int = 0
    #: Sequence number that triggered a NACK (IRN's simplified SACK field).
    sack_psn: Optional[int] = None
    #: True when the NACK signals "receiver not ready" or another error that
    #: must trigger go-back-N semantics even under IRN (§B.4).
    error_nack: bool = False

    # Congestion signalling ---------------------------------------------------
    #: ECN Congestion Experienced codepoint, set by switches.
    ecn: bool = False
    #: Echo of the ECN bit in ACKs (used by DCTCP-style control).
    ecn_echo: bool = False

    # Message bookkeeping ------------------------------------------------------
    #: Identifier of the RDMA message this packet belongs to.
    msg_id: int = 0
    #: True for the last packet of its message.
    last_of_message: bool = False
    #: True if this is a retransmission.
    retransmitted: bool = False

    # Timestamps ---------------------------------------------------------------
    #: Time the packet (or the data packet an ACK acknowledges) was sent;
    #: used for RTT estimation by Timely and the TCP stack.
    sent_time: float = 0.0
    #: Timestamp echoed back by the receiver in ACKs.
    echo_time: float = 0.0

    # PFC ------------------------------------------------------------------------
    #: For PFC frames: the priority class being paused/resumed.
    pfc_priority: int = 0

    #: Unique id, handy for debugging and for per-packet ECMP spraying.
    uid: int = field(default_factory=lambda: next(_packet_ids))

    #: Total wire size of the frame, fixed at construction (every sizing
    #: field is an init argument; post-construction mutation only touches
    #: marking/acknowledgement fields).  Plain attributes because the
    #: serialization path reads them per transmitted packet.
    size_bytes: int = field(init=False, repr=False, default=0)
    #: Total wire size in bits.
    size_bits: int = field(init=False, repr=False, default=0)
    #: True for PFC pause/resume frames.  ``ptype`` never changes after
    #: construction, and every node tests this once per arriving frame.
    pfc_frame: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        if self.ptype is PacketType.DATA:
            self.size_bytes = self.payload_bytes + self.header_bytes
        elif self.ptype in (PacketType.PFC_PAUSE, PacketType.PFC_RESUME):
            self.size_bytes = PFC_FRAME_BYTES
            self.pfc_frame = True
        else:
            self.size_bytes = CONTROL_FRAME_BYTES
        self.size_bits = self.size_bytes * 8

    def is_control(self) -> bool:
        """True for ACK/NACK/CNP frames (not data, not PFC)."""
        return self.ptype in (PacketType.ACK, PacketType.NACK, PacketType.CNP)

    def is_pfc(self) -> bool:
        """True for PFC pause/resume frames."""
        return self.pfc_frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.ptype.name}, flow={self.flow_id}, psn={self.psn}, "
            f"{self.src}->{self.dst}, {self.size_bytes}B)"
        )
