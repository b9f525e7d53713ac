"""Packet and frame definitions.

Packets model RoCEv2-style datagrams: a data payload carried over
Ethernet/IP/UDP with a base transport header (PSN, opcode) plus the IRN
extensions described in §5 of the paper (per-packet RETH, WQE sequence
numbers).  Control frames (ACK/NACK, DCQCN CNPs, PFC pause/resume) use the
same class with a different :class:`PacketType`.
"""

from __future__ import annotations

import itertools
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


#: Numbers ``Packet.uid``; ``run_experiment`` restarts it for every run.
_packet_ids = itertools.count()

# Looking a member up on the Enum class costs about as much as storing five
# fields; the constructor tests the type up to three times per frame.
_DATA = PacketType.DATA
_PFC_PAUSE = PacketType.PFC_PAUSE
_PFC_RESUME = PacketType.PFC_RESUME


class Packet:
    """A single frame in flight.

    A plain ``__slots__`` class with a hand-written constructor: every data
    frame, ACK, NACK, CNP and PFC frame of a run is built here, so
    construction stores the fields and nothing else.  Packets compare and
    hash by identity.

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
    cumulative_ack:
        Cumulative acknowledgement (the receiver's expected sequence number).
    sack_psn:
        Sequence number that triggered a NACK (IRN's simplified SACK field).
    error_nack:
        True when the NACK signals "receiver not ready" or another error that
        must trigger go-back-N semantics even under IRN (§B.4).
    ecn:
        ECN Congestion Experienced codepoint, set by switches.
    ecn_echo:
        Echo of the ECN bit in ACKs (used by DCTCP-style control).
    last_of_message:
        True for the last packet of its message.
    retransmitted:
        True if this is a retransmission.
    sent_time:
        Time the packet (or the data packet an ACK acknowledges) was sent;
        used for RTT estimation by Timely and the TCP stack.
    echo_time:
        Timestamp echoed back by the receiver in ACKs.
    uid:
        Unique id, in construction order; handy for debugging and for
        per-packet ECMP spraying.
    size_bytes, size_bits:
        Total wire size of the frame, fixed at construction (every sizing
        field is a constructor argument; later mutation only touches
        marking/acknowledgement fields).  Plain attributes because the
        serialization path reads them per transmitted packet.
    pfc_frame:
        True for PFC pause/resume frames.  ``ptype`` never changes after
        construction, and every node tests this once per arriving frame.
    """

    __slots__ = (
        "ptype", "flow_id", "src", "dst", "psn", "payload_bytes", "header_bytes",
        "last_of_message", "retransmitted", "sent_time", "cumulative_ack", "sack_psn",
        "ecn_echo", "echo_time", "error_nack", "ecn", "uid", "size_bytes", "size_bits",
        "pfc_frame",
    )

    # Parameter order is the hot callers' order, so each passes every field
    # it sets positionally, the cheapest way CPython binds arguments: a data
    # frame stops after ``sent_time``, an ACK/NACK after ``echo_time`` and a
    # PFC frame after ``dst``.
    def __init__(
        self,
        ptype: PacketType,
        flow_id: int,
        src: str,
        dst: str,
        psn: int = 0,
        payload_bytes: int = 0,
        header_bytes: int = DEFAULT_HEADER_BYTES,
        last_of_message: bool = False,
        retransmitted: bool = False,
        sent_time: float = 0.0,
        cumulative_ack: int = 0,
        sack_psn: Optional[int] = None,
        ecn_echo: bool = False,
        echo_time: float = 0.0,
        error_nack: bool = False,
        ecn: bool = False,
    ) -> None:
        self.ptype = ptype
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.psn = psn
        self.payload_bytes = payload_bytes
        self.header_bytes = header_bytes
        self.last_of_message = last_of_message
        self.retransmitted = retransmitted
        self.sent_time = sent_time
        self.cumulative_ack = cumulative_ack
        self.sack_psn = sack_psn
        self.ecn_echo = ecn_echo
        self.echo_time = echo_time
        self.error_nack = error_nack
        self.ecn = ecn
        self.uid = next(_packet_ids)
        if ptype is _DATA:
            size = payload_bytes + header_bytes
            self.pfc_frame = False
        elif ptype is _PFC_PAUSE or ptype is _PFC_RESUME:
            size = PFC_FRAME_BYTES
            self.pfc_frame = True
        else:
            size = CONTROL_FRAME_BYTES
            self.pfc_frame = False
        self.size_bytes = size
        self.size_bits = size * 8

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
