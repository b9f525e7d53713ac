"""Data types of the RDMA verbs layer: WQEs, CQEs, packets and memory regions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional


class OpType(Enum):
    """RDMA operation types supported by the NIC (§5.1)."""

    WRITE = auto()
    WRITE_WITH_IMM = auto()
    READ = auto()
    SEND = auto()
    SEND_WITH_INV = auto()
    ATOMIC_FETCH_ADD = auto()
    ATOMIC_CMP_SWAP = auto()

    @property
    def is_atomic(self) -> bool:
        return self in (OpType.ATOMIC_FETCH_ADD, OpType.ATOMIC_CMP_SWAP)

    @property
    def needs_receive_wqe(self) -> bool:
        """Operations that consume a Receive WQE at the responder."""
        return self in (OpType.SEND, OpType.SEND_WITH_INV, OpType.WRITE_WITH_IMM)


class PacketOpcode(Enum):
    """Wire opcodes (a subset of the Infiniband BTH opcodes, plus IRN's
    read (N)ACK which uses one of the reserved reliable-connected opcodes)."""

    WRITE_FIRST = auto()
    WRITE_MIDDLE = auto()
    WRITE_LAST = auto()
    WRITE_ONLY = auto()
    WRITE_LAST_WITH_IMM = auto()
    WRITE_ONLY_WITH_IMM = auto()
    SEND_FIRST = auto()
    SEND_MIDDLE = auto()
    SEND_LAST = auto()
    SEND_ONLY = auto()
    READ_REQUEST = auto()
    READ_RESPONSE = auto()
    ATOMIC_REQUEST = auto()
    ATOMIC_RESPONSE = auto()
    ACK = auto()
    NACK = auto()
    RNR_NACK = auto()
    #: IRN extension: per-packet acknowledgement of Read responses (§5.2).
    READ_ACK = auto()
    READ_NACK = auto()


class WqeStatus(Enum):
    """Lifecycle of a work queue element."""

    POSTED = auto()
    IN_PROGRESS = auto()
    COMPLETED = auto()
    ERROR = auto()


_wqe_ids = itertools.count()


@dataclass
class RequestWqe:
    """A work request posted at the requester (§5.1).

    The fields mirror what a verbs consumer supplies: operation, data length,
    local source buffer, remote address/rkey for one-sided operations, and
    immediate data where applicable.  IRN additionally stamps WQE sequence
    numbers used to match packets to WQEs under out-of-order delivery.
    """

    op: OpType
    length: int = 0
    local_data: bytes = b""
    remote_addr: int = 0
    rkey: int = 0
    immediate: Optional[int] = None
    #: For Send-with-invalidate: the rkey to invalidate at the responder.
    invalidate_rkey: Optional[int] = None
    #: Atomic operands.
    atomic_add: int = 0
    atomic_compare: int = 0
    atomic_swap: int = 0
    #: Signal a CQE on completion (always true in this model).
    signaled: bool = True

    # Filled in by the requester when the WQE is posted.
    wqe_id: int = field(default_factory=lambda: next(_wqe_ids))
    status: WqeStatus = WqeStatus.POSTED
    #: Sequence number among Send/Write-with-imm requests (recv_WQE_SN, §5.3.2).
    recv_wqe_sn: Optional[int] = None
    #: Sequence number among Read/Atomic requests (read_WQE_SN, §5.3.2).
    read_wqe_sn: Optional[int] = None
    #: First PSN of the message and number of packets, set when packetized.
    start_psn: int = 0
    num_packets: int = 0
    #: Result returned by Atomic operations (original value at the address).
    atomic_result: Optional[int] = None


@dataclass
class ReceiveWqe:
    """A receive work request posted at the responder (sink buffer for Sends,
    completion hook for Write-with-immediate)."""

    buffer_addr: int = 0
    length: int = 0
    wqe_id: int = field(default_factory=lambda: next(_wqe_ids))
    status: WqeStatus = WqeStatus.POSTED
    #: Order in which the WQE was posted/allotted (recv_WQE_SN).
    recv_wqe_sn: Optional[int] = None


@dataclass
class CompletionQueueElement:
    """Signals completion of a request or receive WQE to the application."""

    wqe_id: int
    op: Optional[OpType]
    byte_len: int = 0
    immediate: Optional[int] = None
    #: True for responder-side (receive) completions.
    is_receive: bool = False
    #: Atomic/Read results returned to the requester.
    atomic_result: Optional[int] = None
    read_data: Optional[bytes] = None
    status: WqeStatus = WqeStatus.COMPLETED


@dataclass
class RdmaPacket:
    """One RDMA wire packet, carrying IRN's extended headers (§5.3.1).

    Under IRN every packet of a Write carries the RETH (remote address), Send
    packets carry the recv_WQE_SN and their payload offset, and Read/Atomic
    requests carry the read_WQE_SN, so any packet can be processed on arrival
    regardless of ordering.
    """

    opcode: PacketOpcode
    psn: int
    payload: bytes = b""
    #: Remote placement address (RETH); present on every Write packet.
    reth_addr: Optional[int] = None
    rkey: int = 0
    immediate: Optional[int] = None
    invalidate_rkey: Optional[int] = None
    #: Receive-WQE sequence number (Sends and last Write-with-imm packet).
    recv_wqe_sn: Optional[int] = None
    #: Read-WQE sequence number (Read/Atomic requests).
    read_wqe_sn: Optional[int] = None
    #: Payload offset of this packet within its message, in packets.
    offset: int = 0
    #: True for the last packet of its message.
    last: bool = False
    #: Read request metadata.
    read_length: int = 0
    read_remote_addr: int = 0
    #: Atomic operands.
    atomic_op: Optional[OpType] = None
    atomic_add: int = 0
    atomic_compare: int = 0
    atomic_swap: int = 0
    #: Acknowledgement fields.
    msn: int = 0
    cumulative_psn: int = 0
    sack_psn: Optional[int] = None
    #: Credits piggybacked on ACKs (§B.3).
    credits: int = 0
    #: Atomic response payload.
    atomic_result: Optional[int] = None

    @property
    def is_request(self) -> bool:
        return self.opcode not in (
            PacketOpcode.ACK,
            PacketOpcode.NACK,
            PacketOpcode.RNR_NACK,
            PacketOpcode.READ_RESPONSE,
            PacketOpcode.ATOMIC_RESPONSE,
            PacketOpcode.READ_ACK,
            PacketOpcode.READ_NACK,
        )


class MemoryRegion:
    """A registered memory region the NIC can DMA into.

    The responder places Write/Send payloads directly at their final address
    (IRN's OOO placement strategy, §5.3), so tests can verify byte-exact
    placement under arbitrary reordering.
    """

    def __init__(self, size: int, rkey: int = 0) -> None:
        if size <= 0:
            raise ValueError("memory region size must be positive")
        self.size = size
        self.rkey = rkey
        self.data = bytearray(size)
        self.valid = True

    def write(self, addr: int, payload: bytes) -> None:
        """DMA ``payload`` to ``addr`` (bounds checked)."""
        if not self.valid:
            raise PermissionError("memory region has been invalidated")
        if addr < 0 or addr + len(payload) > self.size:
            raise IndexError(f"write of {len(payload)} bytes at {addr} exceeds region size {self.size}")
        self.data[addr:addr + len(payload)] = payload

    def read(self, addr: int, length: int) -> bytes:
        """DMA ``length`` bytes from ``addr``."""
        if not self.valid:
            raise PermissionError("memory region has been invalidated")
        if addr < 0 or addr + length > self.size:
            raise IndexError(f"read of {length} bytes at {addr} exceeds region size {self.size}")
        return bytes(self.data[addr:addr + length])

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def invalidate(self) -> None:
        """Invalidate the region (target of Send-with-invalidate)."""
        self.valid = False
