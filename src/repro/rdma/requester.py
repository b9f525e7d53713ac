"""Requester-side RDMA logic (§5).

The requester packetizes posted work requests into RDMA packets carrying
IRN's extended headers, tracks responder acknowledgements via the message
sequence number (MSN), collects Read response packets (acknowledging each one
with IRN's read (N)ACK opcode, §5.2) and releases completion queue elements
to the application strictly in posting order.

Two packet-sequence-number spaces are kept, as required by §5.4: ``sPSN``
numbers the request packets the requester sends, ``rPSN`` numbers the Read
response packets it receives.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.rdma.types import (
    CompletionQueueElement,
    OpType,
    PacketOpcode,
    RdmaPacket,
    RequestWqe,
    WqeStatus,
)


@dataclass
class RequesterConfig:
    """Requester parameters."""

    mtu_bytes: int = 1000
    #: BDP cap: bounds outstanding request packets (BDP-FC) and sizes bitmaps.
    bdp_cap_packets: int = 110


class Requester:
    """The requester (initiator) side of a reliable-connected queue pair."""

    def __init__(self, config: Optional[RequesterConfig] = None) -> None:
        self.config = config or RequesterConfig()

        # Request (sPSN) space.
        self.next_spsn = 0
        #: Read-response (rPSN) space: next expected response sequence number.
        self.expected_rpsn = 0
        self._next_rpsn_alloc = 0
        self._ooo_read_responses: Set[int] = set()

        # WQE bookkeeping.
        self._pending: List[RequestWqe] = []        # posting order, not yet completed
        self._recv_wqe_counter = 0                  # recv_WQE_SN allocation
        self._read_wqe_counter = 0                  # read_WQE_SN allocation
        self._messages_posted = 0                   # message index == responder MSN target
        self._acked_msn = 0

        # Read response reassembly per WQE id.
        self._read_buffers: Dict[int, Dict[int, bytes]] = {}
        self._read_expected_packets: Dict[int, int] = {}
        self._read_rpsn_base: Dict[int, int] = {}

        self.outgoing: Deque[RdmaPacket] = deque()
        self.completions: Deque[CompletionQueueElement] = deque()

        # Statistics
        self.packets_built = 0
        self.read_acks_sent = 0
        self.read_nacks_sent = 0

    # ------------------------------------------------------------------
    # Posting work requests
    # ------------------------------------------------------------------
    def post(self, wqe: RequestWqe) -> List[RdmaPacket]:
        """Post a work request; returns (and queues) the packets it produces."""
        wqe.status = WqeStatus.IN_PROGRESS
        if wqe.op.needs_receive_wqe:
            wqe.recv_wqe_sn = self._recv_wqe_counter
            self._recv_wqe_counter += 1
        if wqe.op is OpType.READ or wqe.op.is_atomic:
            wqe.read_wqe_sn = self._read_wqe_counter
            self._read_wqe_counter += 1

        packets = self._packetize(wqe)
        wqe.start_psn = packets[0].psn if packets else self.next_spsn
        wqe.num_packets = len(packets)
        self._pending.append(wqe)
        self._messages_posted += 1
        self.outgoing.extend(packets)
        self.packets_built += len(packets)
        return packets

    def pop_outgoing(self) -> List[RdmaPacket]:
        """Drain the queue of packets waiting to be handed to the transport."""
        packets = list(self.outgoing)
        self.outgoing.clear()
        return packets

    def poll_cq(self) -> List[CompletionQueueElement]:
        """Drain the completion queue."""
        cqes = list(self.completions)
        self.completions.clear()
        return cqes

    @property
    def outstanding_requests(self) -> int:
        """Posted WQEs whose completion has not yet been delivered."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Packetization
    # ------------------------------------------------------------------
    def _packetize(self, wqe: RequestWqe) -> List[RdmaPacket]:
        mtu = self.config.mtu_bytes
        if wqe.op in (OpType.WRITE, OpType.WRITE_WITH_IMM):
            return self._packetize_write(wqe, mtu)
        if wqe.op in (OpType.SEND, OpType.SEND_WITH_INV):
            return self._packetize_send(wqe, mtu)
        if wqe.op is OpType.READ:
            return [self._build_read_request(wqe)]
        if wqe.op.is_atomic:
            return [self._build_atomic_request(wqe)]
        raise ValueError(f"unsupported operation {wqe.op!r}")

    def _chunks(self, data: bytes, mtu: int) -> List[bytes]:
        if not data:
            return [b""]
        return [data[i:i + mtu] for i in range(0, len(data), mtu)]

    def _packetize_write(self, wqe: RequestWqe, mtu: int) -> List[RdmaPacket]:
        chunks = self._chunks(wqe.local_data, mtu)
        packets = []
        for index, chunk in enumerate(chunks):
            last = index == len(chunks) - 1
            if wqe.op is OpType.WRITE_WITH_IMM and last:
                opcode = (
                    PacketOpcode.WRITE_ONLY_WITH_IMM if len(chunks) == 1
                    else PacketOpcode.WRITE_LAST_WITH_IMM
                )
            elif len(chunks) == 1:
                opcode = PacketOpcode.WRITE_ONLY
            elif index == 0:
                opcode = PacketOpcode.WRITE_FIRST
            elif last:
                opcode = PacketOpcode.WRITE_LAST
            else:
                opcode = PacketOpcode.WRITE_MIDDLE
            packets.append(
                RdmaPacket(
                    opcode=opcode,
                    psn=self._alloc_spsn(),
                    payload=chunk,
                    # IRN extension (§5.3.1): the RETH rides on *every* packet.
                    reth_addr=wqe.remote_addr,
                    rkey=wqe.rkey,
                    immediate=wqe.immediate if (last and wqe.op is OpType.WRITE_WITH_IMM) else None,
                    recv_wqe_sn=wqe.recv_wqe_sn if (last and wqe.op is OpType.WRITE_WITH_IMM) else None,
                    offset=index,
                    last=last,
                )
            )
        return packets

    def _packetize_send(self, wqe: RequestWqe, mtu: int) -> List[RdmaPacket]:
        chunks = self._chunks(wqe.local_data, mtu)
        packets = []
        for index, chunk in enumerate(chunks):
            last = index == len(chunks) - 1
            if len(chunks) == 1:
                opcode = PacketOpcode.SEND_ONLY
            elif index == 0:
                opcode = PacketOpcode.SEND_FIRST
            elif last:
                opcode = PacketOpcode.SEND_LAST
            else:
                opcode = PacketOpcode.SEND_MIDDLE
            packets.append(
                RdmaPacket(
                    opcode=opcode,
                    psn=self._alloc_spsn(),
                    payload=chunk,
                    # IRN extension (§5.3.2): every Send packet carries the
                    # recv_WQE_SN and its offset so it can be placed OOO.
                    recv_wqe_sn=wqe.recv_wqe_sn,
                    invalidate_rkey=wqe.invalidate_rkey if last and wqe.op is OpType.SEND_WITH_INV else None,
                    offset=index,
                    last=last,
                )
            )
        return packets

    def _build_read_request(self, wqe: RequestWqe) -> RdmaPacket:
        response_packets = max(1, math.ceil(wqe.length / self.config.mtu_bytes))
        rpsn_base = self._next_rpsn_alloc
        self._next_rpsn_alloc += response_packets
        self._read_buffers[wqe.wqe_id] = {}
        self._read_expected_packets[wqe.wqe_id] = response_packets
        self._read_rpsn_base[wqe.wqe_id] = rpsn_base
        return RdmaPacket(
            opcode=PacketOpcode.READ_REQUEST,
            psn=self._alloc_spsn(),
            read_length=wqe.length,
            read_remote_addr=wqe.remote_addr,
            rkey=wqe.rkey,
            read_wqe_sn=wqe.read_wqe_sn,
            last=True,
        )

    def _build_atomic_request(self, wqe: RequestWqe) -> RdmaPacket:
        return RdmaPacket(
            opcode=PacketOpcode.ATOMIC_REQUEST,
            psn=self._alloc_spsn(),
            read_remote_addr=wqe.remote_addr,
            rkey=wqe.rkey,
            read_wqe_sn=wqe.read_wqe_sn,
            atomic_op=wqe.op,
            atomic_add=wqe.atomic_add,
            atomic_compare=wqe.atomic_compare,
            atomic_swap=wqe.atomic_swap,
            last=True,
        )

    def _alloc_spsn(self) -> int:
        psn = self.next_spsn
        self.next_spsn += 1
        return psn

    # ------------------------------------------------------------------
    # Response handling
    # ------------------------------------------------------------------
    def on_packet(self, packet: RdmaPacket) -> List[RdmaPacket]:
        """Process a responder-to-requester packet; returns read (N)ACKs."""
        if packet.opcode in (PacketOpcode.ACK, PacketOpcode.NACK, PacketOpcode.RNR_NACK):
            self._acked_msn = max(self._acked_msn, packet.msn)
            self._try_complete()
            return []
        if packet.opcode is PacketOpcode.ATOMIC_RESPONSE:
            self._on_atomic_response(packet)
            return []
        if packet.opcode is PacketOpcode.READ_RESPONSE:
            return self._on_read_response(packet)
        return []

    def _on_atomic_response(self, packet: RdmaPacket) -> None:
        for wqe in self._pending:
            if wqe.op.is_atomic and wqe.read_wqe_sn == packet.read_wqe_sn:
                wqe.status = WqeStatus.COMPLETED
                wqe.atomic_result = packet.atomic_result
                break
        self._try_complete()

    def _on_read_response(self, packet: RdmaPacket) -> List[RdmaPacket]:
        responses: List[RdmaPacket] = []
        rpsn = packet.psn
        # Per-packet read (N)ACK generation (§5.2).
        if rpsn == self.expected_rpsn:
            self.expected_rpsn += 1
            while self.expected_rpsn in self._ooo_read_responses:
                self._ooo_read_responses.remove(self.expected_rpsn)
                self.expected_rpsn += 1
            responses.append(
                RdmaPacket(
                    opcode=PacketOpcode.READ_ACK,
                    psn=rpsn,
                    cumulative_psn=self.expected_rpsn,
                )
            )
            self.read_acks_sent += 1
        elif rpsn > self.expected_rpsn:
            self._ooo_read_responses.add(rpsn)
            responses.append(
                RdmaPacket(
                    opcode=PacketOpcode.READ_NACK,
                    psn=rpsn,
                    cumulative_psn=self.expected_rpsn,
                    sack_psn=rpsn,
                )
            )
            self.read_nacks_sent += 1
        else:
            # Duplicate response; acknowledge cumulatively.
            responses.append(
                RdmaPacket(
                    opcode=PacketOpcode.READ_ACK,
                    psn=rpsn,
                    cumulative_psn=self.expected_rpsn,
                )
            )
            self.read_acks_sent += 1

        # Stash the data with the owning Read WQE.
        target = self._find_read_wqe_by_rpsn(rpsn)
        if target is not None:
            buffer = self._read_buffers[target.wqe_id]
            offset = rpsn - self._read_rpsn_base[target.wqe_id]
            if offset not in buffer:
                buffer[offset] = packet.payload
            if len(buffer) >= self._read_expected_packets[target.wqe_id]:
                target.status = WqeStatus.COMPLETED
        self._try_complete()
        return responses

    def _find_read_wqe_by_rpsn(self, rpsn: int) -> Optional[RequestWqe]:
        for wqe in self._pending:
            if wqe.op is not OpType.READ:
                continue
            base = self._read_rpsn_base[wqe.wqe_id]
            if base <= rpsn < base + self._read_expected_packets[wqe.wqe_id]:
                return wqe
        return None

    # ------------------------------------------------------------------
    # Completion (strictly in posting order)
    # ------------------------------------------------------------------
    def _try_complete(self) -> None:
        while self._pending:
            wqe = self._pending[0]
            # Index of this message in posting order (the responder's MSN
            # reaches message_index + 1 once the message is fully received).
            message_index = self._messages_posted - len(self._pending)
            if wqe.op in (OpType.WRITE, OpType.WRITE_WITH_IMM, OpType.SEND, OpType.SEND_WITH_INV):
                if self._acked_msn <= message_index:
                    break
            elif wqe.op is OpType.READ:
                if wqe.status is not WqeStatus.COMPLETED:
                    break
            elif wqe.op.is_atomic:
                if wqe.status is not WqeStatus.COMPLETED:
                    break
            self._pending.pop(0)
            wqe.status = WqeStatus.COMPLETED
            self.completions.append(self._build_cqe(wqe))

    def _build_cqe(self, wqe: RequestWqe) -> CompletionQueueElement:
        read_data: Optional[bytes] = None
        if wqe.op is OpType.READ:
            chunks = self._read_buffers.pop(wqe.wqe_id, {})
            read_data = b"".join(chunks[i] for i in sorted(chunks))[: wqe.length]
        return CompletionQueueElement(
            wqe_id=wqe.wqe_id,
            op=wqe.op,
            byte_len=wqe.length or len(wqe.local_data),
            immediate=wqe.immediate,
            is_receive=False,
            atomic_result=wqe.atomic_result,
            read_data=read_data,
        )
