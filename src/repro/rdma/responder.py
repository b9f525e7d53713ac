"""Responder-side RDMA logic with out-of-order packet delivery (§5.3).

The responder DMA-places out-of-order packets directly at their final address
in application memory and tracks them with a 2-bitmap: one bit records that
the packet arrived, the other that it is the last packet of a message whose
completion actions (MSN update, Receive-WQE expiration, CQE generation) must
fire only once every packet up to it has arrived.  Premature CQEs for
messages whose last packet arrived early are buffered until that point.

Read and Atomic requests that arrive out of order are parked in the Read WQE
buffer (indexed by their ``read_WQE_SN``) and executed only when all earlier
packets have been received, preserving the Infiniband ordering rules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.rdma.srq import SharedReceiveQueue
from repro.rdma.types import (
    CompletionQueueElement,
    MemoryRegion,
    OpType,
    PacketOpcode,
    RdmaPacket,
    ReceiveWqe,
    WqeStatus,
)


@dataclass
class ResponderConfig:
    """Responder parameters."""

    mtu_bytes: int = 1000
    #: BDP cap: sizes the 2-bitmap and bounds how far ahead packets may arrive.
    bdp_cap_packets: int = 110
    #: Use end-to-end credits for Send/Write-with-immediate (§B.3).
    use_credits: bool = True


@dataclass
class _PendingCompletion:
    """Completion actions recorded when a message's last packet arrives."""

    op: OpType
    recv_wqe_sn: Optional[int]
    immediate: Optional[int]
    invalidate_rkey: Optional[int]
    byte_len: int


class Responder:
    """The responder (target) side of a reliable-connected queue pair."""

    def __init__(
        self,
        config: Optional[ResponderConfig] = None,
        srq: Optional[SharedReceiveQueue] = None,
    ) -> None:
        self.config = config or ResponderConfig()
        self.srq = srq

        #: Registered memory regions by rkey.
        self.memory: Dict[int, MemoryRegion] = {}

        #: Expected (next in-order) request PSN.
        self.expected_psn = 0
        #: Message sequence number: completed messages, echoed in ACKs.
        self.msn = 0
        #: Arrival half of the 2-bitmap: PSNs received ahead of expected_psn.
        self.arrived: Set[int] = set()
        #: "Last packet" half of the 2-bitmap: completion actions keyed by the
        #: PSN that triggers them once everything before it has arrived.
        self.pending_completions: Dict[int, _PendingCompletion] = {}
        #: Read/Atomic requests parked until they can execute in order.
        self.read_wqe_buffer: Dict[int, RdmaPacket] = {}
        self._read_request_psns: Dict[int, int] = {}

        # Receive queue (per-QP) or SRQ; recv_WQE_SN allocation state.
        self._receive_queue: Deque[ReceiveWqe] = deque()
        self._allotted_recv_wqes: List[ReceiveWqe] = []   # indexed by recv_wqe_sn
        self._expired_recv_wqes = 0

        #: Read responses use their own PSN space (the requester's rPSN).
        self.next_response_psn = 0

        self.completions: Deque[CompletionQueueElement] = deque()

        # Statistics
        self.packets_processed = 0
        self.duplicates = 0
        self.ooo_arrivals = 0
        self.rnr_nacks = 0
        self.dropped_probes = 0

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------
    def register_memory(self, region: MemoryRegion) -> None:
        """Register a memory region so requests can target its rkey."""
        self.memory[region.rkey] = region

    def post_receive(self, wqe: ReceiveWqe) -> None:
        """Post a receive WQE on the per-QP receive queue.

        With a per-QP queue the ``recv_WQE_SN`` is allotted at post time; with
        an SRQ it is allotted lazily at dequeue time (§B.2).
        """
        if self.srq is not None:
            raise RuntimeError("this QP uses an SRQ; post receives to the SRQ instead")
        wqe.recv_wqe_sn = len(self._allotted_recv_wqes)
        self._receive_queue.append(wqe)
        self._allotted_recv_wqes.append(wqe)

    def poll_cq(self) -> List[CompletionQueueElement]:
        """Drain responder-side completions (receive CQEs)."""
        cqes = list(self.completions)
        self.completions.clear()
        return cqes

    def available_credits(self) -> int:
        """Receive WQEs available but not yet consumed (piggybacked in ACKs)."""
        if self.srq is not None:
            return len(self.srq)
        return len(self._allotted_recv_wqes) - self._expired_recv_wqes

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------
    def on_request(self, packet: RdmaPacket) -> List[RdmaPacket]:
        """Process one requester-to-responder packet; returns responses."""
        self.packets_processed += 1
        psn = packet.psn

        if psn < self.expected_psn or psn in self.arrived:
            self.duplicates += 1
            return [self._ack(duplicate=True)]

        if psn >= self.expected_psn + self.config.bdp_cap_packets:
            # Beyond the BDP cap: cannot track it in the bitmaps; drop it and
            # let the sender's loss recovery handle the retransmission.
            self.dropped_probes += 1
            return []

        in_order = psn == self.expected_psn

        # Handle operations that need a Receive WQE before any state changes.
        if packet.opcode in (
            PacketOpcode.SEND_FIRST, PacketOpcode.SEND_MIDDLE,
            PacketOpcode.SEND_LAST, PacketOpcode.SEND_ONLY,
        ):
            wqe = self._recv_wqe_for(packet.recv_wqe_sn)
            if wqe is None:
                if in_order:
                    self.rnr_nacks += 1
                    return [self._rnr_nack()]
                # An out-of-sequence probe without credits is silently dropped
                # (§B.3): sending an RNR NACK now would be ill-timed and
                # placing the data could overwrite another message's buffer.
                self.dropped_probes += 1
                return []
            self._place_send(packet, wqe)
        elif packet.opcode in (
            PacketOpcode.WRITE_FIRST, PacketOpcode.WRITE_MIDDLE,
            PacketOpcode.WRITE_LAST, PacketOpcode.WRITE_ONLY,
            PacketOpcode.WRITE_LAST_WITH_IMM, PacketOpcode.WRITE_ONLY_WITH_IMM,
        ):
            error = self._place_write(packet)
            if error is not None:
                return [error]
        elif packet.opcode in (PacketOpcode.READ_REQUEST, PacketOpcode.ATOMIC_REQUEST):
            # Park the request in the Read WQE buffer, indexed by read_WQE_SN,
            # until every earlier packet has arrived (§5.3.2).
            if packet.read_wqe_sn is None:
                raise ValueError("Read/Atomic request without a read_WQE_SN")
            self.read_wqe_buffer[packet.read_wqe_sn] = packet
            self._read_request_psns[packet.read_wqe_sn] = psn
        else:
            raise ValueError(f"unexpected request opcode {packet.opcode!r}")

        # Record arrival and last-packet completion actions (the 2-bitmap).
        if packet.last and packet.opcode not in (
            PacketOpcode.READ_REQUEST, PacketOpcode.ATOMIC_REQUEST,
        ):
            self.pending_completions[psn] = _PendingCompletion(
                op=self._op_for(packet.opcode),
                recv_wqe_sn=packet.recv_wqe_sn,
                immediate=packet.immediate,
                invalidate_rkey=packet.invalidate_rkey,
                byte_len=len(packet.payload) + packet.offset * self.config.mtu_bytes,
            )

        responses: List[RdmaPacket] = []
        if in_order:
            self.expected_psn += 1
            responses.extend(self._advance())
            responses.insert(0, self._ack())
        else:
            self.ooo_arrivals += 1
            self.arrived.add(psn)
            responses.append(self._nack(sack_psn=psn))
        return responses

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _region(self, rkey: int) -> Optional[MemoryRegion]:
        region = self.memory.get(rkey)
        if region is None or not region.valid:
            return None
        return region

    def _place_write(self, packet: RdmaPacket) -> Optional[RdmaPacket]:
        if packet.reth_addr is None:
            raise ValueError("Write packet without a RETH (remote address)")
        region = self._region(packet.rkey)
        if region is None:
            return self._error_nack()
        if packet.payload:
            region.write(packet.reth_addr + packet.offset * self.config.mtu_bytes, packet.payload)
        return None

    def _place_send(self, packet: RdmaPacket, wqe: ReceiveWqe) -> None:
        if not packet.payload:
            return
        region = self._region(0) or next(iter(self.memory.values()), None)
        if region is None:
            raise RuntimeError("no memory region registered for Send placement")
        region.write(wqe.buffer_addr + packet.offset * self.config.mtu_bytes, packet.payload)

    def _recv_wqe_for(self, recv_wqe_sn: Optional[int]) -> Optional[ReceiveWqe]:
        """Find (or, with an SRQ, allot) the receive WQE for a Send packet."""
        if recv_wqe_sn is None:
            return None
        if self.srq is not None:
            while len(self._allotted_recv_wqes) <= recv_wqe_sn:
                wqe = self.srq.dequeue()
                if wqe is None:
                    return None
                wqe.recv_wqe_sn = len(self._allotted_recv_wqes)
                self._allotted_recv_wqes.append(wqe)
            return self._allotted_recv_wqes[recv_wqe_sn]
        if recv_wqe_sn < len(self._allotted_recv_wqes):
            return self._allotted_recv_wqes[recv_wqe_sn]
        return None

    @staticmethod
    def _op_for(opcode: PacketOpcode) -> OpType:
        if opcode in (PacketOpcode.WRITE_LAST_WITH_IMM, PacketOpcode.WRITE_ONLY_WITH_IMM):
            return OpType.WRITE_WITH_IMM
        if opcode in (
            PacketOpcode.WRITE_FIRST, PacketOpcode.WRITE_MIDDLE,
            PacketOpcode.WRITE_LAST, PacketOpcode.WRITE_ONLY,
        ):
            return OpType.WRITE
        return OpType.SEND

    # ------------------------------------------------------------------
    # In-order advancement: MSN updates, CQEs, Read/Atomic execution
    # ------------------------------------------------------------------
    def _advance(self) -> List[RdmaPacket]:
        """Advance ``expected_psn`` over received packets, firing completions.

        Called after ``expected_psn`` moved past an in-order arrival: fires
        the completion actions of every packet the window passes (in PSN
        order) and executes any Read/Atomic request whose turn has come.
        """
        responses: List[RdmaPacket] = []
        self._maybe_fire(self.expected_psn - 1)
        responses.extend(self._execute_ready_reads())
        while self.expected_psn in self.arrived:
            self.arrived.remove(self.expected_psn)
            self.expected_psn += 1
            self._maybe_fire(self.expected_psn - 1)
            responses.extend(self._execute_ready_reads())
        return responses

    def _maybe_fire(self, psn: int) -> None:
        pending = self.pending_completions.pop(psn, None)
        if pending is not None:
            self._fire_completion(pending)

    def _fire_completion(self, pending: _PendingCompletion) -> None:
        self.msn += 1
        if pending.op in (OpType.SEND, OpType.SEND_WITH_INV, OpType.WRITE_WITH_IMM):
            wqe = self._recv_wqe_for(pending.recv_wqe_sn)
            if wqe is not None:
                wqe.status = WqeStatus.COMPLETED
                self._expired_recv_wqes += 1
            self.completions.append(
                CompletionQueueElement(
                    wqe_id=wqe.wqe_id if wqe is not None else -1,
                    op=pending.op,
                    byte_len=pending.byte_len,
                    immediate=pending.immediate,
                    is_receive=True,
                )
            )
        if pending.invalidate_rkey is not None:
            region = self.memory.get(pending.invalidate_rkey)
            if region is not None:
                region.invalidate()

    def _execute_ready_reads(self) -> List[RdmaPacket]:
        """Execute parked Read/Atomic requests whose turn has come."""
        responses: List[RdmaPacket] = []
        ready = sorted(
            sn for sn, psn in self._read_request_psns.items() if psn < self.expected_psn
        )
        for read_sn in ready:
            packet = self.read_wqe_buffer.pop(read_sn)
            del self._read_request_psns[read_sn]
            self.msn += 1
            if packet.opcode is PacketOpcode.READ_REQUEST:
                responses.extend(self._execute_read(packet))
            else:
                responses.append(self._execute_atomic(packet))
        return responses

    def _execute_read(self, packet: RdmaPacket) -> List[RdmaPacket]:
        region = self._region(packet.rkey)
        if region is None:
            return [self._error_nack()]
        data = region.read(packet.read_remote_addr, packet.read_length)
        mtu = self.config.mtu_bytes
        chunks = [data[i:i + mtu] for i in range(0, len(data), mtu)] or [b""]
        responses = []
        for index, chunk in enumerate(chunks):
            responses.append(
                RdmaPacket(
                    opcode=PacketOpcode.READ_RESPONSE,
                    psn=self.next_response_psn,
                    payload=chunk,
                    read_wqe_sn=packet.read_wqe_sn,
                    offset=index,
                    last=index == len(chunks) - 1,
                    msn=self.msn,
                )
            )
            self.next_response_psn += 1
        return responses

    def _execute_atomic(self, packet: RdmaPacket) -> RdmaPacket:
        region = self._region(packet.rkey)
        if region is None:
            return self._error_nack()
        original = region.read_u64(packet.read_remote_addr)
        if packet.atomic_op is OpType.ATOMIC_FETCH_ADD:
            region.write_u64(packet.read_remote_addr, original + packet.atomic_add)
        elif packet.atomic_op is OpType.ATOMIC_CMP_SWAP:
            if original == packet.atomic_compare:
                region.write_u64(packet.read_remote_addr, packet.atomic_swap)
        return RdmaPacket(
            opcode=PacketOpcode.ATOMIC_RESPONSE,
            psn=self.next_response_psn,
            read_wqe_sn=packet.read_wqe_sn,
            atomic_result=original,
            msn=self.msn,
        )

    # ------------------------------------------------------------------
    # Acknowledgement construction
    # ------------------------------------------------------------------
    def _ack(self, duplicate: bool = False) -> RdmaPacket:
        return RdmaPacket(
            opcode=PacketOpcode.ACK,
            psn=self.expected_psn,
            cumulative_psn=self.expected_psn,
            msn=self.msn,
            credits=self.available_credits() if self.config.use_credits else 0,
        )

    def _nack(self, sack_psn: int) -> RdmaPacket:
        return RdmaPacket(
            opcode=PacketOpcode.NACK,
            psn=self.expected_psn,
            cumulative_psn=self.expected_psn,
            sack_psn=sack_psn,
            msn=self.msn,
            credits=self.available_credits() if self.config.use_credits else 0,
        )

    def _rnr_nack(self) -> RdmaPacket:
        return RdmaPacket(
            opcode=PacketOpcode.RNR_NACK,
            psn=self.expected_psn,
            cumulative_psn=self.expected_psn,
            msn=self.msn,
        )

    def _error_nack(self) -> RdmaPacket:
        return RdmaPacket(
            opcode=PacketOpcode.NACK,
            psn=self.expected_psn,
            cumulative_psn=self.expected_psn,
            msn=self.msn,
            sack_psn=None,
        )
