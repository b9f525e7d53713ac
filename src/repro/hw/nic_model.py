"""Raw NIC pipeline model: iWARP vs RoCE (Table 1, §2.3).

The paper's Table 1 measures two real NICs (a Chelsio T-580-CR iWARP NIC and
a Mellanox MCX416A-BCAT RoCE NIC) issuing 64-byte batched RDMA Writes on one
queue pair: the iWARP NIC shows roughly 3x the latency and a quarter of the
message rate.  The explanation offered is architectural: the iWARP datapath
funnels every message through a hardware TCP stack plus the translation
layers (DDP/MPA) needed to map TCP's byte-stream onto RDMA segments, while
the RoCE datapath applies a single lightweight transport layer.

This module models both datapaths as pipelines of processing stages so the
Table 1 shape (who is faster, by roughly what factor) can be regenerated,
and so IRN can be shown to sit at RoCE-like message rates (§6.2's bottleneck
module throughput is well above the RoCE NIC's measured rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List


class NicKind(Enum):
    """NIC architectures compared in Table 1."""

    ROCE = "roce"
    IWARP = "iwarp"
    IRN = "irn"


@dataclass
class PipelineStage:
    """One stage of the NIC transmit/receive datapath."""

    name: str
    latency_ns: float
    #: Per-message occupancy of the stage (bounds the message rate).
    occupancy_ns: float


#: Stage latencies, loosely calibrated so the end-to-end numbers land near
#: Table 1 (RoCE: 0.94 us, 14.7 Mpps; iWARP: 2.89 us, 3.24 Mpps for 64B).
_ROCE_STAGES: List[PipelineStage] = [
    PipelineStage("doorbell+wqe_fetch", 150.0, 65.0),
    PipelineStage("dma_read_payload", 200.0, 50.0),
    PipelineStage("roce_transport", 120.0, 40.0),
    PipelineStage("packetize+mac", 80.0, 20.0),
]

_IWARP_EXTRA_STAGES: List[PipelineStage] = [
    PipelineStage("tcp_bytestream", 450.0, 300.0),
    PipelineStage("mpa_framing", 300.0, 150.0),
    PipelineStage("ddp_translation", 350.0, 200.0),
    PipelineStage("tcp_timers_and_cc", 250.0, 100.0),
]

#: IRN adds its bitmap manipulations to the RoCE pipeline; §6.2 measures
#: at most 16.5 ns of added latency and a 45 Mpps bottleneck, i.e. the added
#: stage never becomes the message-rate bottleneck.
_IRN_EXTRA_STAGES: List[PipelineStage] = [
    PipelineStage("irn_bitmap_logic", 16.5, 22.0),
]


@dataclass
class NicPerformance:
    """Raw single-QP performance of a NIC."""

    kind: NicKind
    latency_us: float
    message_rate_mpps: float


class NicPipelineModel:
    """Computes latency and message rate from a pipeline of stages."""

    def __init__(self, kind: NicKind, wire_rate_gbps: float = 40.0) -> None:
        self.kind = kind
        self.wire_rate_gbps = wire_rate_gbps
        self.stages = list(_ROCE_STAGES)
        if kind is NicKind.IWARP:
            self.stages += _IWARP_EXTRA_STAGES
        elif kind is NicKind.IRN:
            self.stages += _IRN_EXTRA_STAGES

    def one_way_latency_us(self, message_bytes: int = 64) -> float:
        """Half-RTT latency of a small Write: pipeline + wire time."""
        pipeline_ns = sum(stage.latency_ns for stage in self.stages)
        wire_ns = (message_bytes + 60) * 8.0 / self.wire_rate_gbps
        # The measurement traverses the requester pipeline, the wire, and the
        # responder's (shorter) receive pipeline, approximated as half.
        return (pipeline_ns * 1.5 + wire_ns) / 1000.0

    def message_rate_mpps(self, message_bytes: int = 64, batched: bool = True) -> float:
        """Sustained message rate for small batched Writes."""
        bottleneck_ns = max(stage.occupancy_ns for stage in self.stages)
        if not batched:
            bottleneck_ns = sum(stage.occupancy_ns for stage in self.stages)
        wire_ns = (message_bytes + 60) * 8.0 / self.wire_rate_gbps
        per_message_ns = max(bottleneck_ns, wire_ns)
        return 1000.0 / per_message_ns

    def performance(self, message_bytes: int = 64) -> NicPerformance:
        return NicPerformance(
            kind=self.kind,
            latency_us=self.one_way_latency_us(message_bytes),
            message_rate_mpps=self.message_rate_mpps(message_bytes),
        )


def raw_performance_table(message_bytes: int = 64) -> Dict[str, NicPerformance]:
    """Regenerate Table 1 (plus the IRN row §6.2 argues for)."""
    return {
        "Chelsio T-580-CR (iWARP)": NicPipelineModel(NicKind.IWARP).performance(message_bytes),
        "Mellanox MCX416A-BCAT (RoCE)": NicPipelineModel(NicKind.ROCE).performance(message_bytes),
        "IRN (RoCE + bitmap logic)": NicPipelineModel(NicKind.IRN).performance(message_bytes),
    }
