"""Shared test helpers: transport-level fakes and a fresh-interpreter runner."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

from repro.core.registry import TRANSPORTS
from repro.core.transport import Flow
from repro.experiments.config import ExperimentConfig
from repro.sim.packet import Packet, PacketType


def in_fresh_interpreter(script: str):
    """Run ``script`` (dedented) in a new interpreter and return the JSON
    document it prints last -- for tests of what importing loads, which a
    process that has already imported the test suite cannot observe."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class FakeHost:
    """Stands in for a Host when testing sender state machines directly."""

    def __init__(self, name: str = "h0") -> None:
        self.name = name
        self.kicks = 0
        self.deregistered = []

    def notify_ready(self, flow_id=None) -> None:
        self.kicks += 1

    def deregister_sender(self, flow_id: int) -> None:
        self.deregistered.append(flow_id)


def make_flow(size_bytes: int = 10_000, flow_id: int = 1, src: str = "h0", dst: str = "h1") -> Flow:
    return Flow(flow_id=flow_id, src=src, dst=dst, size_bytes=size_bytes)


def registered_endpoints(transport: str, sim, host, flow: Flow, congestion_control=None,
                         **fields):
    """A flow's ``(sender, receiver)`` as the registered ``transport`` builds
    them for a run of ``ExperimentConfig(transport=transport, **fields)``."""
    endpoints = TRANSPORTS.get(transport)(ExperimentConfig(transport=transport, **fields))
    return endpoints(sim, host, flow, congestion_control, None, None, None)


def ack(flow: Flow, cumulative: int, echo_time: float = 0.0, ecn_echo: bool = False) -> Packet:
    """Build a cumulative ACK as the receiver would."""
    return Packet(
        PacketType.ACK, flow.flow_id, flow.dst, flow.src,
        cumulative_ack=cumulative, echo_time=echo_time, ecn_echo=ecn_echo,
    )


def nack(flow: Flow, cumulative: int, sack: int | None, echo_time: float = 0.0,
         error: bool = False) -> Packet:
    """Build a NACK (cumulative + SACK) as the receiver would."""
    return Packet(
        PacketType.NACK, flow.flow_id, flow.dst, flow.src,
        cumulative_ack=cumulative, sack_psn=sack, echo_time=echo_time, error_nack=error,
    )


def drain(sender, now: float, limit: int = 10_000) -> list:
    """Pull packets from a sender until it reports nothing ready."""
    packets = []
    while len(packets) < limit:
        packet = sender.next_packet(now)
        if packet is None:
            break
        packets.append(packet)
    return packets
