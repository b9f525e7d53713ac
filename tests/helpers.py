"""Shared test helpers: transport-level fakes and a fresh-interpreter runner."""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import textwrap
from unittest import mock

import repro.core.iwarp  # noqa: F401  (every IrnSender subclass, for recording_timeouts)
from repro.core.irn import IrnSender
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


# ---------------------------------------------------------------------------
# The retransmission timer as it was before an ACK moved only its deadline
# ---------------------------------------------------------------------------

def _eager_arm_rto(self, now: float, restart: bool = False) -> None:
    """``IrnSender._arm_rto`` before the deadline: a restart cancels the
    pending event and schedules a new one."""
    if not self.config.timeouts_enabled or self.completed:
        return
    if self._rto_event is not None:
        if not restart:
            return
        self.sim.cancel(self._rto_event)
    delay = self._rto_value(now)
    if self.config.ack_coalesce_n > 1:
        delay += self.config.ack_coalesce_s
    self._rto_event = self.sim.schedule(delay, self._rto_fired)


def _eager_rto_fired(self) -> None:
    """``IrnSender._rto_fired`` before the deadline: every firing is a timeout."""
    self._rto_event = None
    if self.completed or self.snd_una >= self.num_packets:
        return
    self.timeouts_fired += 1
    self._handle_timeout(self.sim.now)
    if self.cc is not None:
        self.cc.on_timeout(self.sim.now)
    self._arm_rto(self.sim.now)
    self.host.notify_ready(self.flow_id)


@contextlib.contextmanager
def eager_rto():
    """Patch the eager reference timer over every sender (the oracle)."""
    with mock.patch.object(IrnSender, "_arm_rto", _eager_arm_rto), \
            mock.patch.object(IrnSender, "_rto_fired", _eager_rto_fired):
        yield


def _sender_classes(cls=IrnSender):
    yield cls
    for sub in cls.__subclasses__():
        yield from _sender_classes(sub)


@contextlib.contextmanager
def recording_timeouts():
    """Yield a list that collects ``(flow_id, time)`` of every timeout a
    sender handles (once per timeout, however many ``_handle_timeout``
    overrides it passes through)."""
    handled = []
    depth = [0]

    def wrap(original):
        def handle_timeout(self, now):
            if not depth[0]:
                handled.append((self.flow_id, now))
            depth[0] += 1
            try:
                original(self, now)
            finally:
                depth[0] -= 1
        return handle_timeout

    with contextlib.ExitStack() as patches:
        for cls in _sender_classes():
            if "_handle_timeout" in vars(cls):
                patches.enter_context(mock.patch.object(
                    cls, "_handle_timeout", wrap(vars(cls)["_handle_timeout"])))
        yield handled
