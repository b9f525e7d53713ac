"""Discrete-event, packet-level network simulation substrate.

This package models the pieces the paper's evaluation platform (an
OMNET++/INET based RoCE simulator) provides: an event engine, links with
serialization and propagation delay, input-queued switches with virtual
output queues and round-robin scheduling, Priority Flow Control (PFC),
ECN marking, ECMP routing and host NICs that schedule queue pairs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "PfcDeadlockDetector": "repro.sim.deadlock",
    "Simulator": "repro.sim.engine",
    "Packet": "repro.sim.packet",
    "PacketType": "repro.sim.packet",
    "Link": "repro.sim.link",
    "OutputPort": "repro.sim.link",
    "Switch": "repro.sim.switch",
    "SwitchConfig": "repro.sim.switch",
    "Host": "repro.sim.host",
    "Network": "repro.sim.network",
    "EcmpRouting": "repro.sim.routing",
    "PacketSprayRouting": "repro.sim.routing",
})
