"""Network assembly: nodes, bidirectional links and routing tables.

:class:`Network` is the container that owns every host, switch and link of a
simulated fabric, wires ports on both ends of each connection and derives the
ECMP routing tables from the resulting adjacency graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.routing import EcmpRouting, PacketSprayRouting, compute_next_hop_table
from repro.sim.switch import Switch, SwitchConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Network:
    """A collection of hosts, switches and the links between them."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self._adjacency: Dict[str, Set[str]] = {}
        self._link_params: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self.routing: Optional[EcmpRouting] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        if name in self._adjacency:
            raise ValueError(f"duplicate node name {name!r}")
        host = Host(self.sim, name)
        self.hosts[name] = host
        self._adjacency[name] = set()
        return host

    def add_switch(self, name: str, config: Optional[SwitchConfig] = None) -> Switch:
        """Create and register a switch."""
        if name in self._adjacency:
            raise ValueError(f"duplicate node name {name!r}")
        switch = Switch(self.sim, name, config=config)
        self.switches[name] = switch
        self._adjacency[name] = set()
        return switch

    def node(self, name: str):
        """Look up a host or switch by name."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"unknown node {name!r}")

    def connect(
        self,
        a_name: str,
        b_name: str,
        bandwidth_bps: float,
        prop_delay_s: float,
    ) -> Tuple[Link, Link]:
        """Create a full-duplex connection between two nodes.

        Two unidirectional :class:`Link` objects are created and the
        corresponding output/input ports are registered on both endpoints.
        """
        node_a = self.node(a_name)
        node_b = self.node(b_name)
        link_ab = Link(self.sim, node_a, node_b, bandwidth_bps, prop_delay_s)
        link_ba = Link(self.sim, node_b, node_a, bandwidth_bps, prop_delay_s)
        self.links.extend([link_ab, link_ba])
        self._attach(node_a, link_ab, outgoing=True)
        self._attach(node_b, link_ab, outgoing=False)
        self._attach(node_b, link_ba, outgoing=True)
        self._attach(node_a, link_ba, outgoing=False)
        self._adjacency[a_name].add(b_name)
        self._adjacency[b_name].add(a_name)
        self._link_params[(a_name, b_name)] = (bandwidth_bps, prop_delay_s)
        self._link_params[(b_name, a_name)] = (bandwidth_bps, prop_delay_s)
        return link_ab, link_ba

    @staticmethod
    def _attach(node, link: Link, outgoing: bool) -> None:
        if isinstance(node, Switch):
            if outgoing:
                node.add_output_link(link)
            else:
                node.add_input_link(link)
        elif isinstance(node, Host):
            if outgoing:
                node.set_uplink(link)
            else:
                node.add_input_link(link)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported node type {type(node)!r}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routing(self, packet_spray: bool = False) -> EcmpRouting:
        """Compute ECMP next-hop tables toward every host and install them."""
        table = compute_next_hop_table(self._adjacency, list(self.hosts.keys()))
        routing = PacketSprayRouting(table) if packet_spray else EcmpRouting(table)
        self.routing = routing
        for switch in self.switches.values():
            switch.routing = routing
        return routing

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> Dict[str, Set[str]]:
        """Undirected adjacency map of the topology."""
        return self._adjacency

    def link_between(self, a_name: str, b_name: str) -> Link:
        """The unidirectional link from ``a_name`` to ``b_name``."""
        for link in self.links:
            if link.src.name == a_name and link.dst.name == b_name:
                return link
        raise KeyError(f"no link from {a_name} to {b_name}")

    def link_params(self, a_name: str, b_name: str) -> Tuple[float, float]:
        """(bandwidth, propagation delay) of the connection ``a -> b``."""
        return self._link_params[(a_name, b_name)]

    def set_link_delay(self, a_name: str, b_name: str, prop_delay_s: float) -> None:
        """Override the propagation delay of the directed link ``a -> b``,
        keeping :meth:`link_params` / :meth:`path_properties` consistent.
        Call before the simulation starts: packets already in flight keep
        the delay they departed with."""
        if prop_delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        link = self.link_between(a_name, b_name)
        link.prop_delay_s = prop_delay_s
        bandwidth, _ = self._link_params[(a_name, b_name)]
        self._link_params[(a_name, b_name)] = (bandwidth, prop_delay_s)

    def path_properties(self, src: str, dst: str, flow_id: int = 0) -> Tuple[int, float, float]:
        """Hop count, minimum bandwidth and total propagation delay of a path."""
        if self.routing is None:
            raise RuntimeError("routing has not been built yet")
        path = self.routing.path(src, dst, flow_id)
        min_bw = float("inf")
        total_delay = 0.0
        for a, b in zip(path, path[1:]):
            bandwidth, delay = self._link_params[(a, b)]
            min_bw = min(min_bw, bandwidth)
            total_delay += delay
        return len(path) - 1, min_bw, total_delay

    def output_ports(self):
        """Every :class:`~repro.sim.link.OutputPort` in the fabric (switch
        ports first, then host NIC uplinks), for fabric-wide port knobs and
        observability probes."""
        for switch in self.switches.values():
            yield from switch.output_ports.values()
        for host in self.hosts.values():
            if host.uplink_port is not None:
                yield host.uplink_port

    def total_dropped_packets(self) -> int:
        """Total packets dropped by all switches so far."""
        return sum(s.packets_dropped for s in self.switches.values())

    def total_pause_frames(self) -> int:
        """Total PFC pause frames generated by all switches so far."""
        return sum(s.pause_frames_sent for s in self.switches.values())

    def total_forwarded_packets(self) -> int:
        """Total packets forwarded by all switches so far."""
        return sum(s.packets_forwarded for s in self.switches.values())

    def total_queued_packets(self) -> int:
        """Packets currently buffered across every switch VOQ.

        The in-flight term of the conservation invariant checked by
        ``repro.verify``: at drain, everything hosts committed to the wire is
        either delivered, dropped, or still sitting in one of these queues.
        """
        return sum(s.total_queued_packets() for s in self.switches.values())
