"""Routing strategies.

The paper load-balances with ECMP, which hashes a flow onto one of the
equal-cost shortest paths and therefore preserves packet ordering within a
flow.  IRN's out-of-order support also enables per-packet load balancing
(packet spraying), which we provide for the reordering-robustness ablation.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Mapping, Protocol, Set

from repro.sim.packet import Packet


def stable_hash(*parts: object) -> int:
    """A process-independent hash (CRC32) used for ECMP path selection.

    Python's builtin ``hash`` is randomized per interpreter process, which
    would make simulation results irreproducible across runs; ECMP hardware
    hashes are deterministic, so the simulator's must be too.
    """
    return zlib.crc32("|".join(str(part) for part in parts).encode())

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.switch import Switch


class Routing(Protocol):
    """Strategy that picks the next hop for a packet at a switch."""

    #: True when ``next_hop`` is a pure function of ``(switch, packet.dst,
    #: packet.flow_id)``; a switch then resolves each flow once and serves
    #: later packets from its own route cache.
    per_flow: bool

    def next_hop(self, node: "Switch", packet: Packet) -> str:
        """Name of the neighbor the packet should be forwarded to."""


def compute_next_hop_table(
    adjacency: Mapping[str, Set[str]],
    destinations: List[str],
) -> Dict[str, Dict[str, List[str]]]:
    """Compute per-node equal-cost next hops toward each destination.

    Runs a BFS rooted at every destination over the (undirected) adjacency
    graph and records, for every node, the neighbors that lie on a shortest
    path to that destination.

    Returns
    -------
    dict
        ``table[node][destination] -> sorted list of next-hop names``.
    """
    table: Dict[str, Dict[str, List[str]]] = {name: {} for name in adjacency}
    for dst in destinations:
        if dst not in adjacency:
            raise KeyError(f"destination {dst!r} is not in the topology")
        dist: Dict[str, int] = {dst: 0}
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            for neighbor in adjacency[current]:
                if neighbor not in dist:
                    dist[neighbor] = dist[current] + 1
                    frontier.append(neighbor)
        for node, neighbors in adjacency.items():
            if node == dst:
                continue
            if node not in dist:
                continue
            hops = sorted(n for n in neighbors if dist.get(n, float("inf")) == dist[node] - 1)
            if hops:
                table[node][dst] = hops
    return table


class EcmpRouting:
    """Equal-cost multi-path routing with per-flow hashing.

    A flow always takes the same path (the hash combines the flow id and the
    switch name), which matches how datacenter ECMP keys on the five-tuple.
    """

    per_flow = True

    def __init__(self, next_hops: Dict[str, Dict[str, List[str]]]) -> None:
        self._next_hops = next_hops

    def candidates(self, node_name: str, dst: str) -> List[str]:
        """All equal-cost next hops from ``node_name`` toward ``dst``."""
        try:
            return self._next_hops[node_name][dst]
        except KeyError as exc:
            raise KeyError(f"no route from {node_name} to {dst}") from exc

    def next_hop(self, node: "Switch", packet: Packet) -> str:
        options = self.candidates(node.name, packet.dst)
        if len(options) == 1:
            return options[0]
        return options[stable_hash(packet.flow_id, node.name) % len(options)]

    def path(self, src: str, dst: str, flow_id: int) -> List[str]:
        """The sequence of node names a flow's packets traverse (src..dst)."""
        path = [src]
        current = src
        guard = 0
        while current != dst:
            options = self.candidates(current, dst)
            if len(options) == 1:
                current = options[0]
            else:
                current = options[stable_hash(flow_id, current) % len(options)]
            path.append(current)
            guard += 1
            if guard > 64:
                raise RuntimeError(f"routing loop from {src} to {dst}")
        return path

    def hop_count(self, src: str, dst: str, flow_id: int = 0) -> int:
        """Number of links between ``src`` and ``dst`` for this flow."""
        return len(self.path(src, dst, flow_id)) - 1


class PacketSprayRouting(EcmpRouting):
    """Per-packet load balancing (DRILL/packet spraying style).

    Each packet independently picks one of the equal-cost next hops, which
    maximizes path diversity but reorders packets within a flow.  Only
    transports that tolerate out-of-order delivery (IRN, iWARP) can use it.
    """

    per_flow = False  # hashes ``packet.uid``: every packet is routed afresh

    def next_hop(self, node: "Switch", packet: Packet) -> str:
        options = self.candidates(node.name, packet.dst)
        if len(options) == 1:
            return options[0]
        index = stable_hash(packet.uid, node.name) % len(options)
        return options[index]
