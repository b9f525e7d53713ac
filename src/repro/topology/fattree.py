"""Three-tier fat-tree topologies.

The paper's default scenario is a 54-server, full-bisection-bandwidth
three-tier fat-tree built from 45 6-port switches in 6 pods (the classic
k-ary fat-tree of Al-Fares et al. with k = 6, minus the one host slot used
for measurement infrastructure in the vendor simulator; we build the full
k^3/4 hosts and let the workload select how many are active).  The appendix
scales the arity to k = 8 (128 servers) and k = 10 (250 servers).

A k-ary fat-tree has:

* ``(k/2)^2`` core switches,
* ``k`` pods, each with ``k/2`` aggregation and ``k/2`` edge switches,
* ``k/2`` hosts per edge switch, i.e. ``k^3/4`` hosts total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.sim.network import Network
from repro.sim.switch import SwitchConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


@dataclass
class FatTreeParams:
    """Parameters of a k-ary fat-tree fabric.

    Attributes
    ----------
    k:
        Switch arity (number of ports); must be even.
    link_bandwidth_bps:
        Rate of every link (hosts and fabric links are homogeneous, giving
        full bisection bandwidth).
    link_delay_s:
        Per-hop propagation delay (the paper uses 2 microseconds).
    """

    k: int = 4
    link_bandwidth_bps: float = 40e9
    link_delay_s: float = 2e-6

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("fat-tree arity k must be an even integer >= 2")

    @property
    def num_hosts(self) -> int:
        """Total number of servers, k^3 / 4."""
        return self.k ** 3 // 4

    @property
    def num_pods(self) -> int:
        return self.k

    @property
    def num_core_switches(self) -> int:
        return (self.k // 2) ** 2

    @property
    def num_switches(self) -> int:
        """Core + aggregation + edge switches."""
        return self.num_core_switches + self.k * self.k

    @property
    def max_hop_count(self) -> int:
        """Hops on the longest (inter-pod, via core) host-to-host path."""
        return 6


def _add_fat_tree(
    network: Network,
    params: FatTreeParams,
    switch_config: Optional[SwitchConfig],
    prefix: str = "",
    host_offset: int = 0,
) -> List[str]:
    """Wire one k-ary fat-tree into ``network`` and return its core switches.

    Switch names gain ``prefix``; hosts are numbered from ``host_offset`` so
    multiple trees on one network share a single global ``h<i>`` namespace
    (workloads address hosts by index, not by datacenter).
    """
    k = params.k
    half = k // 2

    core_names: List[str] = []
    for i in range(params.num_core_switches):
        name = f"{prefix}core_{i}"
        network.add_switch(name, config=switch_config)
        core_names.append(name)

    host_index = host_offset
    for pod in range(k):
        agg_names = []
        edge_names = []
        for j in range(half):
            agg = f"{prefix}agg_p{pod}_{j}"
            edge = f"{prefix}edge_p{pod}_{j}"
            network.add_switch(agg, config=switch_config)
            network.add_switch(edge, config=switch_config)
            agg_names.append(agg)
            edge_names.append(edge)

        # Edge <-> aggregation full mesh within the pod.
        for edge in edge_names:
            for agg in agg_names:
                network.connect(edge, agg, params.link_bandwidth_bps, params.link_delay_s)

        # Hosts under each edge switch.
        for edge in edge_names:
            for _ in range(half):
                host = f"h{host_index}"
                network.add_host(host)
                network.connect(host, edge, params.link_bandwidth_bps, params.link_delay_s)
                host_index += 1

        # Aggregation <-> core. The j-th aggregation switch of every pod
        # connects to core switches [j*half, (j+1)*half).
        for j, agg in enumerate(agg_names):
            for c in range(half):
                core = core_names[j * half + c]
                network.connect(agg, core, params.link_bandwidth_bps, params.link_delay_s)

    return core_names


def build_fat_tree(
    sim: "Simulator",
    params: Optional[FatTreeParams] = None,
    switch_config: Optional[SwitchConfig] = None,
) -> Network:
    """Build a k-ary fat-tree :class:`Network`.

    Node naming scheme:

    * hosts: ``h<i>`` for ``i`` in ``0 .. k^3/4 - 1``
    * edge switches: ``edge_p<pod>_<j>``
    * aggregation switches: ``agg_p<pod>_<j>``
    * core switches: ``core_<i>``
    """
    params = params or FatTreeParams()
    network = Network(sim)
    _add_fat_tree(network, params, switch_config)
    network.build_routing()
    return network


def build_inter_dc_fat_tree(
    sim: "Simulator",
    params: Optional[FatTreeParams] = None,
    wan_delay_s: float = 1e-3,
    switch_config: Optional[SwitchConfig] = None,
) -> Network:
    """Two k-ary fat-tree datacenters joined core-to-core by long-haul links.

    Each DC is a full fat-tree with switch names prefixed ``dc0_`` / ``dc1_``;
    hosts are numbered globally (``h0 .. h<N-1>`` in DC0, ``h<N> ..
    h<2N-1>`` in DC1, ``N = k^3/4``).  The i-th core switch of DC0 connects
    to the i-th core of DC1 at the fabric bandwidth but with ``wan_delay_s``
    propagation -- 100-1000x the intra-DC hop -- so a cross-DC path is 7
    hops: host-edge-agg-core, the WAN crossing, then core-agg-edge-host.
    """
    params = params or FatTreeParams()
    network = Network(sim)
    dc0_cores = _add_fat_tree(network, params, switch_config, prefix="dc0_")
    dc1_cores = _add_fat_tree(
        network, params, switch_config, prefix="dc1_", host_offset=params.num_hosts
    )
    for a, b in zip(dc0_cores, dc1_cores):
        network.connect(a, b, params.link_bandwidth_bps, wan_delay_s)
    network.build_routing()
    return network


# ---------------------------------------------------------------------------
# Registry entry
# ---------------------------------------------------------------------------
from repro.topology.registry import register_topology  # noqa: E402


@register_topology(
    "fat_tree",
    max_hop_count=lambda config: FatTreeParams(k=config.fat_tree_k).max_hop_count,
    switch_radix=lambda config: config.fat_tree_k,
)
def _build_fat_tree_from_config(sim: "Simulator", config, switch_config) -> Network:
    """Registry adapter: derive :class:`FatTreeParams` from an experiment config."""
    return build_fat_tree(
        sim,
        FatTreeParams(
            k=config.fat_tree_k,
            link_bandwidth_bps=config.link_bandwidth_bps,
            link_delay_s=config.link_delay_s,
        ),
        switch_config,
    )


@register_topology(
    "inter_dc_fattree",
    # host-edge-agg-core + WAN crossing + core-agg-edge-host.
    max_hop_count=7,
    switch_radix=lambda config: config.fat_tree_k,
    path_delay_s=lambda config: 6.0 * config.link_delay_s + config.wan_delay_s,
    aliases=("inter_dc_fat_tree",),
)
def _build_inter_dc_fat_tree_from_config(sim: "Simulator", config, switch_config) -> Network:
    """Registry adapter: two fat-tree DCs with a ``wan_delay_s`` long haul."""
    return build_inter_dc_fat_tree(
        sim,
        FatTreeParams(
            k=config.fat_tree_k,
            link_bandwidth_bps=config.link_bandwidth_bps,
            link_delay_s=config.link_delay_s,
        ),
        wan_delay_s=config.wan_delay_s,
        switch_config=switch_config,
    )
