"""Topology builders used by the paper's evaluation and by the test suite.

Topologies are pluggable: every family registers itself in
:data:`TOPOLOGIES` under a name, and the experiment layer resolves
``ExperimentConfig.topology`` through that registry.  Register a new family
with :func:`register_topology` -- no engine module needs editing::

    from repro.topology import register_topology

    @register_topology("ring", max_hop_count=4, switch_radix=4)
    def build_ring(sim, config, switch_config):
        network = Network(sim)
        ...
        return network
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TOPOLOGIES": "repro.topology.registry",
    "TopologyBuilder": "repro.topology.registry",
    "register_topology": "repro.topology.registry",
    "FatTreeParams": "repro.topology.fattree",
    "build_fat_tree": "repro.topology.fattree",
    "build_dumbbell": "repro.topology.simple",
    "build_parking_lot": "repro.topology.simple",
    "build_ring": "repro.topology.cyclic",
    "build_star": "repro.topology.simple",
})
