"""Workload generation: flow-size distributions, Poisson arrivals, incast.

Workloads are pluggable: each background traffic pattern registers itself in
:data:`WORKLOADS` (see :func:`register_workload`), and the experiment runner
resolves ``ExperimentConfig.workload`` through that registry by name.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "WORKLOADS": "repro.workload.registry",
    "register_workload": "repro.workload.registry",
    "FlowSizeDistribution": "repro.workload.distributions",
    "HeavyTailedSizes": "repro.workload.distributions",
    "UniformSizes": "repro.workload.distributions",
    "FixedSizes": "repro.workload.distributions",
    "PoissonWorkload": "repro.workload.generator",
    "WorkloadParams": "repro.workload.generator",
    "circular_workload": "repro.workload.circular",
    "IncastParams": "repro.workload.incast",
    "build_incast_flows": "repro.workload.incast",
})
