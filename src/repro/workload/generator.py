"""Poisson flow-arrival workload generation.

Each host generates new flows with Poisson inter-arrival times; every flow
picks a destination uniformly at random (excluding itself) and a size from
the configured distribution.  The per-host arrival rate is calibrated so the
aggregate offered load equals ``target_load`` of the host link capacity, the
same methodology as the paper's 30%-90% utilization sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.transport import Flow
from repro.workload.distributions import FlowSizeDistribution, HeavyTailedSizes


@dataclass
class WorkloadParams:
    """Parameters of the Poisson arrival workload."""

    #: Offered load as a fraction of host link capacity (0.7 in the default).
    target_load: float = 0.7
    #: Host link rate, used to convert load into an arrival rate.
    link_bandwidth_bps: float = 40e9
    #: Flow size distribution.
    sizes: FlowSizeDistribution = field(default_factory=HeavyTailedSizes)
    #: Total number of flows to generate across all hosts.
    num_flows: int = 1000
    #: RNG seed for reproducible workloads.
    seed: int = 1
    #: Time at which the first flows may start.
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_load <= 1.5:
            raise ValueError("target_load must be in (0, 1.5]")
        if self.num_flows < 1:
            raise ValueError("num_flows must be positive")

    def per_host_arrival_rate(self, num_hosts: int) -> float:
        """Flow arrivals per second per host for the requested load."""
        mean_size_bits = self.sizes.mean_bytes() * 8.0
        return self.target_load * self.link_bandwidth_bps / mean_size_bits


class PoissonWorkload:
    """Generates the flow list for an experiment."""

    def __init__(self, params: WorkloadParams, hosts: Sequence[str]) -> None:
        if len(hosts) < 2:
            raise ValueError("a workload needs at least two hosts")
        self.params = params
        self.hosts = list(hosts)
        self.rng = random.Random(params.seed)

    def generate(self, first_flow_id: int = 0) -> List[Flow]:
        """Build the flow list (sorted by start time)."""
        params = self.params
        rate = params.per_host_arrival_rate(len(self.hosts))
        clocks = {host: params.start_time for host in self.hosts}
        flows: List[Flow] = []
        flow_id = first_flow_id
        while len(flows) < params.num_flows:
            # Advance the host with the earliest next arrival (merged Poisson
            # processes are equivalent to sampling hosts independently).
            src = min(clocks, key=clocks.get)
            clocks[src] += self.rng.expovariate(rate)
            dst = self._pick_destination(src)
            size = params.sizes.sample(self.rng)
            flows.append(
                Flow(
                    flow_id=flow_id,
                    src=src,
                    dst=dst,
                    size_bytes=size,
                    start_time=clocks[src],
                    group="background",
                )
            )
            flow_id += 1
        flows.sort(key=lambda flow: flow.start_time)
        return flows

    def _pick_destination(self, src: str) -> str:
        dst = src
        while dst == src:
            dst = self.rng.choice(self.hosts)
        return dst


# ---------------------------------------------------------------------------
# Registry entries (the runner resolves ``ExperimentConfig.workload`` by name)
# ---------------------------------------------------------------------------
from repro.workload.distributions import FixedSizes, UniformSizes  # noqa: E402
from repro.workload.registry import register_workload  # noqa: E402


def _poisson_flows(config, hosts: Sequence[str], sizes: FlowSizeDistribution) -> List[Flow]:
    """Shared Poisson-arrival body of the built-in background workloads."""
    if config.num_flows <= 0:
        return []
    params = WorkloadParams(
        target_load=config.target_load,
        link_bandwidth_bps=config.link_bandwidth_bps,
        sizes=sizes,
        num_flows=config.num_flows,
        seed=config.seed,
    )
    return PoissonWorkload(params, hosts).generate(first_flow_id=0)


@register_workload("heavy_tailed")
def _heavy_tailed_workload(config, hosts: Sequence[str]) -> List[Flow]:
    return _poisson_flows(config, hosts, HeavyTailedSizes(scale=config.flow_size_scale))


@register_workload("uniform")
def _uniform_workload(config, hosts: Sequence[str]) -> List[Flow]:
    return _poisson_flows(
        config, hosts, UniformSizes(config.uniform_low_bytes, config.uniform_high_bytes)
    )


@register_workload("fixed")
def _fixed_workload(config, hosts: Sequence[str]) -> List[Flow]:
    return _poisson_flows(config, hosts, FixedSizes(config.fixed_size_bytes))


@register_workload("none")
def _no_background_workload(config, hosts: Sequence[str]) -> List[Flow]:
    """No background traffic (incast-only experiments)."""
    return []
