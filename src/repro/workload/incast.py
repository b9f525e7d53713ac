"""Incast workloads (§4.4.3).

The paper's incast experiment stripes a fixed amount of data across M
randomly chosen senders that all transmit to one destination; the metric is
the request completion time (RCT), i.e. when the last of the M flows
finishes.  Optionally a background Poisson workload provides cross traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transport import Flow


@dataclass
class IncastParams:
    """Incast configuration.

    Attributes
    ----------
    total_bytes:
        Data striped across the senders (150 MB in the paper; benchmarks use
        a scaled-down value).
    fan_in:
        Number of senders M.
    destination:
        Receiving host (chosen randomly when ``None``).
    start_time:
        Time at which all senders start simultaneously.
    """

    total_bytes: int = 150_000_000
    fan_in: int = 30
    destination: Optional[str] = None
    start_time: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.fan_in < 1:
            raise ValueError("fan_in must be at least 1")
        if self.total_bytes < self.fan_in:
            raise ValueError("total_bytes must be at least one byte per sender")


def build_incast_flows(
    params: IncastParams,
    hosts: Sequence[str],
    first_flow_id: int = 0,
) -> List[Flow]:
    """Create the M synchronized flows of an incast request."""
    # Once per cell, not at module level: a config carries ``IncastParams``,
    # and building configs must not import the transports.
    from repro.core.transport import Flow

    if len(hosts) < params.fan_in + 1:
        raise ValueError(
            f"need at least fan_in+1={params.fan_in + 1} hosts, got {len(hosts)}"
        )
    rng = random.Random(params.seed)
    hosts = list(hosts)
    destination = params.destination or rng.choice(hosts)
    if destination not in hosts:
        raise ValueError(f"destination {destination!r} is not a host in the topology")
    candidates = [h for h in hosts if h != destination]
    senders = rng.sample(candidates, params.fan_in)
    per_sender = params.total_bytes // params.fan_in
    flows = []
    for index, sender in enumerate(senders):
        flows.append(
            Flow(
                flow_id=first_flow_id + index,
                src=sender,
                dst=destination,
                size_bytes=per_sender,
                start_time=params.start_time,
                group="incast",
            )
        )
    return flows


def request_completion_time(flows: Sequence[Flow]) -> float:
    """RCT of an incast: completion time of the last flow minus the start."""
    incast_flows = [flow for flow in flows if flow.group == "incast"]
    if not incast_flows:
        raise ValueError("no incast flows present")
    if any(not flow.completed for flow in incast_flows):
        raise RuntimeError("not all incast flows completed")
    start = min(flow.start_time for flow in incast_flows)
    end = max(flow.completion_time for flow in incast_flows)
    return end - start
