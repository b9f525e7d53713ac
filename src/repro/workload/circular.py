"""The ``circular`` workload: traffic engineered to close a PFC pause cycle.

Built for the ``ring`` topology (:mod:`repro.topology.cyclic`) and its host
naming contract: with ``n = config.ring_switches`` switches and
``hps = len(hosts) // n`` hosts per switch, host ``hosts[i * hps + k]`` sits
on switch ``s{i}``.

Per switch the first local host is the *receiver*; the remaining hosts are
senders whose (fixed) destinations are the receivers of the next switches
around the ring: sender ``k`` on switch ``i`` targets the receiver of switch
``(i + k) % n``.  With two senders per switch, every receiver is fed at full
rate from **two different upstream switches**, so the shared output port
toward it drains each inter-switch input at half the arrival rate -- the
input buffers fill, each switch pauses both upstream switches, and the pause
wait-for graph contains the cycle ``s0 -> s1 -> ... -> s0`` the deadlock
detector reports.  Offered load per sender is ``target_load`` of the host
link, so with two senders per switch the cycle only closes once
``2 * target_load > 1``.  The ``pfc_deadlock`` scenario runs four hosts on
each of six switches, where paths cross several inter-switch links:
RoCE+PFC wedges there at every load it sweeps (0.3 to 0.9).

Flow sizes are fixed (``config.fixed_size_bytes``): steady packet trains,
not a heavy-tailed mix, keep the overload sustained instead of bursty.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.transport import Flow
from repro.workload.distributions import FixedSizes
from repro.workload.registry import register_workload


@register_workload("circular")
def circular_workload(config, hosts: Sequence[str]) -> List[Flow]:
    """Poisson arrivals on fixed circular sender->receiver pairs."""
    if config.num_flows <= 0:
        return []
    num_switches = max(1, getattr(config, "ring_switches", 3))
    hosts = list(hosts)
    hps = len(hosts) // num_switches
    if hps < 1:
        raise ValueError(
            f"circular workload needs at least {num_switches} hosts "
            f"(one per ring switch), got {len(hosts)}"
        )
    pairs: List[tuple] = []
    if hps == 1:
        # One host per switch: each doubles as sender and receiver.
        for i in range(num_switches):
            pairs.append((hosts[i], hosts[(i + 1) % num_switches]))
    else:
        for i in range(num_switches):
            for k in range(1, hps):
                receiver_switch = (i + k) % num_switches
                pairs.append((hosts[i * hps + k], hosts[receiver_switch * hps]))

    sizes = FixedSizes(config.fixed_size_bytes)
    rate = config.target_load * config.link_bandwidth_bps / (sizes.mean_bytes() * 8.0)
    rng = random.Random(config.seed)
    clocks = {pair: 0.0 for pair in pairs}
    flows: List[Flow] = []
    flow_id = 0
    while len(flows) < config.num_flows:
        pair = min(clocks, key=clocks.get)
        clocks[pair] += rng.expovariate(rate)
        src, dst = pair
        flows.append(
            Flow(
                flow_id=flow_id,
                src=src,
                dst=dst,
                size_bytes=sizes.sample(rng),
                start_time=clocks[pair],
                group="background",
            )
        )
        flow_id += 1
    flows.sort(key=lambda flow: flow.start_time)
    return flows
