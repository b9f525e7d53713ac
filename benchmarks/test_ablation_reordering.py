"""Ablation (§7, "Reordering due to load-balancing"): per-packet spraying.

IRN's out-of-order support allows load-balancing schemes that reorder packets
within a flow.  This ablation runs IRN over per-packet spraying and checks
that every flow still completes, while go-back-N RoCE pays a heavy
retransmission penalty under the same reordering.

Both schemes run over a three-seed axis (spray routing is installed after
network build, so this benchmark drives the runner internals directly rather
than going through ``run_sweep``); the retransmission comparison sums over
the replicas.
"""

from repro.experiments import scenarios
from repro.experiments.runner import (
    _build_network,
    _generate_flows,
    _FlowLauncher,
    _make_simulator,
)
from repro.metrics.collector import MetricsCollector

SEEDS = scenarios.scenario("fig1").seeds


def _run_with_spray(config):
    """Run one experiment with per-packet-spray routing installed."""
    sim = _make_simulator(config)
    network = _build_network(sim, config)
    network.build_routing(packet_spray=True)
    collector = MetricsCollector(network, mtu_bytes=config.mtu_bytes,
                                 header_bytes=config.effective_header_bytes())
    launcher = _FlowLauncher(sim, network, config, collector)
    flows = _generate_flows(config, network)
    for flow in flows:
        sim.schedule_at(flow.start_time, launcher.launch, flow)
    sim.run(until=config.max_sim_time_s, max_events=config.max_events)
    completed = sum(1 for flow in flows if flow.completed)
    retransmissions = sum(sender.retransmissions for sender in launcher.senders)
    return completed / len(flows), retransmissions


def test_packet_spray_reordering_ablation(benchmark):
    def run_all():
        outcomes = {"irn": [], "roce": []}
        for seed in SEEDS:
            cells = scenarios.scenario("fig1").configs(num_flows=80, seed=seed)
            outcomes["irn"].append(_run_with_spray(cells["IRN (without PFC)"]))
            outcomes["roce"].append(_run_with_spray(cells["RoCE (with PFC)"]))
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    irn_rtx = sum(rtx for _, rtx in outcomes["irn"])
    roce_rtx = sum(rtx for _, rtx in outcomes["roce"])
    print("\n=== Ablation: per-packet spraying (packet reordering) ===")
    for seed, (done, rtx) in zip(SEEDS, outcomes["irn"]):
        print(f"IRN  (no PFC) seed={seed}: completed={done:.0%} retransmissions={rtx}")
    for seed, (done, rtx) in zip(SEEDS, outcomes["roce"]):
        print(f"RoCE (PFC)    seed={seed}: completed={done:.0%} retransmissions={rtx}")

    # IRN tolerates reordering: every flow completes in every replica, and
    # spurious retransmissions stay far below go-back-N's redundant resends
    # summed over the replicas.
    for done, _ in outcomes["irn"]:
        assert done == 1.0
    assert roce_rtx > irn_rtx
