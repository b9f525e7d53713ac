"""Ablation (§7, "Reordering due to load-balancing"): per-packet spraying.

IRN's out-of-order support allows load-balancing schemes that reorder packets
within a flow.  This ablation runs IRN over per-packet spraying and checks
that every flow still completes, while go-back-N RoCE pays a heavy
retransmission penalty under the same reordering.

Both schemes run Figure 1's cells (80 flows) on seeds 1-3 through
``run_experiment``, with spraying installed the way
``tests/test_integration.py`` and the golden ``spray-*`` cells install it:
the routing is rebuilt once the fabric is built.  The patch lives in this
process, so the cells run here, not on a worker pool.  Spraying hashes
``Packet.uid``, a process-wide counter, so the counter restarts once for
the whole ablation: its rows do not depend on which tests ran before.  The
retransmission comparison sums over the replicas.
"""

import itertools
from unittest import mock

from repro.experiments import runner, scenarios
from repro.sim import packet

SEEDS = (1, 2, 3)
SCHEMES = {"IRN": "IRN (without PFC)", "RoCE": "RoCE (with PFC)"}
_build_network = runner._build_network


def _build_and_spray(sim, config):
    network = _build_network(sim, config)
    network.build_routing(packet_spray=True)
    return network


def test_packet_spray_reordering_ablation(benchmark):
    def run_all():
        results = {scheme: [] for scheme in SCHEMES}
        with mock.patch.object(runner, "_build_network", _build_and_spray), \
                mock.patch.object(packet, "_packet_ids", itertools.count()):
            for seed in SEEDS:
                cells = scenarios.scenario("fig1").configs(num_flows=80, seed=seed)
                for scheme, label in SCHEMES.items():
                    results[scheme].append(runner.run_experiment(cells[label]))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\n=== Ablation: per-packet spraying (packet reordering) ===")
    for scheme, runs in results.items():
        for seed, result in zip(SEEDS, runs):
            print(f"{scheme:<4} seed={seed}: completed={result.completion_fraction():.0%} "
                  f"retransmissions={result.retransmissions}")

    # IRN tolerates reordering: every flow completes in every replica, and
    # spurious retransmissions stay far below go-back-N's redundant resends
    # summed over the replicas.
    for result in results["IRN"]:
        assert result.completion_fraction() == 1.0
    assert (sum(result.retransmissions for result in results["RoCE"])
            > sum(result.retransmissions for result in results["IRN"]))
