"""Tests for topology builders."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.sim.engine import Simulator
from repro.topology.fattree import FatTreeParams, build_fat_tree
from repro.topology.simple import build_dumbbell, build_parking_lot, build_star


class TestFatTreeParams:
    def test_host_and_switch_counts(self):
        params = FatTreeParams(k=4)
        assert params.num_hosts == 16
        assert params.num_core_switches == 4
        assert params.num_switches == 20

    def test_k6_matches_paper_default_scale(self):
        params = FatTreeParams(k=6)
        assert params.num_hosts == 54
        assert params.num_switches == 45

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            FatTreeParams(k=5)

    def test_bdp_matches_paper_numbers(self):
        # 40 Gbps, 2 us per hop, 6-hop longest path: BDP = 120 KB = 120 packets.
        physics = ExperimentConfig(fat_tree_k=6, link_bandwidth_bps=40e9,
                                   link_delay_s=2e-6).physics()
        assert physics.bdp_bytes == 120_000
        assert physics.bdp_cap_packets == 120

    def test_longest_path_rtt(self):
        physics = ExperimentConfig(fat_tree_k=4, link_delay_s=1e-6).physics()
        assert physics.base_rtt_s == pytest.approx(12e-6)


class TestFatTreeBuild:
    def test_node_counts(self):
        sim = Simulator()
        network = build_fat_tree(sim, FatTreeParams(k=4))
        assert len(network.hosts) == 16
        assert len(network.switches) == 20

    def test_every_host_has_an_uplink(self):
        sim = Simulator()
        network = build_fat_tree(sim, FatTreeParams(k=4))
        for host in network.hosts.values():
            assert host.uplink_port is not None

    def test_edge_switches_have_k_ports(self):
        sim = Simulator()
        network = build_fat_tree(sim, FatTreeParams(k=4))
        edge = network.switches["edge_p0_0"]
        assert len(edge.output_ports) == 4
        assert len(edge.input_ports) == 4

    def test_core_switches_connect_to_every_pod(self):
        sim = Simulator()
        network = build_fat_tree(sim, FatTreeParams(k=4))
        core = network.switches["core_0"]
        assert len(core.output_ports) == 4
        pods = {name.split("_")[1] for name in core.output_ports}
        assert len(pods) == 4

    def test_k6_build(self):
        sim = Simulator()
        network = build_fat_tree(sim, FatTreeParams(k=6))
        assert len(network.hosts) == 54
        assert len(network.switches) == 45


class TestSimpleTopologies:
    def test_star(self):
        sim = Simulator()
        network = build_star(sim, 5)
        assert len(network.hosts) == 5
        assert len(network.switches) == 1
        assert network.routing.hop_count("h0", "h4") == 2

    def test_star_needs_two_hosts(self):
        with pytest.raises(ValueError):
            build_star(Simulator(), 1)

    def test_dumbbell(self):
        sim = Simulator()
        network = build_dumbbell(sim, hosts_per_side=3, bottleneck_bps=5e9)
        assert len(network.hosts) == 6
        assert len(network.switches) == 2
        bandwidth, _ = network.link_params("s0", "s1")
        assert bandwidth == 5e9

    def test_parking_lot(self):
        sim = Simulator()
        network = build_parking_lot(sim, num_switches=3, hosts_per_switch=2)
        assert len(network.hosts) == 6
        assert len(network.switches) == 3
        assert network.routing.hop_count("h0", "h5") == 4

    def test_parking_lot_needs_two_switches(self):
        with pytest.raises(ValueError):
            build_parking_lot(Simulator(), num_switches=1)
