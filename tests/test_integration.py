"""End-to-end integration tests: full simulations on small fabrics.

These exercise the complete stack -- workload generation, transports,
congestion control, switches with PFC/ECN, metric collection -- and assert
the paper's qualitative claims at miniature scale.
"""

from unittest import mock

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.spec import scenario
from repro.experiments.runner import run_experiment
from repro.workload.incast import IncastParams


def small_config(**overrides):
    """A fast star-topology experiment used across the integration tests."""
    base = dict(
        topology="star",
        num_hosts=6,
        link_bandwidth_bps=10e9,
        link_delay_s=1e-6,
        workload="heavy_tailed",
        flow_size_scale=0.1,
        num_flows=60,
        target_load=0.8,
        seed=11,
        max_sim_time_s=2.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBasicCompletion:
    @pytest.mark.parametrize("transport", [
        "irn", "roce", "iwarp",
        "irn_go_back_n", "irn_no_bdpfc", "irn_no_sack",
    ])
    def test_all_transports_complete_all_flows_without_pfc(self, transport):
        result = run_experiment(small_config(transport=transport, pfc_enabled=False))
        assert result.completion_fraction() == 1.0
        assert result.summary.num_flows == 60

    @pytest.mark.parametrize("transport", ["irn", "roce"])
    def test_all_transports_complete_all_flows_with_pfc(self, transport):
        result = run_experiment(small_config(transport=transport, pfc_enabled=True))
        assert result.completion_fraction() == 1.0

    @pytest.mark.parametrize("cc", [
        "timely", "dcqcn",
        "aimd", "dctcp",
    ])
    def test_irn_completes_under_every_congestion_control(self, cc):
        result = run_experiment(small_config(transport="irn",
                                             congestion_control=cc, pfc_enabled=False))
        assert result.completion_fraction() == 1.0

    def test_results_are_deterministic_for_a_seed(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.summary.avg_fct == b.summary.avg_fct
        assert a.packets_dropped == b.packets_dropped

    def test_different_seeds_change_the_workload(self):
        a = run_experiment(small_config(seed=11))
        b = run_experiment(small_config(seed=12))
        assert a.summary.avg_fct != b.summary.avg_fct


class TestPaperClaims:
    def test_pfc_prevents_drops_and_lossy_fabric_drops(self):
        lossless = run_experiment(small_config(transport="roce", pfc_enabled=True,
                                               target_load=0.9))
        lossy = run_experiment(small_config(transport="roce", pfc_enabled=False,
                                            target_load=0.9))
        assert lossless.packets_dropped == 0
        assert lossless.pause_frames > 0
        assert lossy.packets_dropped > 0
        assert lossy.pause_frames == 0

    def test_roce_requires_pfc(self):
        """Figure 3: go-back-N RoCE degrades badly on a lossy fabric."""
        with_pfc = run_experiment(small_config(transport="roce", pfc_enabled=True,
                                               target_load=0.9))
        without_pfc = run_experiment(small_config(transport="roce", pfc_enabled=False,
                                                  target_load=0.9))
        assert without_pfc.summary.avg_fct > with_pfc.summary.avg_fct
        assert without_pfc.retransmissions > with_pfc.retransmissions

    def test_irn_tolerates_losing_pfc(self):
        """Figure 2's qualitative claim: IRN does not need a lossless fabric."""
        with_pfc = run_experiment(small_config(transport="irn", pfc_enabled=True,
                                               target_load=0.9))
        without_pfc = run_experiment(small_config(transport="irn", pfc_enabled=False,
                                                  target_load=0.9))
        # Losing PFC costs IRN at most a small factor (the paper shows it
        # actually helps; at miniature scale we only require "no collapse").
        assert without_pfc.summary.avg_fct <= 1.5 * with_pfc.summary.avg_fct

    def test_irn_beats_roce_without_pfc(self):
        """SACK recovery plus BDP-FC must beat go-back-N on a lossy fabric.

        Summed over seed replicas, like the retransmission claim below: at
        miniature scale a single seed's FCT ordering is queueing noise (the
        two transports sit within a few percent on clean seeds), while the
        aggregate is dominated by the seeds where go-back-N melts down --
        which is exactly the paper's point.
        """
        irn_fct = roce_fct = 0.0
        irn_rtx = roce_rtx = 0
        for seed in (7, 10, 11, 12, 13):
            irn = run_experiment(small_config(transport="irn",
                                              pfc_enabled=False, target_load=0.9, seed=seed))
            roce = run_experiment(small_config(transport="roce",
                                               pfc_enabled=False, target_load=0.9, seed=seed))
            irn_fct += irn.summary.avg_fct
            roce_fct += roce.summary.avg_fct
            irn_rtx += irn.retransmissions
            roce_rtx += roce.retransmissions
        assert irn_fct < roce_fct
        assert irn_rtx < roce_rtx

    def test_sack_recovery_retransmits_less_than_go_back_n(self):
        """Figure 7's mechanism: go-back-N wastes bandwidth on redundant data.

        Loss counts at miniature scale are a handful of packets per run, so
        the claim is asserted on a sum over seed replicas rather than one
        draw (a single seed can invert a difference this small).
        """
        sack = gbn = 0
        for seed in (7, 10, 11):
            # Shallow port buffers force the drops the comparison needs:
            # with ACK coalescing on by default, the miniature hub no longer
            # overflows at 0.9 load on its default (2x BDP) buffers.
            sack += run_experiment(small_config(transport="irn",
                                                pfc_enabled=False, target_load=0.9,
                                                buffer_bytes_per_port=6000,
                                                seed=seed)).retransmissions
            gbn += run_experiment(small_config(transport="irn_go_back_n",
                                               pfc_enabled=False, target_load=0.9,
                                               buffer_bytes_per_port=6000,
                                               seed=seed)).retransmissions
        assert gbn > sack

    def test_bdp_fc_reduces_queueing_or_drops(self):
        with_cap = run_experiment(small_config(transport="irn", pfc_enabled=False,
                                               target_load=0.9))
        without_cap = run_experiment(small_config(transport="irn_no_bdpfc",
                                                  pfc_enabled=False, target_load=0.9))
        assert with_cap.packets_dropped <= without_cap.packets_dropped

    def test_congestion_control_reduces_drops_without_pfc(self):
        none = run_experiment(small_config(transport="irn", pfc_enabled=False,
                                           target_load=0.9))
        dcqcn = run_experiment(small_config(transport="irn", pfc_enabled=False,
                                            target_load=0.9,
                                            congestion_control="dcqcn"))
        assert dcqcn.packets_dropped <= none.packets_dropped

    def test_worst_case_overheads_cost_only_a_few_percent(self):
        plain = run_experiment(small_config(transport="irn", pfc_enabled=False))
        overhead = run_experiment(small_config(transport="irn", pfc_enabled=False,
                                               worst_case_overheads=True))
        assert overhead.summary.avg_fct <= 1.25 * plain.summary.avg_fct


class TestIncastIntegration:
    def incast_config(self, transport, pfc, fan_in=4):
        return small_config(
            transport=transport,
            pfc_enabled=pfc,
            workload="none",
            num_flows=0,
            incast=IncastParams(total_bytes=400_000, fan_in=fan_in, destination="h0"),
        )

    def test_incast_completes_and_reports_rct(self):
        result = run_experiment(self.incast_config("irn", pfc=False))
        assert result.incast_rct_s is not None
        assert result.incast_rct_s > 0

    def test_irn_rct_is_comparable_to_roce_with_pfc(self):
        """Figure 9: disabling PFC costs IRN only a few percent on incast."""
        irn = run_experiment(self.incast_config("irn", pfc=False))
        roce = run_experiment(self.incast_config("roce", pfc=True))
        assert irn.incast_rct_s <= 1.3 * roce.incast_rct_s

    def test_incast_with_cross_traffic_reports_both_metrics(self):
        config = small_config(
            transport="irn",
            pfc_enabled=False,
            target_load=0.5,
            num_flows=40,
            incast=IncastParams(total_bytes=300_000, fan_in=3, destination="h0",
                                start_time=1e-4),
        )
        result = run_experiment(config)
        assert result.incast_rct_s is not None
        assert result.background_summary is not None
        assert result.background_summary.num_flows > 0


class TestFatTreeIntegration:
    def test_small_fat_tree_run_matches_fig1_direction(self):
        configs = scenario("fig1").configs(num_flows=60, seed=3)
        irn = run_experiment(configs["IRN (without PFC)"])
        roce = run_experiment(configs["RoCE (with PFC)"])
        assert irn.completion_fraction() == 1.0
        assert roce.completion_fraction() == 1.0
        # IRN must be at least competitive with RoCE+PFC (the paper shows
        # a 6-83% win; tiny runs can be noisy so allow near-parity).
        assert irn.summary.avg_slowdown <= 1.2 * roce.summary.avg_slowdown

    def test_ecmp_spreads_flows_across_core_switches(self):
        config = scenario("fig1").configs(num_flows=80, seed=5)["IRN (without PFC)"]
        result = run_experiment(config)
        # At least two core switches should have forwarded traffic.
        # (Forwarding statistics live on the Switch objects, which are not
        # retained, so use the aggregate as a sanity check.)
        assert result.packets_forwarded > 0

    def test_packet_spray_keeps_irn_correct(self):
        # IRN's OOO tolerance means per-packet load balancing still delivers
        # every flow (the §7 "reordering due to load balancing" discussion).
        # Spraying is installed the way the golden ``spray-*`` cells do it:
        # rebuild the routing after the fabric is built.
        from repro.experiments import runner as runner_module
        from repro.sim.routing import PacketSprayRouting

        build = runner_module._build_network
        networks = []

        def build_and_spray(sim, cfg):
            network = build(sim, cfg)
            network.build_routing(packet_spray=True)
            networks.append(network)
            return network

        config = scenario("fig1").configs(num_flows=40, seed=7)["IRN (without PFC)"]
        with mock.patch.object(runner_module, "_build_network", build_and_spray):
            sprayed = run_experiment(config)
        (network,) = networks
        assert all(isinstance(switch.routing, PacketSprayRouting)
                   for switch in network.switches.values())
        assert sprayed.flows_total == 40
        assert sprayed.flows_completed == sprayed.flows_total
        assert sprayed.completion_fraction() == 1.0
        # Per-packet paths are not per-flow paths: the run is not ECMP's.
        assert sprayed.to_row() != run_experiment(config).to_row()
