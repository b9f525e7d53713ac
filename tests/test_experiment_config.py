"""Tests for experiment configuration and the paper scenario presets."""

import json
from dataclasses import fields

import pytest

from repro.experiments.config import (
    _OMITTED_AT,
    CNP_INTERVAL_FLOOR_S,
    ExperimentConfig,
    Physics,
)
from repro.experiments.scenarios import SCALED_DEFAULTS, incast_rows, scenario
from repro.faults import FaultPlan, LinkFlap, PacketCorruption
from repro.topology.registry import TOPOLOGIES
from repro.workload.incast import IncastParams


class TestDerivedQuantities:
    def test_default_bdp_matches_paper_formula(self):
        config = ExperimentConfig(
            fat_tree_k=6, link_bandwidth_bps=40e9, link_delay_s=2e-6, mtu_bytes=1000
        )
        # 40 Gbps * 24 us / 8 = 120 KB -> 120 packets.
        physics = config.physics()
        assert physics.bdp_bytes == 120_000
        assert physics.bdp_cap_packets == 120

    def test_buffer_defaults_to_twice_bdp(self):
        config = ExperimentConfig(link_bandwidth_bps=10e9, link_delay_s=1e-6)
        physics = config.physics()
        assert physics.buffer_bytes == 2 * physics.bdp_bytes

    def test_explicit_overrides_win(self):
        config = ExperimentConfig(bdp_cap_packets=42, buffer_bytes_per_port=12345,
                                  rto_low_s=1e-4, rto_high_s=1e-3)
        physics = config.physics()
        assert physics.bdp_cap_packets == 42
        assert physics.buffer_bytes == 12345
        assert physics.rto_low_s == 1e-4
        assert physics.rto_high_s == 1e-3

    def test_derived_rtos_follow_paper_rule(self):
        config = ExperimentConfig(link_bandwidth_bps=10e9, link_delay_s=1e-6, fat_tree_k=4)
        physics = config.physics()
        drain = physics.buffer_bytes * 8 / 10e9
        expected_high = 6 * 1e-6 + 3 * drain
        assert physics.rto_high_s == pytest.approx(expected_high)
        assert physics.rto_low_s < physics.rto_high_s

    def test_headroom_defaults_to_the_upstream_link_budget(self):
        from repro.sim.pfc import headroom_for_link

        for mtu in (1000, 9000):
            config = ExperimentConfig(link_bandwidth_bps=40e9, link_delay_s=2e-6,
                                      mtu_bytes=mtu)
            assert config.physics().headroom_bytes == headroom_for_link(40e9, 2e-6, mtu)
        assert ExperimentConfig(pfc_headroom_bytes=777).physics().headroom_bytes == 777

    def test_worst_case_overheads_add_header_bytes(self):
        base = ExperimentConfig()
        worst = ExperimentConfig(worst_case_overheads=True)
        assert worst.physics().header_bytes == base.physics().header_bytes + 16

    def test_switch_config_reflects_pfc_and_cc(self):
        config = ExperimentConfig(pfc_enabled=False, congestion_control="dcqcn")
        switch_config = config.switch_config()
        assert switch_config.pfc.enabled is False
        assert switch_config.ecn.enabled is True
        assert switch_config.ecn.step_marking is False

    def test_dctcp_uses_step_marking(self):
        config = ExperimentConfig(congestion_control="dctcp")
        assert config.switch_config().ecn.step_marking is True

    def test_no_ecn_without_ecn_based_cc(self):
        for cc in ("none", "timely", "aimd"):
            config = ExperimentConfig(congestion_control=cc)
            assert config.switch_config().ecn.enabled is False

    def test_with_overrides_returns_modified_copy(self):
        config = ExperimentConfig(target_load=0.7)
        modified = config.with_overrides(target_load=0.9)
        assert modified.target_load == 0.9
        assert config.target_load == 0.7


class TestPhysicsIsTimeScaleCovariant:
    """Multiplying the rate by F and dividing every configured time by F
    divides every derived time by F and keeps every size and count; for F a
    power of two both hold with ``==``.  The CNP interval's absolute floor
    is the one listed exception, so where it binds is asserted exactly."""

    @staticmethod
    def _physics(topology, scheme, factor):
        config = ExperimentConfig(
            **{**SCALED_DEFAULTS, "topology": topology, "congestion_control": scheme})
        config = config.with_overrides(
            link_bandwidth_bps=config.link_bandwidth_bps * factor,
            link_delay_s=config.link_delay_s / factor,
            wan_delay_s=config.wan_delay_s / factor,
            ack_coalesce_us=config.ack_coalesce_us / factor,
        )
        return config, config.physics()

    @pytest.mark.parametrize("factor", [2, 0.5])
    @pytest.mark.parametrize("scheme", ["none", "dcqcn", "timely"])
    @pytest.mark.parametrize("topology", TOPOLOGIES.names())
    def test_times_scale_and_sizes_do_not(self, topology, scheme, factor):
        config, base = self._physics(topology, scheme, 1)
        _, scaled = self._physics(topology, scheme, factor)
        rtts = config.congestion_scheme().cnp_interval_rtts
        floored = False
        for physics in (base, scaled):
            if physics.cnp_interval_s is not None:
                binds = rtts * physics.base_rtt_s < CNP_INTERVAL_FLOOR_S
                floored = floored or binds
                assert physics.cnp_interval_s == (
                    CNP_INTERVAL_FLOOR_S if binds else rtts * physics.base_rtt_s)
        for name, value, scaled_value in zip(Physics._fields, base, scaled):
            if name == "cnp_interval_s" and floored:
                continue
            if name.endswith("_s") and value is not None:
                assert scaled_value * factor == value, name
            else:
                assert scaled_value == value, name


class TestAckCoalescingKnobs:
    def test_behavior_changing_default_is_fingerprinted(self):
        """The default window of 4 changes ACK timing vs the per-packet
        stream, so it must key its own cache entries -- a pre-coalescing
        cached row served for a default run would be stale."""
        payload = ExperimentConfig().to_canonical_dict()
        assert payload["ack_coalesce_n"] == 4
        assert payload["ack_coalesce_us"] == 25.0

    def test_per_packet_configs_collapse_onto_pre_knob_fingerprints(self):
        """n=1 is byte-identical to pre-knob physics: both keys (the then
        irrelevant flush timeout too) drop out of the canonical dict, so
        these configs still hit rows cached before the knobs existed."""
        payload = ExperimentConfig(ack_coalesce_n=1).to_canonical_dict()
        assert "ack_coalesce_n" not in payload
        assert "ack_coalesce_us" not in payload
        # The flush timeout is inert without a window; it must not split
        # fingerprints of physically identical per-packet runs.
        same = ExperimentConfig(ack_coalesce_n=1, ack_coalesce_us=60.0)
        assert same.fingerprint() == ExperimentConfig(ack_coalesce_n=1).fingerprint()

    def test_fingerprint_uses_raw_knob_not_scheme_capped_value(self):
        # Timely's metadata caps the *effective* window at 1, but the
        # fingerprint keys on the raw knob: it must not depend on which
        # schemes are registered in the fingerprinting process (a
        # coordinator can fingerprint configs for plugin schemes it never
        # loads).  The cap just costs one conservative cache miss.
        timely = ExperimentConfig(congestion_control="timely")
        assert timely.physics().ack_coalesce_n == 1
        assert timely.to_canonical_dict()["ack_coalesce_n"] == 4

    def test_non_default_values_fingerprint(self):
        base = ExperimentConfig().fingerprint()
        assert ExperimentConfig(ack_coalesce_n=1).fingerprint() != base
        assert ExperimentConfig(ack_coalesce_n=8).fingerprint() != base
        assert ExperimentConfig(ack_coalesce_us=60.0).fingerprint() != base

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ack_coalesce_n=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ack_coalesce_us=0.0)

    @pytest.mark.parametrize("name, value", [
        ("max_events", 0), ("max_events", -1), ("mtu_bytes", 0),
        ("link_bandwidth_bps", 0.0), ("link_bandwidth_bps", -1e9), ("link_delay_s", -1e-6),
        ("wan_delay_s", -1e-3), ("rto_low_s", 0.0), ("rto_low_s", -1e-4),
        ("bdp_cap_packets", 0),
    ])
    def test_out_of_range_value_names_the_field(self, name, value):
        # rto_low_s=0 livelocked on timeouts, bdp_cap_packets=0 completed no
        # flow and mtu_bytes=0 or a zero rate raised mid-run.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentConfig(**{name: value})

    def test_max_events_none_or_positive_accepted(self):
        assert ExperimentConfig(max_events=None).max_events is None
        assert ExperimentConfig(max_events=1).max_events == 1


#: Every field declared ``float`` or ``Optional[float]``.
FLOAT_FIELDS = (
    "link_bandwidth_bps", "link_delay_s", "wan_delay_s", "rto_low_s", "rto_high_s",
    "ack_coalesce_us", "target_load", "flow_size_scale", "uniform_low_bytes",
    "uniform_high_bytes", "max_sim_time_s",
)


class TestNonFiniteFloatsRejected:
    """NaN disables a bound (``max_sim_time_s=NaN`` ran with no horizon and
    cached the last event's time as ``sim_time_s``) and inf overflows or
    breaks a generator mid-run, so no float field accepts either."""

    def test_the_list_covers_every_float_field(self):
        declared = {field.name for field in fields(ExperimentConfig)
                    if field.type in ("float", "Optional[float]")}
        assert declared == set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_value_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            ExperimentConfig(**{name: value})


class TestDeletedKnobs:
    """The departure-batch byte cap, the pacing quantum and the per-flow
    records switch are gone: no surface accepts or emits them.  The names
    are spelled in pieces so the CI greps that keep them out of the tree do
    not match this test."""

    @pytest.mark.parametrize(
        "name", ["port_batch" + "_bytes", "pacing" + "_quantum_us", "keep_flow" + "_records"]
    )
    def test_knob_is_neither_accepted_nor_written(self, name):
        with pytest.raises(TypeError, match=name):
            ExperimentConfig(**{name: 1})
        assert name not in ExperimentConfig().to_dict()
        assert name not in ExperimentConfig().to_canonical_dict()


class TestFingerprintCoverage:
    """A row is a function of its fingerprint: every field but the cosmetic
    ``name`` keys the sweep cache.  A field left out of the fingerprint
    while it can change a byte of the row lets the cache serve a row some
    other setting produced."""

    #: One value per field, neither its default nor its ``_OMITTED_AT``
    #: value.  A new field without an entry fails here until it has one.
    OTHER_VALUE = {
        "topology": "star",
        "fat_tree_k": 6,
        "num_hosts": 16,
        "ring_switches": 5,
        "link_bandwidth_bps": 40e9,
        "link_delay_s": 2e-6,
        "wan_delay_s": 5e-3,
        "pfc_enabled": False,
        "buffer_bytes_per_port": 300_000,
        "pfc_headroom_bytes": 50_000,
        "transport": "roce",
        "mtu_bytes": 9000,
        "header_bytes": 64,
        "rto_low_s": 1e-4,
        "rto_high_s": 3e-4,
        "rto_low_threshold_packets": 5,
        "bdp_cap_packets": 20,
        "worst_case_overheads": True,
        "ack_coalesce_n": 2,
        "ack_coalesce_us": 50.0,
        "congestion_control": "dcqcn",
        "workload": "uniform",
        "target_load": 0.5,
        "num_flows": 100,
        "flow_size_scale": 0.2,
        "uniform_low_bytes": 10_000,
        "uniform_high_bytes": 100_000,
        "fixed_size_bytes": 20_000,
        "incast": IncastParams(total_bytes=1_000_000, fan_in=4),
        "seed": 2,
        "max_sim_time_s": 1.0,
        "max_events": 1_000_000,
        "fabric_digests": True,
        "c_latency_ratios": True,
        "fault_plan": FaultPlan(
            faults=(LinkFlap(src="s0", dst="s1", start_s=1e-4, end_s=2e-4),)
        ),
    }

    @pytest.mark.parametrize(
        "field", [f for f in fields(ExperimentConfig) if f.name != "name"],
        ids=lambda f: f.name,
    )
    def test_every_field_but_name_moves_the_fingerprint(self, field):
        value = self.OTHER_VALUE[field.name]
        base = ExperimentConfig()
        assert value != getattr(base, field.name)
        assert value != _OMITTED_AT.get(field.name, object())
        changed = ExperimentConfig(**{field.name: value})
        assert changed.fingerprint() != base.fingerprint()

    def test_name_alone_is_left_out(self):
        assert (ExperimentConfig(name="a").fingerprint()
                == ExperimentConfig(name="b").fingerprint())
        assert len(fields(ExperimentConfig)) == len(self.OTHER_VALUE) + 1


class TestFaultPlanFingerprint:
    """Fault plans and the cache-key contract.

    A non-empty plan changes the simulated physics, so it must key its own
    cache entries; an empty plan is physically inert and must collapse onto
    the fault-free fingerprint so pre-fault-injection warm caches stay
    valid.
    """

    PLAN = FaultPlan(
        faults=(
            LinkFlap(src="s0", dst="s1", start_s=1e-4, end_s=2e-4),
            PacketCorruption(src="s1", dst="s0", probability=0.01),
        )
    )

    def test_absent_plan_is_fingerprint_neutral(self):
        payload = ExperimentConfig().to_canonical_dict()
        assert "fault_plan" not in payload

    def test_empty_plan_collapses_onto_fault_free_fingerprint(self):
        # __post_init__ normalizes an empty plan to None, so the canonical
        # dict (and hence the fingerprint) is identical to no plan at all.
        empty = ExperimentConfig(fault_plan=FaultPlan())
        assert empty.fault_plan is None
        assert empty.fingerprint() == ExperimentConfig().fingerprint()

    def test_non_empty_plan_changes_fingerprint(self):
        base = ExperimentConfig()
        faulted = ExperimentConfig(fault_plan=self.PLAN)
        assert faulted.fingerprint() != base.fingerprint()
        assert "fault_plan" in faulted.to_canonical_dict()

    def test_different_plans_fingerprint_differently(self):
        one = ExperimentConfig(fault_plan=self.PLAN)
        other = ExperimentConfig(
            fault_plan=FaultPlan(
                faults=(LinkFlap(src="s0", dst="s1", start_s=1e-4, end_s=3e-4),)
            )
        )
        assert one.fingerprint() != other.fingerprint()

    def test_plan_round_trips_through_queue_wire_format(self):
        # The work queue serializes configs with to_dict() -> JSON ->
        # from_dict(); plans must survive with typed fault kinds and an
        # unchanged fingerprint.
        config = ExperimentConfig(fault_plan=self.PLAN)
        wire = json.loads(json.dumps(config.to_dict()))
        restored = ExperimentConfig.from_dict(wire)
        assert restored.fingerprint() == config.fingerprint()
        assert isinstance(restored.fault_plan, FaultPlan)
        kinds = [type(fault) for fault in restored.fault_plan.faults]
        assert kinds == [LinkFlap, PacketCorruption]

    def test_plan_dict_is_coerced_on_construction(self):
        config = ExperimentConfig(
            fault_plan={"faults": [dict(kind="link_flap", src="a", dst="b",
                                        start_s=0.0, end_s=1e-6)]}
        )
        assert isinstance(config.fault_plan, FaultPlan)
        assert isinstance(config.fault_plan.faults[0], LinkFlap)

    def test_effective_window_respects_scheme_cap(self):
        # Timely needs per-packet RTT samples: the scheme metadata caps the
        # coalescing window at 1 whatever the config asks for.
        timely = ExperimentConfig(congestion_control="timely")
        assert timely.physics().ack_coalesce_n == 1
        dcqcn = ExperimentConfig(congestion_control="dcqcn")
        assert dcqcn.physics().ack_coalesce_n == 4

    def test_flush_timeout_clamped_below_rto(self):
        config = ExperimentConfig(ack_coalesce_us=10_000.0)
        physics = config.physics()
        assert physics.ack_coalesce_s <= 0.5 * physics.rto_low_s


class TestScenarioPresets:
    def test_fig1_pairs_roce_pfc_with_irn_lossy(self):
        configs = scenario("fig1").configs()
        roce = configs["RoCE (with PFC)"]
        irn = configs["IRN (without PFC)"]
        assert roce.transport == "roce" and roce.pfc_enabled
        assert irn.transport == "irn" and not irn.pfc_enabled

    def test_fig2_varies_only_pfc(self):
        configs = scenario("fig2").configs()
        assert all(c.transport == "irn" for c in configs.values())
        assert {c.pfc_enabled for c in configs.values()} == {True, False}

    def test_fig4_covers_timely_and_dcqcn(self):
        configs = scenario("fig4").configs()
        ccs = {c.congestion_control for c in configs.values()}
        assert ccs == {"timely", "dcqcn"}
        assert len(configs) == 4

    def test_fig7_factor_analysis_variants(self):
        configs = scenario("fig7").configs()
        kinds = {c.transport for c in configs.values()}
        assert kinds == {
            "irn", "irn_go_back_n", "irn_no_bdpfc"
        }

    def test_fig9_varies_fan_in(self):
        configs = scenario("fig9").with_rows(
            incast_rows((4, 8), total_bytes=3_000_000)
        ).configs()
        assert len(configs) == 4
        assert all(c.incast is not None for c in configs.values())
        assert {c.incast.fan_in for c in configs.values()} == {4, 8}
        assert all(c.workload == "none" for c in configs.values())

    def test_fig10_resilient_roce_is_dcqcn_without_pfc(self):
        config = scenario("fig10").configs()["Resilient RoCE"]
        assert config.transport == "roce"
        assert config.congestion_control == "dcqcn"
        assert not config.pfc_enabled

    def test_fig11_includes_iwarp(self):
        configs = scenario("fig11").configs()
        assert configs["iWARP"].transport == "iwarp"

    def test_fig12_overhead_flag(self):
        configs = scenario("fig12").configs()
        assert configs["IRN (worst-case overheads)"].worst_case_overheads
        assert not configs["IRN (no overheads)"].worst_case_overheads

    def test_appendix_tables_have_three_columns_per_row(self):
        for name in ("table3", "table4", "table7", "table8", "table9"):
            for row in scenario(name).tables().values():
                assert set(row) == {"IRN", "IRN+PFC", "RoCE+PFC"}, name

    def test_table5_scales_topology(self):
        table = scenario("table5").tables()
        assert {row_label.split(" ")[0] for row_label in table} == {"k=4", "k=6"}
        assert table["k=6 (54 hosts)"]["IRN"].fat_tree_k == 6

    def test_table6_switches_workload(self):
        table = scenario("table6").tables()
        assert table["Uniform"]["IRN"].workload == "uniform"
        assert table["Heavy-tailed"]["IRN"].workload == "heavy_tailed"
