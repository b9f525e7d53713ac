"""Tests for declarative fault injection (repro.faults) and recovery metrics.

Plan-level semantics (validation, window merging, wire round-trips) are
pure-unit; engine-level behavior is pinned on small dumbbell experiments --
the same topology the ``availability_*`` scenario family sweeps.
"""

import math
import types

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import (
    DegradedLink,
    FaultEngine,
    FaultPlan,
    LinkFlap,
    PacketCorruption,
    PauseStorm,
    fault_from_dict,
)
from repro.metrics.recovery import RecoveryTracker
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.topology.simple import build_dumbbell, build_star


# ---------------------------------------------------------------------------
# Fault-kind and plan semantics
# ---------------------------------------------------------------------------
class TestFaultKinds:
    def test_validation_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            LinkFlap(src="a", dst="b", start_s=2e-4, end_s=1e-4)
        with pytest.raises(ValueError):
            PauseStorm(src="a", dst="b", start_s=-1e-6, end_s=1e-4)
        with pytest.raises(ValueError):
            DegradedLink(src="a", dst="b", start_s=0.0, end_s=1e-4,
                         bandwidth_factor=1.5)
        with pytest.raises(ValueError):
            DegradedLink(src="a", dst="b", start_s=0.0, end_s=1e-4,
                         delay_factor=0.5)

    def test_corruption_probability_bounds(self):
        with pytest.raises(ValueError):
            PacketCorruption(src="a", dst="b", probability=0.0)
        with pytest.raises(ValueError):
            PacketCorruption(src="a", dst="b", probability=1.5)
        assert PacketCorruption(src="a", dst="b", probability=1.0).end_s is None

    def test_from_dict_dispatches_on_kind(self):
        fault = fault_from_dict(
            dict(kind="degraded_link", src="a", dst="b", start_s=0.0,
                 end_s=1e-4, bandwidth_factor=0.5, delay_factor=2.0)
        )
        assert isinstance(fault, DegradedLink)
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict(dict(kind="gremlin"))


class TestFaultPlan:
    def test_rejects_non_fault_entries(self):
        with pytest.raises(ValueError, match="not a fault kind"):
            FaultPlan(faults=("not-a-fault",))

    def test_windows_merge_overlaps(self):
        plan = FaultPlan(faults=(
            LinkFlap(src="a", dst="b", start_s=1e-4, end_s=3e-4),
            LinkFlap(src="b", dst="a", start_s=2e-4, end_s=4e-4),
            PauseStorm(src="a", dst="b", start_s=6e-4, end_s=7e-4),
        ))
        assert plan.windows() == [(1e-4, 4e-4), (6e-4, 7e-4)]
        assert plan.first_fault_start_s() == 1e-4
        assert plan.last_fault_end_s() == 7e-4

    def test_open_ended_window_absorbs_later_ones(self):
        plan = FaultPlan(faults=(
            PacketCorruption(src="a", dst="b", probability=0.5, start_s=1e-4),
            LinkFlap(src="a", dst="b", start_s=2e-4, end_s=3e-4),
        ))
        assert plan.windows() == [(1e-4, None)]
        # recovery_time_s is undefined when the plan never ends.
        assert plan.last_fault_end_s() is None

    def test_wire_round_trip_preserves_types(self):
        plan = FaultPlan(
            faults=(
                LinkFlap(src="a", dst="b", start_s=1e-4, end_s=2e-4),
                PacketCorruption(src="b", dst="a", probability=0.1),
            ),
            goodput_bin_s=5e-5,
        )
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert [type(f) for f in restored.faults] == [LinkFlap, PacketCorruption]

    def test_effective_goodput_bin_floor(self):
        plan = FaultPlan()
        assert plan.effective_goodput_bin_s(base_rtt_s=1e-6) == 100e-6
        assert plan.effective_goodput_bin_s(base_rtt_s=50e-6) == 500e-6
        assert FaultPlan(goodput_bin_s=1e-5).effective_goodput_bin_s(1e-3) == 1e-5


# ---------------------------------------------------------------------------
# Engine behavior on real experiments (dumbbell bottleneck)
# ---------------------------------------------------------------------------
def _config(**overrides):
    base = dict(
        name="faults-test",
        topology="dumbbell",
        num_hosts=8,
        num_flows=40,
        flow_size_scale=0.1,
        transport="irn",
        pfc_enabled=False,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFaultEngineRuns:
    def test_fault_free_run_has_no_fault_observables(self):
        result = run_experiment(_config())
        assert result.faults_enabled is False
        assert result.fault_injected_drops == 0
        row = result.to_row(label="base")
        assert row.goodput_digest is None
        assert row.stall_digest is None

    def test_certain_corruption_drops_are_counted_explicitly(self):
        plan = {"faults": [dict(kind="packet_corruption", src="s0", dst="s1",
                                probability=1.0, start_s=0.0, end_s=200e-6)]}
        base = run_experiment(_config())
        faulted = run_experiment(_config(fault_plan=plan))
        assert faulted.faults_enabled is True
        assert faulted.fault_injected_drops > 0
        # Corruption drops live in their own counter, not the switch
        # buffer-drop ledger the drop_rate headline is computed from.
        assert faulted.packets_dropped <= base.packets_dropped + 1_000
        row = faulted.to_row(label="corrupt")
        assert row.fault_injected_drops == faulted.fault_injected_drops
        assert row.goodput_digest is not None

    def test_link_flap_drops_in_flight_packets_and_recovers(self):
        plan = {"faults": [
            dict(kind="link_flap", src="s0", dst="s1",
                 start_s=150e-6, end_s=250e-6),
            dict(kind="link_flap", src="s1", dst="s0",
                 start_s=150e-6, end_s=250e-6),
        ]}
        result = run_experiment(_config(fault_plan=plan))
        assert result.faults_enabled is True
        # Something was in flight on a 4-host-per-side dumbbell bottleneck.
        assert result.fault_injected_drops > 0
        # IRN retransmits and the run completes despite the outage.
        assert result.to_row(label="flap").flows_completed == 40

    def test_degraded_link_restores_exactly(self):
        plan = {"faults": [dict(kind="degraded_link", src="s0", dst="s1",
                                start_s=100e-6, end_s=300e-6,
                                bandwidth_factor=0.5, delay_factor=2.0)]}
        degraded = run_experiment(_config(fault_plan=plan))
        base = run_experiment(_config())
        assert degraded.faults_enabled is True
        # Power-of-two factors restore the link bit-exactly, so the run
        # still completes; it just takes longer than the fault-free one.
        assert degraded.to_row(label="slow").flows_completed == 40
        assert degraded.summary.avg_fct > base.summary.avg_fct

    def test_recovery_time_reported_when_traffic_outlasts_faults(self):
        plan = {"faults": [
            dict(kind="link_flap", src=src, dst=dst,
                 start_s=300e-6, end_s=400e-6)
            for src, dst in (("s0", "s1"), ("s1", "s0"))
        ]}
        result = run_experiment(_config(num_flows=400, fault_plan=plan))
        assert result.faults_enabled is True
        assert result.recovery_time_s is not None
        assert result.recovery_time_s >= 0.0
        row = result.to_row(label="flap")
        assert row.stall_digest is not None


# ---------------------------------------------------------------------------
# Recovery bins: one float grid, k * bin_s <= t < (k + 1) * bin_s
# ---------------------------------------------------------------------------
class TestRecoveryBins:
    BIN_S = 1e-4
    #: ``49 * 1e-4 / 1e-4`` is 48.99999999999999: the first k at this bin
    #: width where ``int(t / bin_s)`` disagrees with the bin start ``k * bin_s``.
    EDGE = 49 * BIN_S

    def _tracker(self, deliveries):
        sim = types.SimpleNamespace(now=0.0)
        tracker = RecoveryTracker(sim, bin_s=self.BIN_S, stall_threshold_s=1.0)
        for flow_id, now in enumerate(deliveries):
            sim.now = now
            tracker.on_data_delivered(_frame(flow_id))
        return tracker

    @pytest.mark.parametrize("now, index", [
        (math.nextafter(EDGE, 0.0), 48),
        (EDGE, 49),
        (math.nextafter(EDGE, 1.0), 49),
    ])
    def test_a_delivery_lands_in_the_bin_whose_start_it_has_reached(self, now, index):
        assert set(self._tracker([now])._bins) == {index}

    def test_recovery_is_read_on_the_same_grid(self):
        # A full bin before the fault, one right at the fault's end.
        tracker = self._tracker([10 * self.BIN_S, self.EDGE])
        assert tracker.recovery_time_s(20 * self.BIN_S, self.EDGE) == 0.0
        # Ending one ULP later, the fault overlaps bin 49: no later bin
        # recovers.
        assert tracker.recovery_time_s(20 * self.BIN_S, math.nextafter(self.EDGE, 1.0)) is None

    def test_the_reference_ends_at_the_bin_the_fault_starts_in(self):
        # One frame in bin 48, one in bin 60, the fault over by bin 55.
        tracker = self._tracker([math.nextafter(self.EDGE, 0.0), 60 * self.BIN_S])
        # A fault starting at bin 49's start leaves bin 48 as the reference.
        assert tracker.recovery_time_s(self.EDGE, 55 * self.BIN_S) == pytest.approx(
            5 * self.BIN_S)
        # One ULP earlier it starts inside bin 48: no pre-fault bin is left.
        assert tracker.recovery_time_s(
            math.nextafter(self.EDGE, 0.0), 55 * self.BIN_S) is None


# ---------------------------------------------------------------------------
# Interception is per link: taps wrap ``link.arrive``, never ``node.receive``
# ---------------------------------------------------------------------------
def _frame(psn):
    return Packet(PacketType.DATA, 1, "h0", "h1", psn=psn, payload_bytes=1000, header_bytes=0)


def _star(pfc_enabled=False, buffer_bytes=100_000, headroom=0):
    sim = Simulator(seed=1)
    config = SwitchConfig(buffer_bytes_per_port=buffer_bytes,
                          pfc=PfcConfig(enabled=pfc_enabled, headroom_bytes=headroom))
    return sim, build_star(sim, 3, bandwidth_bps=8e9, link_delay_s=1e-6,
                           switch_config=config)


class TestPerLinkTaps:
    def test_a_flap_taps_only_its_own_link(self):
        sim = Simulator(seed=1)
        network = build_dumbbell(sim, 2)
        before = {link: link.arrive for link in network.links}
        plan = FaultPlan(faults=(LinkFlap("s0", "s1", start_s=1e-6, end_s=2e-6),))
        FaultEngine(sim, network, plan, seed=1).install()

        faulted = network.link_between("s0", "s1")
        assert faulted.arrive is not before[faulted]
        assert faulted.arrive.inner is before[faulted]
        for link in network.links:
            if link is not faulted:
                assert link.arrive is before[link], link.name
        for node in list(network.hosts.values()) + list(network.switches.values()):
            assert "receive" not in vars(node), node.name

    def test_two_faults_on_one_link_share_one_tap(self):
        sim = Simulator(seed=1)
        network = build_dumbbell(sim, 2)
        link = network.link_between("s0", "s1")
        original = link.arrive
        plan = FaultPlan(faults=(
            LinkFlap("s0", "s1", start_s=1e-6, end_s=2e-6),
            PacketCorruption("s0", "s1", probability=0.5),
        ))
        FaultEngine(sim, network, plan, seed=1).install()
        assert link.arrive.inner is original
        assert link.arrive.state.corruptions

    def test_fault_dropped_frame_never_reaches_goodput_accounting(self):
        sim, network = _star()
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        tracker = RecoveryTracker(sim, bin_s=1e-6, stall_threshold_s=1.0)
        tracker.install(network)
        plan = FaultPlan(faults=(
            PacketCorruption("s0", "h1", probability=1.0, start_s=0.0, end_s=10e-6),
        ))
        engine = FaultEngine(sim, network, plan, seed=1)
        engine.install()
        # Recovery tap inside, fault tap outside, on the same downlink.
        downlink = network.link_between("s0", "h1")
        assert downlink.arrive.inner.inner == network.hosts["h1"].receive

        # Two frames land inside the corruption window, one after it.
        for psn, when in enumerate((1e-6, 4e-6, 20e-6)):
            sim.schedule_at(when, switch.receive, _frame(psn), in_link)
        sim.run_until_idle()
        assert engine.corruption_drops == 2
        assert network.hosts["h1"].data_packets_received == 1
        # Only the surviving frame (arriving at 22 us) counts as goodput.
        assert tracker._bins == {22: 1000.0}

    def test_a_tap_installed_after_wiring_sees_every_arrival_kind(self):
        sim, network = _star(pfc_enabled=True, buffer_bytes=10_000, headroom=6_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        out_port = switch.port_towards("h1")
        seen = {"s0->h1": [], "s0->h0": []}

        def tap(link):
            inner = link.arrive

            def arrive(packet, link_):
                seen[link_.name].append(packet.ptype.name)
                inner(packet, link_)

            link.arrive = arrive

        tap(network.link_between("s0", "h1"))
        tap(network.link_between("s0", "h0"))
        paths = {"cut_through": 0, "start_batch": 0}
        for name in paths:
            method = getattr(out_port, name)

            def counted(*args, _name=name, _method=method):
                paths[_name] += 1
                return _method(*args)

            setattr(out_port, name, counted)

        # A burst of eight frames from h0 at once: the first cuts through,
        # the rest queue (and cross the pause threshold, so X-OFF goes back
        # to h0) and leave in batches; the drain sends X-ON.
        for psn in range(8):
            sim.schedule_at(1e-6, switch.receive, _frame(psn), in_link)
        sim.run_until_idle()

        assert paths["cut_through"] >= 1 and paths["start_batch"] >= 1
        assert seen["s0->h1"] == ["DATA"] * 8
        assert seen["s0->h0"] == ["PFC_PAUSE", "PFC_RESUME"]
        assert network.hosts["h1"].data_packets_received == 8
