"""PFC deadlock detection: the paper's §2 circular buffer dependency.

The first end-to-end case: a 3-switch ring (``repro.topology.cyclic``)
carrying the ``circular`` workload, which feeds every receiver at full rate
from two different upstream switches.  Under RoCE with PFC the pause
wait-for graph closes into the cycle ``s0 -> s1 -> s2 -> s0`` again and
again, and the detector records every closing.  The ring does not wedge,
though: the mutual pauses are transient and all 30 flows complete before
the horizon.  The detector's graph joins switches whose ports are paused,
not frames that wait on each other, so it counts circular *pause* states
rather than circular *buffer* dependencies; the two-switch counter-example
below is the smallest case of the gap.  Under IRN (no PFC) packets drop and
retransmit instead, so the detector must stay silent forever.

The registered ``pfc_deadlock`` scenario runs a 6-switch ring, which does
wedge: there paths cross several inter-switch links, and under RoCE+PFC the
same few flows have finished at a 2 ms and at a 20 ms horizon, while IRN
without PFC finishes them all.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.spec import scenario
from repro.sim.deadlock import PfcDeadlockDetector
from repro.sim.engine import Simulator
from repro.topology.cyclic import build_ring
from repro.topology.simple import build_dumbbell


def _ring_config(transport: str, pfc_enabled: bool) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"deadlock-{transport}",
        topology="ring",
        ring_switches=3,
        workload="circular",
        num_hosts=9,
        num_flows=30,
        fixed_size_bytes=100_000,
        target_load=0.9,
        transport=transport,
        pfc_enabled=pfc_enabled,
        seed=1,
        max_sim_time_s=0.002,
    )


# ---------------------------------------------------------------------------
# Detector unit behaviour (no traffic: pause ports by hand)
# ---------------------------------------------------------------------------
def test_detector_reports_cycle_when_ring_ports_pause():
    sim = Simulator()
    network = build_ring(sim, num_switches=3, hosts_per_switch=1)
    detector = PfcDeadlockDetector()
    detector.install(network)

    # Pausing two of the three inter-switch ports leaves the graph acyclic.
    network.switches["s0"].port_towards("s1").pause()
    network.switches["s1"].port_towards("s2").pause()
    assert detector.deadlock_events == 0
    assert ("s0", "s1") in detector.waiting_edges

    # The third edge closes the cycle.
    network.switches["s2"].port_towards("s0").pause()
    assert detector.deadlock_events == 1
    assert detector.time_to_deadlock_s == sim.now
    assert detector.cycles[0][1][0] in ("s0", "s1", "s2")


def test_detector_forgets_resumed_edges():
    sim = Simulator()
    network = build_ring(sim, num_switches=3, hosts_per_switch=1)
    detector = PfcDeadlockDetector()
    detector.install(network)

    port = network.switches["s0"].port_towards("s1")
    port.pause()
    network.switches["s1"].port_towards("s2").pause()
    port.resume()
    # With s0 -> s1 gone, the closing pause only sees a 2-edge path.
    network.switches["s2"].port_towards("s0").pause()
    assert detector.deadlock_events == 0
    assert ("s0", "s1") not in detector.waiting_edges


def test_detector_ignores_repeated_pause_of_same_port():
    sim = Simulator()
    network = build_ring(sim, num_switches=3, hosts_per_switch=1)
    detector = PfcDeadlockDetector()
    detector.install(network)
    port = network.switches["s0"].port_towards("s1")
    port.pause()
    port.pause()
    assert detector.waiting_edges.count(("s0", "s1")) == 1


@pytest.mark.xfail(
    strict=True,
    reason="the detector closes a cycle over paused ports, whether or not a "
           "frame waits on the cycle",
)
def test_mutual_pause_of_one_idle_link_is_not_a_deadlock():
    # Two switches pause each other over their one link.  The two
    # directions use separate buffers and neither switch holds a frame, so
    # no buffer on the cycle waits on another: nothing is circularly
    # dependent.  Today the edges s0 -> s1 and s1 -> s0 alone count as one.
    sim = Simulator()
    network = build_dumbbell(sim, hosts_per_side=1)
    detector = PfcDeadlockDetector()
    detector.install(network)
    network.switches["s0"].port_towards("s1").pause()
    network.switches["s1"].port_towards("s0").pause()
    assert all(switch.total_queued_packets() == 0 for switch in network.switches.values())
    assert detector.deadlock_events == 0


# ---------------------------------------------------------------------------
# End-to-end: RoCE+PFC closes pause cycles, IRN does not
# ---------------------------------------------------------------------------
def test_roce_with_pfc_deadlocks_on_circular_dependency():
    result = run_experiment(_ring_config("roce", pfc_enabled=True))
    assert result.deadlock_events > 0
    assert result.time_to_deadlock_s is not None
    assert 0.0 < result.time_to_deadlock_s < 0.002
    # Lossless fabric: it pauses, it does not drop -- and it does not wedge.
    assert result.packets_dropped == 0
    assert result.pause_frames > 0
    assert result.to_row().flows_completed == 30


def test_irn_never_deadlocks_on_the_same_ring():
    result = run_experiment(_ring_config("irn", pfc_enabled=False))
    assert result.deadlock_events == 0
    assert result.time_to_deadlock_s is None
    assert result.pause_frames == 0


# ---------------------------------------------------------------------------
# A ring that wedges: the registered pfc_deadlock scenario on six switches
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def wedged_ring():
    """``pfc_deadlock``'s 90% row: RoCE+PFC at a 2 ms and a 20 ms horizon
    and IRN without PFC at 20 ms (about 1.2 s in all)."""
    cells = scenario("pfc_deadlock").configs()
    roce, irn = cells["90%|RoCE (with PFC)"], cells["90%|IRN (without PFC)"]
    return {
        "roce_2ms": run_experiment(roce.with_overrides(max_sim_time_s=0.002)).to_row(),
        "roce_20ms": run_experiment(roce.with_overrides(max_sim_time_s=0.02)).to_row(),
        "irn_20ms": run_experiment(irn.with_overrides(max_sim_time_s=0.02)).to_row(),
    }


def test_roce_with_pfc_wedges_for_good_on_a_six_switch_ring(wedged_ring):
    short, long = wedged_ring["roce_2ms"], wedged_ring["roce_20ms"]
    # Ten times the horizon finishes no further flow and runs no further
    # event: the fabric is stuck, not slow.
    assert short.flows_completed == long.flows_completed < long.flows_total == 180
    assert short.events_processed == long.events_processed
    assert long.packets_dropped == 0 and long.pause_frames > 0


def test_roce_with_pfc_wedges_at_every_registered_load():
    # The scenario's description says so: no load row drains.
    cells = scenario("pfc_deadlock").configs(max_sim_time_s=0.002)
    roce = {label: config for label, config in cells.items() if "RoCE" in label}
    assert len(roce) == 3
    for label, config in roce.items():
        assert (config.ring_switches, config.num_hosts) == (6, 24)
        row = run_experiment(config).to_row(label=label)
        assert row.flows_completed < row.flows_total == 180, label
        assert row.packets_dropped == 0 and row.deadlock_events > 0, label


def test_irn_without_pfc_finishes_every_flow_on_the_same_ring(wedged_ring):
    irn = wedged_ring["irn_20ms"]
    assert irn.flows_completed == irn.flows_total == 180
    assert irn.pause_frames == 0 and irn.deadlock_events == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3(a): headline statistics average completed flows only, so "
    "the wedged RoCE+PFC scores 3.03 over its 10 finished flows against "
    "IRN's 30.72 over all 180"))
def test_a_wedged_scheme_does_not_score_a_lower_slowdown(wedged_ring):
    roce, irn = wedged_ring["roce_20ms"], wedged_ring["irn_20ms"]
    assert roce.avg_slowdown >= irn.avg_slowdown
