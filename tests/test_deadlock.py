"""PFC deadlock detection: the paper's §2 circular buffer dependency.

The deterministic scenario: a 3-switch ring (``repro.topology.cyclic``)
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
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
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
