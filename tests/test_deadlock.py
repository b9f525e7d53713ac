"""PFC deadlock detection: the paper's §2 circular buffer dependency.

The deterministic scenario: a 3-switch ring (``repro.topology.cyclic``)
carrying the ``circular`` workload, which feeds every receiver at full rate
from two different upstream switches.  Under RoCE with PFC the pause
wait-for graph closes into the cycle ``s0 -> s1 -> s2 -> s0`` and the
fabric wedges; under IRN (no PFC) packets drop and retransmit instead, so
the detector must stay silent forever.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.deadlock import PfcDeadlockDetector
from repro.sim.engine import Simulator
from repro.topology.cyclic import build_ring


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


# ---------------------------------------------------------------------------
# End-to-end: RoCE+PFC wedges, IRN does not
# ---------------------------------------------------------------------------
def test_roce_with_pfc_deadlocks_on_circular_dependency():
    result = run_experiment(_ring_config("roce", pfc_enabled=True))
    assert result.deadlock_events > 0
    assert result.time_to_deadlock_s is not None
    assert 0.0 < result.time_to_deadlock_s < 0.002
    # Lossless fabric: it wedges, it does not drop.
    assert result.packets_dropped == 0
    assert result.pause_frames > 0


def test_irn_never_deadlocks_on_the_same_ring():
    result = run_experiment(_ring_config("irn", pfc_enabled=False))
    assert result.deadlock_events == 0
    assert result.time_to_deadlock_s is None
    assert result.pause_frames == 0
