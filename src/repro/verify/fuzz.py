"""Randomized simulation-case generation and execution.

A :class:`FuzzCase` is derived *entirely* from one integer seed: topology
(including cyclic rings and random meshes the preset families never
produce), workload, transport scheme and fault schedule.  Reproducing a
counterexample therefore needs nothing but its seed
(``python -m repro.verify --seed N``).

``run_case`` executes a case and returns a :class:`CaseOutcome` -- the raw
observations (execution trace, fabric and host counters, per-QP ordering
violations) that :mod:`repro.verify.invariants` judges.

Fault kinds (all deterministic, all scheduled before the run starts).
The packet-touching kinds are the shared :mod:`repro.faults` dataclasses --
the same ``FaultPlan`` machinery experiment configs carry -- installed
through one :class:`~repro.faults.FaultEngine` per case:

* **pause storm** (:class:`~repro.faults.PauseStorm`) -- pause/resume an
  output port for a window (a transient link stall).
* **packet corruption** (:class:`~repro.faults.PacketCorruption`) -- seeded
  Bernoulli CRC drops on one directed link, counted in the engine's
  ``fault_drops`` (never as congestion drops).  The harness's known-bad
  self-test injects a probability-1.0 corruption into a *lossless* case on
  purpose to prove the losslessness invariant catches it.
* **link flap** (:class:`~repro.faults.LinkFlap`) / **degraded link**
  (:class:`~repro.faults.DegradedLink`) -- drawn at seed-tail.
* **timer storm** (fuzzer-private :class:`TimerStormFault`) -- a burst of
  set-then-mostly-cancel timers (the retransmission pattern at adversarial
  volume), stressing the engine's tombstone compaction and its
  cancellation accounting.

All packet-touching faults are restricted to non-lossless cases: under PFC
an injected drop (or a resume fighting the PFC state machine) would make
losslessness violations the *fuzzer's* fault rather than the simulator's.

Seed-corpus note: promoting the fault kinds to :mod:`repro.faults`
replaced the fuzzer-private ``PauseFault``/``DropFault`` draws with
``PauseStorm``/``PacketCorruption`` (same draw positions) and added
seed-tail ``LinkFlap``/``DegradedLink`` draws, so seeds generate different
fault schedules than they did before that change.  A seed remains a
complete reproduction against the current code -- that is the contract --
and counterexample files record the seed, not the schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.transport import Flow
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import _FlowLauncher
from repro.faults import (
    DegradedLink,
    FaultEngine,
    FaultPlan,
    LinkFlap,
    PacketCorruption,
    PauseStorm,
)
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.network import Network

#: Topology families the fuzzer samples.  ``mesh`` is built directly (a
#: random connected switch graph); the rest resolve through ``TOPOLOGIES``.
TOPOLOGY_FAMILIES = ("star", "dumbbell", "parking_lot", "ring", "mesh")

#: Transports the fuzzer samples (each paired with a pfc on/off coin).
TRANSPORT_CHOICES = ("irn", "roce")

#: Event budget per run; a case that exceeds it is reported as undrained
#: (conservation is then skipped -- in-flight packets are unaccountable).
DEFAULT_MAX_EVENTS = 2_000_000


# ---------------------------------------------------------------------------
# Fault schedule
# ---------------------------------------------------------------------------
# The packet-touching kinds (PauseStorm, PacketCorruption, LinkFlap,
# DegradedLink) are the shared repro.faults dataclasses; only the timer
# storm stays fuzzer-private -- it stresses the engine, not the fabric, and
# has no meaning in an experiment's fault plan.
@dataclass(frozen=True)
class TimerStormFault:
    """At ``time_s`` set ``len(delays)`` timers; cancel ``cancel_now`` of
    them immediately and another batch ``cancel_later`` after a delay."""

    time_s: float
    delays: Tuple[float, ...]
    cancel_now: Tuple[int, ...]
    cancel_later: Tuple[int, ...]
    cancel_later_delay_s: float


# ---------------------------------------------------------------------------
# The case itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined simulation case (pure function of ``seed``)."""

    seed: int
    topology: str
    transport: str
    pfc_enabled: bool
    num_hosts: int
    ring_switches: int
    mtu_bytes: int
    bandwidth_bps: float
    link_delay_s: float
    buffer_bytes: int
    #: (flow_id, src, dst, size_bytes, start_time) tuples.
    flows: Tuple[Tuple[int, str, str, int, float], ...]
    faults: Tuple[Any, ...] = ()
    #: Mesh wiring, only for ``topology == "mesh"``: switch count, the
    #: switch-switch edges, and each host's switch index.
    mesh_links: Tuple[Tuple[int, int], ...] = ()
    host_attach: Tuple[int, ...] = ()
    max_sim_time_s: float = 0.05
    max_events: int = DEFAULT_MAX_EVENTS
    #: Receiver ACK coalescing window (1 = per-packet ACKs).  Fuzzing this
    #: exercises the flush-timer path against the accounting identity.
    ack_coalesce_n: int = 1
    ack_coalesce_us: float = 25.0
    #: Heterogeneous per-link delays: when non-zero, every switch-switch
    #: link is stretched to this propagation delay (100-1000x the host
    #: links).  0 keeps the fabric homogeneous.
    wan_delay_s: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int) -> "FuzzCase":
        """Derive a case from ``seed`` (and nothing else)."""
        rng = random.Random(seed)
        topology = rng.choice(TOPOLOGY_FAMILIES)
        transport = rng.choice(TRANSPORT_CHOICES)
        pfc_enabled = rng.random() < 0.5
        mtu = rng.choice((500, 1000, 1500))
        bandwidth = rng.choice((5e9, 10e9))
        delay = rng.choice((5e-7, 1e-6, 2e-6))
        buffer_bytes = rng.randrange(8_000, 40_000, 1000)
        ring_switches = rng.randint(3, 4)

        mesh_links: Tuple[Tuple[int, int], ...] = ()
        host_attach: Tuple[int, ...] = ()
        if topology == "star":
            num_hosts = rng.randint(3, 8)
            hosts = [f"h{i}" for i in range(num_hosts)]
            links = [("h%d" % i, "s0") for i in range(num_hosts)]
            links += [("s0", "h%d" % i) for i in range(num_hosts)]
        elif topology == "dumbbell":
            num_hosts = rng.randint(4, 8)
            hps = max(1, num_hosts // 2)
            hosts = [f"h{i}" for i in range(2 * hps)]
            links = [("s0", "s1"), ("s1", "s0")]
            for i in range(hps):
                links += [(f"h{i}", "s0"), ("s0", f"h{i}")]
            for i in range(hps, 2 * hps):
                links += [(f"h{i}", "s1"), ("s1", f"h{i}")]
        elif topology == "parking_lot":
            # The registered builder ignores num_hosts: 3 switches x 2 hosts.
            num_hosts = 6
            hosts = [f"h{i}" for i in range(6)]
            links = [("s0", "s1"), ("s1", "s0"), ("s1", "s2"), ("s2", "s1")]
            for i, s in enumerate((0, 0, 1, 1, 2, 2)):
                links += [(f"h{i}", f"s{s}"), (f"s{s}", f"h{i}")]
        elif topology == "ring":
            hps = rng.randint(1, 3)
            num_hosts = ring_switches * hps
            hosts = [f"h{i}" for i in range(num_hosts)]
            links = []
            for s in range(ring_switches):
                nxt = (s + 1) % ring_switches
                links += [(f"s{s}", f"s{nxt}"), (f"s{nxt}", f"s{s}")]
            for i in range(num_hosts):
                s = i // hps
                links += [(f"h{i}", f"s{s}"), (f"s{s}", f"h{i}")]
        else:  # mesh
            num_switches = rng.randint(2, 5)
            edges = set()
            # Random spanning tree keeps the graph connected...
            for s in range(1, num_switches):
                edges.add((rng.randrange(s), s))
            # ...plus a few chords, which may close cycles.
            for _ in range(rng.randint(0, num_switches)):
                a = rng.randrange(num_switches)
                b = rng.randrange(num_switches)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            mesh_links = tuple(sorted(edges))
            num_hosts = rng.randint(2, 6)
            host_attach = tuple(rng.randrange(num_switches) for _ in range(num_hosts))
            hosts = [f"h{i}" for i in range(num_hosts)]
            links = []
            for a, b in mesh_links:
                links += [(f"m{a}", f"m{b}"), (f"m{b}", f"m{a}")]
            for i, s in enumerate(host_attach):
                links += [(f"h{i}", f"m{s}"), (f"m{s}", f"h{i}")]

        # Workload: random pairs, sizes and start times.
        num_flows = rng.randint(3, 14)
        flows = []
        for flow_id in range(num_flows):
            src = rng.choice(hosts)
            dst = src
            while dst == src:
                dst = rng.choice(hosts)
            size = rng.randrange(mtu, 30_000)
            start = rng.uniform(0.0, 200e-6)
            flows.append((flow_id, src, dst, size, start))

        # Fault schedule (packet-touching kinds only on non-lossless cases;
        # see the module docstring's seed-corpus note).
        faults: List[Any] = []
        if not pfc_enabled:
            for _ in range(rng.randint(0, 2)):
                src, dst = rng.choice(links)
                start = rng.uniform(0.0, 150e-6)
                faults.append(
                    PauseStorm(src, dst, start, start + rng.uniform(20e-6, 200e-6))
                )
            if rng.random() < 0.5:
                src, dst = rng.choice(links)
                probability = rng.uniform(0.05, 0.5)
                start = rng.uniform(0.0, 150e-6)
                faults.append(
                    PacketCorruption(
                        src, dst, probability,
                        start_s=start, end_s=start + rng.uniform(50e-6, 400e-6),
                    )
                )
        for _ in range(rng.randint(0, 2)):
            count = rng.randint(40, 250)
            delays = tuple(rng.uniform(1e-6, 4e-3) for _ in range(count))
            ids = list(range(count))
            rng.shuffle(ids)
            split = int(count * 0.6)
            faults.append(
                TimerStormFault(
                    time_s=rng.uniform(0.0, 200e-6),
                    delays=delays,
                    cancel_now=tuple(sorted(ids[:split])),
                    cancel_later=tuple(sorted(ids[split:split + count // 5])),
                    cancel_later_delay_s=rng.uniform(10e-6, 100e-6),
                )
            )

        # New draws go at the END so earlier seeds keep reproducing the
        # same topology/workload/fault schedule they always did.
        ack_coalesce_n = rng.choice((1, 2, 4, 8))
        ack_coalesce_us = rng.choice((5.0, 25.0, 60.0))
        if not pfc_enabled:
            if rng.random() < 0.4:
                src, dst = rng.choice(links)
                start = rng.uniform(0.0, 150e-6)
                faults.append(
                    LinkFlap(src, dst, start, start + rng.uniform(20e-6, 150e-6))
                )
            if rng.random() < 0.3:
                src, dst = rng.choice(links)
                start = rng.uniform(0.0, 150e-6)
                faults.append(
                    DegradedLink(
                        src, dst, start, start + rng.uniform(50e-6, 300e-6),
                        # Powers of two, so the end-of-window division
                        # restores the link's rate and delay bit-exactly.
                        bandwidth_factor=rng.choice((0.25, 0.5)),
                        delay_factor=rng.choice((1.0, 2.0, 4.0)),
                    )
                )

        # Heterogeneous delays, also at seed-tail: about a third of the
        # cases stretch every switch-switch link to WAN scale and are held
        # to the same invariants.  (Star fabrics have no switch-switch
        # links; the draw still happens so later seeds stay
        # position-stable.)
        wan_delay_s = 0.0
        if rng.random() < 0.35:
            wan_delay_s = delay * rng.choice((100.0, 1000.0))

        return cls(
            seed=seed,
            topology=topology,
            transport=transport,
            pfc_enabled=pfc_enabled,
            num_hosts=num_hosts,
            ring_switches=ring_switches,
            mtu_bytes=mtu,
            bandwidth_bps=bandwidth,
            link_delay_s=delay,
            buffer_bytes=buffer_bytes,
            flows=tuple(flows),
            faults=tuple(faults),
            mesh_links=mesh_links,
            host_attach=host_attach,
            ack_coalesce_n=ack_coalesce_n,
            ack_coalesce_us=ack_coalesce_us,
            wan_delay_s=wan_delay_s,
        )

    def with_faults(self, *faults: Any) -> "FuzzCase":
        """A copy with a replaced fault schedule (known-bad self-test)."""
        return replace(self, faults=tuple(faults))

    # ------------------------------------------------------------------
    def experiment_config(self) -> ExperimentConfig:
        """The transport/switch settings as an :class:`ExperimentConfig`.

        RTOs, the BDP cap and the buffer are explicit, so nothing the run
        reads comes from the topology registry -- meshes have no registered
        entry, and ``topology`` only names one ``physics()`` can resolve.
        ``workload`` is ``none`` because the case carries its own flow list.
        """
        bdp = max(1, int(self.bandwidth_bps * 6 * self.link_delay_s / 8.0))
        # WAN-stretched cases budget the long-haul RTT into the explicit
        # RTOs (at most ~4 stretched hops each way on the fuzzed fabrics);
        # homogeneous cases keep the exact pre-WAN values, so their seeds
        # reproduce the same runs they always did.
        wan = self.wan_delay_s
        return ExperimentConfig(
            name=f"fuzz-{self.seed}",
            topology="star",
            num_hosts=self.num_hosts,
            link_bandwidth_bps=self.bandwidth_bps,
            link_delay_s=self.link_delay_s,
            pfc_enabled=self.pfc_enabled,
            buffer_bytes_per_port=self.buffer_bytes,
            transport=self.transport,
            mtu_bytes=self.mtu_bytes,
            rto_low_s=100e-6 + 4.0 * wan,
            rto_high_s=320e-6 + 8.0 * wan,
            bdp_cap_packets=max(2, bdp // self.mtu_bytes),
            congestion_control="none",
            workload="none",
            ack_coalesce_n=self.ack_coalesce_n,
            ack_coalesce_us=self.ack_coalesce_us,
            seed=self.seed,
            max_sim_time_s=self.max_sim_time_s,
            max_events=self.max_events,
        )

    def build_network(self, sim: Simulator) -> Network:
        """Wire the case's fabric (registry builders where one exists)."""
        config = self.experiment_config()
        switch_config = config.switch_config()
        if self.topology == "mesh":
            network = Network(sim)
            num_switches = 1 + max(
                (max(a, b) for a, b in self.mesh_links), default=0
            )
            num_switches = max(num_switches, max(self.host_attach, default=0) + 1)
            for s in range(num_switches):
                network.add_switch(f"m{s}", config=switch_config)
            for a, b in self.mesh_links:
                network.connect(f"m{a}", f"m{b}", self.bandwidth_bps, self.link_delay_s)
            for i, s in enumerate(self.host_attach):
                network.add_host(f"h{i}")
                network.connect(f"h{i}", f"m{s}", self.bandwidth_bps, self.link_delay_s)
            network.build_routing()
            return self._stretch_fabric_links(network)
        from repro.topology import TOPOLOGIES

        builder = TOPOLOGIES.get(self.topology)
        shaped = config.with_overrides(
            topology=self.topology, ring_switches=self.ring_switches
        )
        return self._stretch_fabric_links(builder.build(sim, shaped, switch_config))

    def _stretch_fabric_links(self, network: Network) -> Network:
        """Apply the case's WAN stretch to every switch-switch link."""
        if self.wan_delay_s:
            for a in network.switches:
                for b in network.adjacency[a]:
                    if b in network.switches:
                        network.set_link_delay(a, b, self.wan_delay_s)
        return network

    def build_flows(self) -> List[Flow]:
        return [
            Flow(flow_id=fid, src=src, dst=dst, size_bytes=size, start_time=start)
            for fid, src, dst, size, start in self.flows
        ]

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for counterexample repro files."""
        return {
            "seed": self.seed,
            "topology": self.topology,
            "transport": self.transport,
            "pfc_enabled": self.pfc_enabled,
            "num_hosts": self.num_hosts,
            "num_flows": len(self.flows),
            "faults": [type(f).__name__ for f in self.faults],
            "ack_coalesce_n": self.ack_coalesce_n,
            "ack_coalesce_us": self.ack_coalesce_us,
            "wan_delay_s": self.wan_delay_s,
        }


# ---------------------------------------------------------------------------
# Fault installation
# ---------------------------------------------------------------------------
def _noop() -> None:
    return None


def install_faults(
    sim: Simulator, network: Network, case: FuzzCase
) -> Optional[FaultEngine]:
    """Install every fault in ``case``.

    The packet-touching kinds go through one shared
    :class:`~repro.faults.FaultEngine` (the same machinery experiment runs
    use), whose ``fault_drops`` counter the conservation invariant balances
    against; timer storms are scheduled directly.  Returns the engine, or
    ``None`` when the case carries only timer storms.
    """
    promoted = tuple(
        fault for fault in case.faults if not isinstance(fault, TimerStormFault)
    )
    engine: Optional[FaultEngine] = None
    if promoted:
        engine = FaultEngine(
            sim, network, FaultPlan(faults=promoted), seed=case.seed
        )
        engine.install()
    for fault in case.faults:
        if isinstance(fault, TimerStormFault):
            sim.schedule_at(fault.time_s, _fire_timer_storm, sim, fault)
    return engine


def _fire_timer_storm(sim: Simulator, fault: TimerStormFault) -> None:
    timers = [sim.schedule(delay, _noop) for delay in fault.delays]
    for index in fault.cancel_now:
        sim.cancel(timers[index])
    if fault.cancel_later:
        later = [timers[index] for index in fault.cancel_later]
        sim.schedule(
            fault.cancel_later_delay_s,
            lambda: [sim.cancel(timer) for timer in later],
        )


# ---------------------------------------------------------------------------
# Per-QP delivery-ordering tap
# ---------------------------------------------------------------------------
class OrderingTracker:
    """Watches every receiver's in-order delivery frontier.

    The per-QP contract shared by all transports: the receiver's
    ``expected_psn`` (the in-order frontier acknowledged back to the
    sender) never regresses, whatever the arrival order.  Violations are
    recorded, not raised, so a single run reports every broken QP.
    """

    def __init__(self) -> None:
        self.violations: List[str] = []

    def tap(self, receiver, flow: Flow) -> None:
        if not hasattr(receiver, "expected_psn"):
            return
        orig_on_data = receiver.on_data
        frontier = [receiver.expected_psn]
        violations = self.violations

        def tapped(packet, now):
            result = orig_on_data(packet, now)
            current = receiver.expected_psn
            if current < frontier[0]:
                violations.append(
                    f"flow {flow.flow_id} ({flow.src}->{flow.dst}): expected_psn "
                    f"regressed {frontier[0]} -> {current} at t={now}"
                )
            frontier[0] = current
            return result

        receiver.on_data = tapped


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
@dataclass
class CaseOutcome:
    """Raw observations from one run of one case."""

    trace: List[Tuple[float, int]]
    events_scheduled: int
    events_processed: int
    events_cancelled: int
    pending_events: int
    drained: bool
    packets_committed: int      # host NIC pulls (data + control)
    packets_delivered: int      # host receives (data + control)
    switch_drops: int
    #: Packets consumed by the shared fault engine (corruption + flap);
    #: conservation balances against this counter, and losslessness treats
    #: it exactly like a switch drop.
    fault_drops: int
    queued_packets: int
    flows_total: int
    flows_completed: int
    completions_recorded: int
    ordering_violations: List[str] = field(default_factory=list)
    deadlock_events: int = 0
    time_to_deadlock_s: Optional[float] = None
    pause_frames: int = 0


def run_case(case: FuzzCase) -> CaseOutcome:
    """Execute ``case`` and collect what the invariants judge."""
    config = case.experiment_config()
    sim = Simulator(seed=case.seed)
    trace = sim.enable_trace()
    network = case.build_network(sim)
    collector = MetricsCollector(
        network,
        mtu_bytes=case.mtu_bytes,
        header_bytes=config.physics().header_bytes,
    )
    detector = collector.install_deadlock_detector()
    launcher = _FlowLauncher(sim, network, config, collector)
    ordering = OrderingTracker()

    def launch(flow: Flow) -> None:
        launcher.launch(flow)
        ordering.tap(launcher.receivers[-1], flow)

    flows = case.build_flows()
    for flow in flows:
        sim.schedule_at(flow.start_time, launch, flow)
    fault_engine = install_faults(sim, network, case)

    sim.run(until=case.max_sim_time_s, max_events=case.max_events)
    # Let retransmissions and queued traffic drain to quiescence (bounded by
    # the event valve); conservation is only judged on fully-drained runs.
    sim.run_until_idle(max_events=case.max_events)

    hosts = network.hosts.values()
    return CaseOutcome(
        trace=trace,
        events_scheduled=sim.events_scheduled,
        events_processed=sim.events_processed,
        events_cancelled=sim.events_cancelled,
        pending_events=sim.pending_events,
        drained=sim.pending_events == 0,
        packets_committed=sum(
            h.data_packets_sent + h.control_packets_sent for h in hosts
        ),
        packets_delivered=sum(
            h.data_packets_received + h.control_packets_received for h in hosts
        ),
        switch_drops=network.total_dropped_packets(),
        fault_drops=0 if fault_engine is None else fault_engine.fault_drops,
        queued_packets=network.total_queued_packets(),
        flows_total=len(flows),
        flows_completed=sum(1 for flow in flows if flow.completed),
        completions_recorded=collector.completed_count,
        ordering_violations=ordering.violations,
        deadlock_events=detector.deadlock_events,
        time_to_deadlock_s=detector.time_to_deadlock_s,
        pause_frames=network.total_pause_frames(),
    )
