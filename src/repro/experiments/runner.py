"""Experiment runner: build the fabric, inject the workload, collect metrics.

``run_experiment`` is the single entry point the examples and every benchmark
use.  It translates an :class:`ExperimentConfig` into a concrete simulation:

1. build the topology and switch configuration (PFC/ECN settings),
2. generate the background and/or incast flows,
3. at each flow's start time, instantiate the configured transport endpoints
   (with a per-flow congestion-control object when enabled) and register them
   with the hosts,
4. run the event loop and return an :class:`ExperimentResult` with the
   paper's metrics plus fabric statistics (drops, PFC pauses, retransmissions).

This is the one module that simulates, and it loads everything a cell can
reach when it is imported -- the engine, the fabric, every declared built-in
topology, workload, transport and congestion scheme -- so that no
``run_experiment`` call pays for an import (``tests/test_import_graph.py``
holds it to that).  Everything that only *describes* runs (configs, specs,
the cache, reports, the results service) stays importable without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.congestion.factory import make_congestion_control
from repro.congestion.registry import CONGESTION_SCHEMES
from repro.core.factory import make_flow_endpoints
from repro.core.irn import IrnConfig
from repro.core.iwarp import TcpConfig
from repro.core.registry import TRANSPORTS
from repro.core.roce import RoceConfig
from repro.core.transport import BaseReceiver, BaseSender, Flow
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.faults import FaultEngine
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import MetricSummary
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.registry import TOPOLOGIES
from repro.workload.incast import build_incast_flows, request_completion_time
from repro.workload.registry import WORKLOADS

# Every provider a config can name, now -- not inside the first cell that
# names it, where the import would be billed to the simulation.
for _registry in (TOPOLOGIES, WORKLOADS, TRANSPORTS, CONGESTION_SCHEMES):
    _registry.load_builtins()


@dataclass
class ExperimentResult:
    """Outcome of one simulation run."""

    config: ExperimentConfig
    summary: MetricSummary
    collector: MetricsCollector
    flows: List[Flow]
    #: Simulated time at which the run ended.
    sim_time_s: float
    #: Events executed by the simulator (throughput accounting).
    events_processed: int
    #: Fabric statistics.
    packets_dropped: int
    pause_frames: int
    packets_forwarded: int
    #: Transport statistics aggregated over all flows.
    data_packets_sent: int
    retransmissions: int
    timeouts: int
    #: PFC wait-for-graph deadlock events (see ``repro.sim.deadlock``).
    deadlock_events: int = 0
    #: Simulation time of the first deadlock event, if any.
    time_to_deadlock_s: Optional[float] = None
    #: Request completion time of the incast request (if one was configured).
    incast_rct_s: Optional[float] = None
    #: Summary restricted to the background traffic (when incast + cross
    #: traffic are mixed, as in §4.4.3).
    background_summary: Optional[MetricSummary] = None
    #: True when the config carried a non-empty fault plan.
    faults_enabled: bool = False
    #: Packets dropped by injected faults (link flaps + CRC corruption);
    #: counted separately from switch buffer drops so packet conservation
    #: holds modulo these explicit counters.
    fault_injected_drops: int = 0
    #: Retransmissions triggered while some fault window was open.
    retransmissions_during_fault: int = 0
    #: Last-fault-end to first full-goodput instant (``None`` if the run
    #: never recovered, had no pre-fault reference, or ran fault-free).
    recovery_time_s: Optional[float] = None

    @property
    def drop_rate(self) -> float:
        """Dropped packets as a fraction of data packets sent."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.data_packets_sent

    def completion_fraction(self) -> float:
        """Fraction of injected flows that completed."""
        if not self.flows:
            return 0.0
        return sum(1 for flow in self.flows if flow.completed) / len(self.flows)

    def to_row(self, label: Optional[str] = None) -> "ResultRow":
        """Flatten to a picklable :class:`ResultRow` (drops collector/flows)."""
        return ResultRow.from_result(self, label=label)


class _FlowLauncher:
    """Creates transport endpoints for a flow at its start time."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ExperimentConfig,
        collector: MetricsCollector,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.collector = collector
        self.senders: List[BaseSender] = []
        self.receivers: List[BaseReceiver] = []
        self._scheme = config.congestion_scheme()
        self._ack_coalesce_n = config.effective_ack_coalesce_n()
        self._ack_coalesce_s = config.effective_ack_coalesce_s()
        self._pacing_quantum_s = config.effective_pacing_quantum_s()
        self._irn_config = self._build_irn_config()
        self._roce_config = self._build_roce_config()
        self._tcp_config = self._build_tcp_config()
        self._cnp_interval = self._cnp_interval_s()

    # ------------------------------------------------------------------
    # Transport configuration
    # ------------------------------------------------------------------
    def _build_irn_config(self) -> IrnConfig:
        cfg = self.config
        return IrnConfig(
            mtu_bytes=cfg.mtu_bytes,
            header_bytes=cfg.effective_header_bytes(),
            generate_acks=True,
            timeouts_enabled=True,
            bdp_cap_packets=cfg.effective_bdp_cap_packets(),
            bdp_fc_enabled=True,
            rto_low_s=cfg.effective_rto_low_s(),
            rto_high_s=cfg.effective_rto_high_s(),
            rto_low_threshold_packets=cfg.rto_low_threshold_packets,
            retransmission_fetch_delay_s=2e-6 if cfg.worst_case_overheads else 0.0,
            ack_coalesce_n=self._ack_coalesce_n,
            ack_coalesce_s=self._ack_coalesce_s,
            pacing_quantum_s=self._pacing_quantum_s,
        )

    def _build_roce_config(self) -> RoceConfig:
        cfg = self.config
        # With PFC the paper's RoCE baseline sends no ACKs and disables
        # timeouts; without PFC it uses a fixed RTO_high and needs ACKs for
        # go-back-N progress.  RTT-based schemes (Timely among the built-ins)
        # additionally need per-packet RTT samples, hence ACKs, regardless
        # of PFC.
        needs_acks = (not cfg.pfc_enabled) or self._scheme.rtt_based
        return RoceConfig(
            mtu_bytes=cfg.mtu_bytes,
            header_bytes=cfg.header_bytes,
            rto_s=cfg.effective_rto_high_s(),
            generate_acks=needs_acks,
            timeouts_enabled=not cfg.pfc_enabled,
            ack_coalesce_n=self._ack_coalesce_n,
            ack_coalesce_s=self._ack_coalesce_s,
            pacing_quantum_s=self._pacing_quantum_s,
        )

    def _build_tcp_config(self) -> TcpConfig:
        cfg = self.config
        return TcpConfig(
            mtu_bytes=cfg.mtu_bytes,
            header_bytes=cfg.header_bytes,
            generate_acks=True,
            timeouts_enabled=True,
            rto_low_s=cfg.effective_rto_low_s(),
            rto_high_s=cfg.effective_rto_high_s(),
            min_rto_s=cfg.effective_rto_low_s(),
            initial_rto_s=cfg.effective_rto_high_s(),
            ack_coalesce_n=self._ack_coalesce_n,
            ack_coalesce_s=self._ack_coalesce_s,
            pacing_quantum_s=self._pacing_quantum_s,
        )

    def _cnp_interval_s(self) -> Optional[float]:
        # The batching interval is scheme metadata (expressed in RTTs), not
        # a runner constant, so third-party schemes can tune how aggressively
        # their marks are batched into notification frames.
        if self._scheme.wants_cnp:
            return max(self._scheme.cnp_interval_rtts * self.config.base_rtt_s(), 5e-6)
        return None

    def _make_cc(self):
        cfg = self.config
        if cfg.congestion_control == "none":
            return None
        cc = make_congestion_control(
            cfg.congestion_control,
            line_rate_bps=cfg.link_bandwidth_bps,
            base_rtt_s=cfg.base_rtt_s() + 8.0 * cfg.mtu_bytes * cfg.max_hop_count() / cfg.link_bandwidth_bps,
        )
        if self._pacing_quantum_s > 0 and hasattr(cc, "burst_credit_s"):
            # Quantized wake-ups round release times *up*; letting the pacer
            # bank one quantum of credit preserves the average rate.
            cc.burst_credit_s = self._pacing_quantum_s
        return cc

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def launch(self, flow: Flow) -> None:
        src_host = self.network.hosts[flow.src]
        dst_host = self.network.hosts[flow.dst]

        def on_sender_complete(completed_flow: Flow, now: float) -> None:
            src_host.deregister_sender(completed_flow.flow_id)

        sender, receiver = make_flow_endpoints(
            self.sim,
            src_host,
            flow,
            self.config.transport,
            irn_config=self._irn_config,
            roce_config=self._roce_config,
            tcp_config=self._tcp_config,
            congestion_control=self._make_cc(),
            cnp_interval_s=self._cnp_interval,
            on_sender_complete=on_sender_complete,
            on_receiver_complete=self.collector.on_flow_complete,
        )
        dst_host.register_receiver(receiver)
        src_host.register_sender(sender)
        self.senders.append(sender)
        self.receivers.append(receiver)


def _build_network(sim: Simulator, config: ExperimentConfig) -> Network:
    """Resolve the configured topology through the registry and build it."""
    builder = TOPOLOGIES.get(config.topology)
    return builder.build(sim, config, config.switch_config())


def _generate_flows(config: ExperimentConfig, network: Network) -> List[Flow]:
    """Resolve the configured workload through the registry; add the incast."""
    hosts = list(network.hosts.keys())
    generate = WORKLOADS.get(config.workload)
    flows: List[Flow] = list(generate(config, hosts))
    if config.incast is not None:
        flows.extend(
            build_incast_flows(config.incast, hosts, first_flow_id=len(flows) + 1_000_000)
        )
    if not flows:
        raise ValueError("experiment generates no flows")
    return flows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one simulation described by ``config`` and collect its metrics."""
    sim = Simulator(seed=config.seed)
    network = _build_network(sim, config)
    if config.port_batch_bytes is not None:
        # Bytes-based departure-batch cap, fabric-wide (host NICs source
        # the bursts PFC has to absorb, so they are capped too).
        network.set_port_batch_bytes(config.port_batch_bytes)
    collector = MetricsCollector(
        network,
        mtu_bytes=config.mtu_bytes,
        header_bytes=config.effective_header_bytes(),
        keep_records=config.keep_flow_records,
    )
    if config.fabric_digests:
        collector.install_fabric_probes()
    if config.c_latency_ratios:
        collector.install_c_latency_probe()
    # The deadlock detector is pure observation (no events, no randomness),
    # so it is always on -- the paper's §2 CBD pathology should never be
    # able to hide behind a disabled knob.
    collector.install_deadlock_detector()
    launcher = _FlowLauncher(sim, network, config, collector)

    fault_engine: Optional[FaultEngine] = None
    plan = config.fault_plan
    if plan is not None and not plan.is_empty:
        # Recovery probes wrap host receivers first (inner), the fault
        # engine second (outer): a fault-dropped packet must never count
        # as delivered goodput.
        collector.install_recovery_probes(
            bin_s=plan.effective_goodput_bin_s(config.base_rtt_s()),
            stall_threshold_s=plan.stall_threshold_s or config.effective_rto_low_s(),
        )
        fault_engine = FaultEngine(sim, network, plan, seed=config.seed)
        fault_engine.retransmission_probe = lambda: sum(
            sender.retransmissions for sender in launcher.senders
        )
        fault_engine.install()

    flows = _generate_flows(config, network)

    for flow in flows:
        sim.schedule_at(flow.start_time, launcher.launch, flow)

    sim.run(until=config.max_sim_time_s, max_events=config.max_events)

    recovery_time: Optional[float] = None
    if fault_engine is not None:
        fault_engine.finalize()
        tracker = collector.recovery_tracker
        if tracker is not None:
            recovery_time = tracker.recovery_time_s(
                plan.first_fault_start_s(), plan.last_fault_end_s()
            )

    incast_rct: Optional[float] = None
    background_summary: Optional[MetricSummary] = None
    if config.incast is not None:
        incast_flows = [flow for flow in flows if flow.group == "incast"]
        if incast_flows and all(flow.completed for flow in incast_flows):
            incast_rct = request_completion_time(flows)
        if collector.stream("background").count:
            background_summary = collector.summary(group="background")

    summary = (
        collector.summary() if collector.completed_count else MetricSummary(0.0, 0.0, 0.0, 0)
    )

    return ExperimentResult(
        config=config,
        summary=summary,
        collector=collector,
        flows=flows,
        sim_time_s=sim.now,
        events_processed=sim.events_processed,
        packets_dropped=network.total_dropped_packets(),
        pause_frames=network.total_pause_frames(),
        packets_forwarded=network.total_forwarded_packets(),
        data_packets_sent=sum(sender.packets_sent for sender in launcher.senders),
        retransmissions=sum(sender.retransmissions for sender in launcher.senders),
        timeouts=sum(sender.timeouts_fired for sender in launcher.senders),
        deadlock_events=collector.deadlock_events,
        time_to_deadlock_s=collector.time_to_deadlock_s,
        incast_rct_s=incast_rct,
        background_summary=background_summary,
        faults_enabled=fault_engine is not None,
        fault_injected_drops=0 if fault_engine is None else fault_engine.fault_drops,
        retransmissions_during_fault=(
            0 if fault_engine is None else fault_engine.retransmissions_during_fault
        ),
        recovery_time_s=recovery_time,
    )
