"""Experiment runner: build the fabric, inject the workload, collect metrics.

``run_experiment`` is the single entry point the examples and every benchmark
use.  It translates an :class:`ExperimentConfig` into a concrete simulation:

1. build the topology and switch configuration (PFC/ECN settings),
2. generate the background and/or incast flows,
3. at each flow's start time, instantiate the configured transport endpoints
   (with a per-flow congestion-control object when enabled) and register them
   with the hosts,
4. run the event loop and return an :class:`ExperimentResult`: the run's
   :class:`~repro.experiments.results.ResultRow` (the paper's metrics, fabric
   statistics, digests) plus the live collector and flows.

:class:`ExperimentResult` is defined here, beside its one producer, so that
a process which only reads cached rows never builds the class.

This is the one module that simulates, and it loads everything a cell can
reach when it is imported -- the engine, the fabric, every declared built-in
topology, workload, transport and congestion scheme -- so that no
``run_experiment`` call pays for an import (``tests/test_import_graph.py``
holds it to that).  Everything that only *describes* runs (configs, specs,
the cache, reports, the results service) stays importable without it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.congestion.factory import make_congestion_control
from repro.congestion.registry import CONGESTION_SCHEMES
from repro.core.irn import IrnReceiver, IrnSender
from repro.core.registry import TRANSPORTS
from repro.core.transport import Flow
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import _FIELD_NAMES, ResultRow
from repro.faults import FaultEngine
from repro.metrics.collector import MetricsCollector
from repro.metrics.sketch import QuantileDigest
from repro.metrics.stats import MetricSummary
from repro.sim import packet as packet_module
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.registry import TOPOLOGIES
from repro.workload.incast import build_incast_flows, request_completion_time
from repro.workload.registry import WORKLOADS

# Every provider a config can name, now -- not inside the first cell that
# names it, where the import would be billed to the simulation.
for _registry in (TOPOLOGIES, WORKLOADS, TRANSPORTS, CONGESTION_SCHEMES):
    _registry.load_builtins()


@dataclass(frozen=True)
class ExperimentResult(ResultRow):
    """A :class:`ResultRow` that still holds the run it came from.

    The live :class:`MetricsCollector` (with its back-reference into the
    simulated network) and every :class:`Flow` serve in-process post-hoc
    analysis.  That payload cannot cross a process boundary cheaply, and a
    sweep over hundreds of cells must not hold hundreds of simulated
    networks alive, so :meth:`to_row` drops it.  The collector and the
    flows take no part in ``==``, ``hash``, ``repr`` or :meth:`to_dict`:
    two results are equal exactly when their rows are.
    """

    collector: MetricsCollector = field(kw_only=True, compare=False, repr=False)
    flows: List[Flow] = field(kw_only=True, compare=False, repr=False)

    def to_row(self, label: Optional[str] = None) -> ResultRow:
        """The flat, picklable row, relabelled when ``label`` is given."""
        values = {name: getattr(self, name) for name in _FIELD_NAMES}
        if label is not None:
            values["label"] = label
        return ResultRow(**values)


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
        self.collector = collector
        self.senders: List[IrnSender] = []
        self.receivers: List[IrnReceiver] = []
        self._endpoints = TRANSPORTS.get(config.transport)(config)
        physics = config.physics()
        self._cnp_interval = physics.cnp_interval_s
        self._make_cc = lambda: None
        if config.congestion_control != "none":
            self._make_cc = functools.partial(
                make_congestion_control,
                config.congestion_control,
                line_rate_bps=config.link_bandwidth_bps,
                base_rtt_s=physics.cc_rtt_s,
            )

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def launch(self, flow: Flow) -> None:
        src_host = self.network.hosts[flow.src]
        dst_host = self.network.hosts[flow.dst]

        def on_sender_complete(completed_flow: Flow, now: float) -> None:
            src_host.deregister_sender(completed_flow.flow_id)

        sender, receiver = self._endpoints(
            self.sim,
            src_host,
            flow,
            self._make_cc(),
            self._cnp_interval,
            on_sender_complete,
            self.collector.on_flow_complete,
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
    # Packet spraying hashes ``Packet.uid``: number this run's packets from
    # zero, so its row does not depend on what the process built before it.
    packet_module._packet_ids = itertools.count()
    sim = Simulator(seed=config.seed)
    network = _build_network(sim, config)
    physics = config.physics()
    collector = MetricsCollector(
        network,
        mtu_bytes=config.mtu_bytes,
        header_bytes=physics.header_bytes,
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
        # Recovery probes tap host downlinks first (inner), the fault
        # engine its faulted links second (outer): a fault-dropped packet
        # must never count as delivered goodput.
        collector.install_recovery_probes(
            bin_s=plan.effective_goodput_bin_s(physics.base_rtt_s),
            stall_threshold_s=plan.stall_threshold_s or physics.rto_low_s,
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
    background: Optional[MetricSummary] = None
    if config.incast is not None:
        incast_flows = [flow for flow in flows if flow.group == "incast"]
        if incast_flows and all(flow.completed for flow in incast_flows):
            incast_rct = request_completion_time(flows)
        if collector.stream("background").count:
            background = collector.summary(group="background")

    summary = (
        collector.summary() if collector.completed_count else MetricSummary(0.0, 0.0, 0.0, 0)
    )
    stats = collector.stream()

    return ExperimentResult(
        label=config.name,
        name=config.name,
        fingerprint=config.fingerprint(),
        transport=config.transport,
        congestion_control=config.congestion_control,
        topology=config.topology,
        pfc_enabled=config.pfc_enabled,
        seed=config.seed,
        avg_slowdown=summary.avg_slowdown,
        avg_fct_s=summary.avg_fct,
        tail_fct_s=summary.tail_fct,
        num_flows=summary.num_flows,
        flows_total=len(flows),
        flows_completed=sum(1 for flow in flows if flow.completed),
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
        faults_enabled=fault_engine is not None,
        fault_injected_drops=0 if fault_engine is None else fault_engine.fault_drops,
        retransmissions_during_fault=(
            0 if fault_engine is None else fault_engine.retransmissions_during_fault
        ),
        recovery_time_s=recovery_time,
        incast_rct_s=incast_rct,
        background_avg_slowdown=background.avg_slowdown if background else None,
        background_avg_fct_s=background.avg_fct if background else None,
        background_tail_fct_s=background.tail_fct if background else None,
        background_num_flows=background.num_flows if background else None,
        # An empty stream digest is falsy and stored as None; the fabric,
        # recovery and c-latency digests are None exactly when not collected.
        fct_digest=_payload(stats.fct_digest or None),
        single_packet_digest=_payload(stats.single_packet_digest or None),
        queue_depth_digest=_payload(collector.fabric_queue_depth_digest()),
        pfc_pause_digest=_payload(collector.fabric_pfc_pause_digest()),
        goodput_digest=_payload(collector.goodput_timeline_digest()),
        stall_digest=_payload(collector.flow_stall_digest()),
        c_latency_digest=_payload(collector.c_latency_digest()),
        collector=collector,
        flows=flows,
    )


def _payload(digest: Optional[QuantileDigest]) -> Optional[Dict[str, Any]]:
    """A digest's JSON-safe row payload (``None`` stays ``None``)."""
    return digest.to_dict() if digest is not None else None
