"""Experiment configuration.

An :class:`ExperimentConfig` fully describes one simulation run: topology,
switch/PFC settings, transport, congestion control, workload and the IRN
parameters under study.  Presets for the paper's scenarios live in
:mod:`repro.experiments.scenarios` (declarative :class:`ScenarioSpec` data in
the ``SCENARIOS`` registry).

The component fields (``topology``, ``transport``, ``congestion_control``,
``workload``) are registry names -- plain strings naming entries in
:data:`repro.topology.TOPOLOGIES`, :data:`repro.core.TRANSPORTS`,
:data:`repro.congestion.CONGESTION_SCHEMES` and
:data:`repro.workload.WORKLOADS`.  ``__post_init__`` stores each one in its
registry's canonical spelling (case folded, aliases resolved), so every
spelling of one component serializes, fingerprints and aggregates
identically.

This module imports declarations only -- the four registries (which know
their built-ins by name, see :mod:`repro.registry`) -- so expanding,
fingerprinting and looking up cells costs no simulator import.  The fault,
incast and PFC types load where a config coerces or derives them: the two
dict coercions in ``__post_init__``, ``effective_headroom_bytes`` and
``switch_config``.  The ``effective_*`` derivations resolve the topology or
scheme *object* and load its provider on first use.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.congestion.registry import CONGESTION_SCHEMES
from repro.core.registry import TRANSPORTS
from repro.topology.registry import TOPOLOGIES
from repro.workload.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.sim.switch import SwitchConfig
    from repro.workload.incast import IncastParams


#: Config fields that never influence the physics of a run *or* the cached
#: row contents, and are therefore excluded from the canonical serialization
#: (and the fingerprint): ``name`` is cosmetic.
_NON_PHYSICAL_FIELDS = ("name",)

#: ``field -> value at which the field is left out of the canonical dict``.
#: A field may be listed only if a run at the listed value is byte-identical
#: (events and :class:`~repro.experiments.results.ResultRow`) to a run from
#: before the field existed; every other value is fingerprinted.  The
#: mechanism exists because the fingerprint is part of the row and row
#: digests are pinned (``tests/test_fabric_golden.py``,
#: ``benchmarks/e2e/baseline.json``) -- see "What is in a fingerprint" in
#: ``docs/architecture.md``.  The values are the *raw* knobs, never derived
#: ones, so a fingerprint cannot depend on what is registered in a process.
_OMITTED_AT: Dict[str, Any] = {
    "fabric_digests": False,
    "ring_switches": 3,
    "wan_delay_s": 1e-3,
    "c_latency_ratios": False,
    # Only per-packet ACKs match pre-knob runs; the default of 4 does not.
    "ack_coalesce_n": 1,
    "fault_plan": None,
}


@dataclass
class ExperimentConfig:
    """Everything needed to run one simulation."""

    name: str = "default"

    # --- topology ---------------------------------------------------------
    topology: str = "fat_tree"
    fat_tree_k: int = 4
    num_hosts: int = 8            # used by star/dumbbell topologies
    #: Switches on the ``ring`` topology's cycle (the circular-dependency
    #: fabric behind the ``pfc_deadlock`` scenario).
    ring_switches: int = 3
    link_bandwidth_bps: float = 10e9
    link_delay_s: float = 1e-6
    #: Long-haul propagation delay for the WAN topologies (``wan_dumbbell``'s
    #: inter-switch bottleneck, ``inter_dc_fattree``'s core-to-core links).
    #: The default is 1 ms -- 1000x the intra-DC ``link_delay_s`` default,
    #: roughly 200 km of fiber.  Homogeneous topologies never read it.
    wan_delay_s: float = 1e-3

    # --- switch / PFC -------------------------------------------------------
    pfc_enabled: bool = True
    #: Per-input-port buffer.  ``None`` means twice the network BDP (§4.1).
    buffer_bytes_per_port: Optional[int] = None
    #: PFC headroom.  ``None`` derives it from the upstream link's BDP.
    pfc_headroom_bytes: Optional[int] = None

    # --- transport ------------------------------------------------------------
    transport: str = "irn"
    mtu_bytes: int = 1000
    header_bytes: int = 48
    #: IRN timeouts.  ``None`` derives them with the paper's rule (§4.1):
    #: RTO_high is the longest-path propagation delay plus the time to drain a
    #: completely full switch buffer (320 us for the paper's 40 Gbps fabric);
    #: RTO_low is the desired upper bound on short-message tail latency
    #: (100 us in the paper, about a third of RTO_high).
    rto_low_s: Optional[float] = None
    rto_high_s: Optional[float] = None
    rto_low_threshold_packets: int = 3
    #: Explicit BDP-FC cap; ``None`` computes it from the topology.
    bdp_cap_packets: Optional[int] = None
    #: §6.3 worst-case implementation overheads (extra headers + PCIe fetch
    #: delay for retransmissions).
    worst_case_overheads: bool = False
    #: Receiver-side cumulative-ACK coalescing window (packets): real
    #: RoCE/IRN NICs aggregate in-order acknowledgements, so the default
    #: models the hardware and deletes most per-packet ACK events.  1
    #: restores the per-packet ACK stream exactly.  RTT-based schemes cap
    #: the effective window through their registry metadata
    #: (``CongestionScheme.max_ack_coalesce``).
    ack_coalesce_n: int = 4
    #: Flush timeout (microseconds) for a partially filled coalescing
    #: window; clamped to half of the effective RTO_low so the total
    #: loss-detection latency stays near RTO_low (the sender budgets the
    #: flush delay into its retransmission timer).
    ack_coalesce_us: float = 25.0

    # --- congestion control ------------------------------------------------------
    congestion_control: str = "none"

    # --- workload ------------------------------------------------------------------
    workload: str = "heavy_tailed"
    target_load: float = 0.7
    num_flows: int = 200
    #: Scale factor applied to the medium/large bands of the heavy-tailed mix
    #: (benchmarks shrink flows so pure-Python simulation stays fast).
    flow_size_scale: float = 0.1
    uniform_low_bytes: float = 50_000
    uniform_high_bytes: float = 500_000
    fixed_size_bytes: int = 100_000
    incast: Optional[IncastParams] = None

    # --- simulation control ----------------------------------------------------------
    seed: int = 1
    #: Hard wall on simulated time (seconds); ``None`` runs to completion.
    max_sim_time_s: Optional[float] = 5.0
    #: Safety valve on the number of processed events (>= 1; ``None`` for
    #: none).
    max_events: Optional[int] = 50_000_000
    #: Collect §4.4 congestion-spreading observability: per-switch
    #: queue-depth and PFC-pause-duration :class:`~repro.metrics.sketch.
    #: QuantileDigest`s, exported on :class:`~repro.experiments.results.
    #: ResultRow` and pooled by ``aggregate_rows``.  Pure observation (no
    #: event, ordering or RNG impact: results are byte-identical either
    #: way), but it changes what the cached *row* carries, so it is
    #: fingerprinted: a digest-collecting sweep never gets served
    #: digest-less rows.
    fabric_digests: bool = False
    #: Collect per-flow c-latency ratios (FCT divided by the speed-of-light
    #: lower bound: the path's one-way propagation delay from the topology's
    #: hop delays), the "Towards a Speed of Light Internet" metric for
    #: propagation-dominated fabrics.  Streaming digest only (no event,
    #: ordering or RNG impact), but like ``fabric_digests`` it changes what
    #: the cached row carries.
    c_latency_ratios: bool = False
    #: Deterministic fault schedule (:class:`repro.faults.FaultPlan`).
    #: ``None`` -- and an *empty* plan, which normalizes to ``None`` -- run
    #: fault-free.  A non-empty plan changes both the physics and what the
    #: cached row carries (recovery observables).
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # One spelling per component: aliases and case fold here, so they
        # cannot split fingerprints or aggregation cells.  Names nothing has
        # registered (yet) pass through lower-cased.
        self.topology = TOPOLOGIES.canonical_name(self.topology)
        self.transport = TRANSPORTS.canonical_name(self.transport)
        self.congestion_control = CONGESTION_SCHEMES.canonical_name(self.congestion_control)
        self.workload = WORKLOADS.canonical_name(self.workload)
        if isinstance(self.incast, dict):
            from repro.workload.incast import IncastParams

            self.incast = IncastParams(**self.incast)
        if isinstance(self.fault_plan, dict):
            from repro.faults import FaultPlan

            self.fault_plan = FaultPlan(**self.fault_plan)
        if self.fault_plan is not None and self.fault_plan.is_empty:
            # An empty plan is physically identical to no plan; normalizing
            # here gives both one fingerprint.
            self.fault_plan = None
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            # NaN would disable a bound (max_sim_time_s=NaN ran with no
            # horizon) and inf overflows mid-run: reject both up front.
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.ack_coalesce_n < 1:
            raise ValueError("ack_coalesce_n must be >= 1 (1 = per-packet ACKs)")
        if self.ack_coalesce_us <= 0:
            raise ValueError("ack_coalesce_us must be positive")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be >= 1 (None = no valve)")

    def check_components(self) -> None:
        """Raise :class:`~repro.registry.UnknownNameError` unless every
        component field names something registered or declared.

        A check of names only (no provider is imported), for callers that
        are about to run the config.  ``__post_init__`` cannot do it: a
        config may be built before the plugin registering its components is
        imported.
        """
        TOPOLOGIES.require(self.topology)
        TRANSPORTS.require(self.transport)
        CONGESTION_SCHEMES.require(self.congestion_control)
        WORKLOADS.require(self.workload)

    # ------------------------------------------------------------------
    # Read by benchmarks/e2e/orchestration.py (frozen with the benchmark);
    # everything under src/ reads the fields themselves.
    # ------------------------------------------------------------------
    @property
    def topology_name(self) -> str:
        return self.topology

    @property
    def workload_name(self) -> str:
        return self.workload

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def max_hop_count(self) -> int:
        """Longest-path hop count, from the registered topology's metadata."""
        return TOPOLOGIES.get(self.topology).max_hop_count(self)

    def path_delay_s(self) -> float:
        """One-way propagation delay of the longest host-to-host path.

        Homogeneous topologies derive it as ``max_hop_count * link_delay_s``;
        WAN topologies override it through their registry metadata
        (:attr:`~repro.topology.registry.TopologyBuilder.path_delay_s`) so
        RTO and BDP derivations stay sane under 1000x delay heterogeneity.
        """
        delay = TOPOLOGIES.get(self.topology).path_delay_s
        if delay is not None:
            return delay(self)
        return self.max_hop_count() * self.link_delay_s

    def base_rtt_s(self) -> float:
        """Unloaded round-trip propagation time of the longest path."""
        return 2.0 * self.path_delay_s()

    def bdp_bytes(self) -> int:
        """Bandwidth-delay product of the longest path."""
        return int(self.link_bandwidth_bps * self.base_rtt_s() / 8.0)

    def effective_bdp_cap_packets(self) -> int:
        """The BDP-FC cap in packets (explicit override or derived)."""
        if self.bdp_cap_packets is not None:
            return self.bdp_cap_packets
        return max(2, self.bdp_bytes() // self.mtu_bytes)

    def effective_buffer_bytes(self) -> int:
        """Per-port buffer (defaults to twice the BDP, as in §4.1)."""
        if self.buffer_bytes_per_port is not None:
            return self.buffer_bytes_per_port
        return max(2 * self.mtu_bytes, 2 * self.bdp_bytes())

    def effective_headroom_bytes(self) -> int:
        """PFC headroom (defaults to the upstream link's in-flight bytes,
        budgeting the ports' departure batches)."""
        if self.pfc_headroom_bytes is not None:
            return self.pfc_headroom_bytes
        from repro.sim.pfc import headroom_for_link

        return headroom_for_link(self.link_bandwidth_bps, self.link_delay_s, self.mtu_bytes)

    def switch_radix(self) -> int:
        """Number of ports per switch (bounds how many inputs feed one output)."""
        return TOPOLOGIES.get(self.topology).switch_radix(self)

    def effective_rto_high_s(self) -> float:
        """RTO_high per the paper's rule: longest-path propagation plus the
        maximum queueing delay a packet can see at one congested link (all of
        the other input-port buffers of that switch completely full)."""
        if self.rto_high_s is not None:
            return self.rto_high_s
        one_way_prop = self.path_delay_s()
        buffer_drain = self.effective_buffer_bytes() * 8.0 / self.link_bandwidth_bps
        return one_way_prop + max(1, self.switch_radix() - 1) * buffer_drain

    def effective_rto_low_s(self) -> float:
        """RTO_low: the desired bound on short-message tail latency (the
        paper uses roughly a third of RTO_high and several base RTTs)."""
        if self.rto_low_s is not None:
            return self.rto_low_s
        return max(2.0 * self.base_rtt_s(), self.effective_rto_high_s() / 3.0)

    def effective_header_bytes(self) -> int:
        """Per-packet header, inflated by 16B under worst-case overheads."""
        if self.worst_case_overheads:
            return self.header_bytes + 16
        return self.header_bytes

    def congestion_scheme(self):
        """The registered :class:`~repro.congestion.factory.CongestionScheme`."""
        return CONGESTION_SCHEMES.get(self.congestion_control)

    def effective_ack_coalesce_n(self) -> int:
        """The ACK coalescing window, after the congestion scheme's cap.

        RTT-based schemes need per-packet RTT samples (Timely registers
        ``max_ack_coalesce=1``), so the scheme metadata bounds the knob
        rather than each call site special-casing scheme names.
        """
        n = self.ack_coalesce_n
        cap = self.congestion_scheme().max_ack_coalesce
        if cap is not None:
            n = min(n, cap)
        return max(1, n)

    def effective_ack_coalesce_s(self) -> float:
        """Flush timeout for a partial ACK window, clamped below half of
        RTO_low.  The sender budgets this delay into its retransmission
        timer (see ``BaseSender._arm_rto``), so the clamp only has to keep
        the *total* loss-detection latency near RTO_low, not hide the flush
        entirely beneath it."""
        return min(self.ack_coalesce_us * 1e-6, 0.5 * self.effective_rto_low_s())

    def switch_config(self) -> SwitchConfig:
        """Build the per-switch configuration implied by this experiment.

        ECN marking follows the registered scheme's declared needs (DCQCN and
        DCTCP among the built-ins), not a hard-coded name check, so schemes
        registered by third parties get marked traffic automatically.
        """
        from repro.sim.pfc import PfcConfig
        from repro.sim.switch import EcnConfig, SwitchConfig

        buffer_bytes = self.effective_buffer_bytes()
        scheme = self.congestion_scheme()
        bdp = max(1, self.bdp_bytes())
        ecn = EcnConfig(
            enabled=scheme.needs_ecn,
            kmin_bytes=max(self.mtu_bytes, bdp // 4),
            kmax_bytes=max(2 * self.mtu_bytes, bdp),
            pmax=0.2,
            step_marking=scheme.step_marking,
        )
        pfc = PfcConfig(
            enabled=self.pfc_enabled,
            headroom_bytes=min(self.effective_headroom_bytes(), buffer_bytes // 2),
        )
        return SwitchConfig(
            buffer_bytes_per_port=buffer_bytes,
            pfc=pfc,
            ecn=ecn,
        )

    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Wire format (work-queue task files)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """*Every* field as JSON-safe values -- the wire format a work-queue
        task file carries to a worker on another machine.

        Unlike :meth:`to_canonical_dict` this keeps the non-physical fields
        (``name`` binds the aggregation cell on the rebuilt side) and
        preserves declaration order.  Nested dataclasses collapse to dicts
        and :meth:`from_dict` coerces them back, so ``from_dict(to_dict())``
        reconstructs an equal config with a byte-identical
        :meth:`fingerprint`.
        """
        return {key: _wire_safe(value) for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (extra keys rejected,
        so schema drift between coordinator and worker fails loudly)."""
        return cls(**data)

    # ------------------------------------------------------------------
    # Stable serialization (sweep cache keys)
    # ------------------------------------------------------------------
    def to_canonical_dict(self) -> Dict[str, Any]:
        """All simulation-relevant fields as JSON-safe values, stably ordered.

        Nested dataclasses (e.g. :class:`IncastParams`) collapse to sorted
        dicts, so two configs that would run identical simulations serialize
        identically across processes and Python versions.  Left out are the
        :data:`_NON_PHYSICAL_FIELDS` (including them would make physically
        identical simulations miss the sweep cache) and every field sitting
        at its :data:`_OMITTED_AT` value.
        """
        payload = asdict(self)
        for field_name in _NON_PHYSICAL_FIELDS:
            del payload[field_name]
        for field_name, omitted_at in _OMITTED_AT.items():
            if payload[field_name] == omitted_at:
                del payload[field_name]
        if "ack_coalesce_n" not in payload:
            # The flush timeout of a window that never coalesces is inert.
            del payload["ack_coalesce_us"]
        return _canonical(payload)

    def fingerprint(self) -> str:
        """Stable content hash of this config (the sweep cache key)."""
        payload = json.dumps(
            self.to_canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Fields declared ``float`` or ``Optional[float]``; ``__post_init__`` rejects
#: a non-finite value in any of them.
_FLOAT_FIELDS = tuple(
    field.name for field in fields(ExperimentConfig)
    if field.type in ("float", "Optional[float]")
)


def _json_normalize(value: Any, sort_keys: bool) -> Any:
    """One JSON-normalizer for both serializations (nested dataclass
    dicts/lists -> plain structures), so the canonical (fingerprint) and wire
    (task-file) forms can never drift on value handling -- they differ only
    in mapping-key order."""
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        return {key: _json_normalize(item, sort_keys) for key, item in items}
    if isinstance(value, (list, tuple)):
        return [_json_normalize(item, sort_keys) for item in value]
    return value


def _canonical(value: Any) -> Any:
    return _json_normalize(value, sort_keys=True)


def _wire_safe(value: Any) -> Any:
    """JSON-normalize one field value, preserving mapping order."""
    return _json_normalize(value, sort_keys=False)
