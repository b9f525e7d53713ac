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
dict coercions in ``__post_init__``, :meth:`ExperimentConfig.physics` and
``switch_config``.  What a run derives from a config is one frozen
:class:`Physics` record.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional

from repro.congestion.registry import CONGESTION_SCHEMES
from repro.core.registry import TRANSPORTS
from repro.topology.registry import TOPOLOGIES
from repro.workload.registry import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.sim.switch import SwitchConfig
    from repro.workload.incast import IncastParams


#: The shortest CNP spacing: an absolute time, so where the derived
#: physics stops scaling with the time unit.
CNP_INTERVAL_FLOOR_S = 5e-6


class Physics(NamedTuple):
    """Every quantity a run derives from its :class:`ExperimentConfig`.

    Built by :meth:`ExperimentConfig.physics`; the switches, transports,
    congestion controllers and collector read these fields and derive
    nothing themselves.  Sizes are bytes, times seconds; "Derived physics"
    in ``docs/architecture.md`` lists each rule and its readers.  A
    ``NamedTuple``, not a frozen dataclass: every CLI start imports this
    module, and the class costs a tenth as much to build.
    """

    max_hop_count: int
    switch_radix: int
    #: One-way propagation delay of the longest host-to-host path.
    path_delay_s: float
    base_rtt_s: float
    bdp_bytes: int
    bdp_cap_packets: int
    buffer_bytes: int
    #: PFC headroom, already clamped to half the buffer as the switch uses it.
    headroom_bytes: int
    rto_high_s: float
    rto_low_s: float
    header_bytes: int
    ack_coalesce_n: int
    ack_coalesce_s: float
    #: The congestion controllers' RTT: one MTU serialization per hop more.
    cc_rtt_s: float
    #: ``None`` unless the scheme wants CNPs.
    cnp_interval_s: Optional[float]


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
    #: way), but it changes what the *row* carries.
    fabric_digests: bool = False
    #: Collect per-flow c-latency ratios (FCT divided by the speed-of-light
    #: lower bound: the path's one-way propagation delay from the topology's
    #: hop delays), the "Towards a Speed of Light Internet" metric for
    #: propagation-dominated fabrics.  Streaming digest only (no event,
    #: ordering or RNG impact), but like ``fabric_digests`` it changes what
    #: the row carries.
    c_latency_ratios: bool = False
    #: Deterministic fault schedule (:class:`repro.faults.FaultPlan`).
    #: ``None`` -- and an *empty* plan, which normalizes to ``None`` -- run
    #: fault-free.  A non-empty plan changes both the physics and what the
    #: row carries (recovery observables).
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
        # A value no run can be described with fails here, not mid-run
        # (rto_low_s=0 livelocked on timeouts, mtu_bytes=0 divided by zero).
        for invalid, message in (
            (self.mtu_bytes < 1, "mtu_bytes must be >= 1"),
            (self.link_bandwidth_bps <= 0, "link_bandwidth_bps must be positive"),
            (self.link_delay_s < 0, "link_delay_s must be >= 0"),
            (self.wan_delay_s < 0, "wan_delay_s must be >= 0"),
            (self.rto_low_s is not None and self.rto_low_s <= 0, "rto_low_s must be positive"),
            (self.bdp_cap_packets is not None and self.bdp_cap_packets < 1,
             "bdp_cap_packets must be >= 1"),
            (self.ack_coalesce_n < 1, "ack_coalesce_n must be >= 1 (1 = per-packet ACKs)"),
            (self.ack_coalesce_us <= 0, "ack_coalesce_us must be positive"),
            (self.max_events is not None and self.max_events < 1,
             "max_events must be >= 1 (None = no valve)"),
        ):
            if invalid:
                raise ValueError(message)

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
    # Derived physics
    # ------------------------------------------------------------------
    def congestion_scheme(self):
        """The registered :class:`~repro.congestion.factory.CongestionScheme`."""
        return CONGESTION_SCHEMES.get(self.congestion_control)

    def physics(self) -> Physics:
        """The run's derived physics (§4.1), recomputed on every call.

        One chain of rules: the topology's longest path gives the base RTT
        and the BDP, buffers are twice the BDP, and RTO_high is the path's
        propagation plus a drained buffer at each other input of one
        congested switch.  An explicit config value wins over its rule.
        Resolves the topology and scheme *objects*, loading their providers
        on first use.
        """
        topology = TOPOLOGIES.get(self.topology)
        scheme = self.congestion_scheme()
        rate, mtu = self.link_bandwidth_bps, self.mtu_bytes
        hops = topology.max_hop_count(self)
        # WAN topologies declare their longest path's delay (1000x delay
        # heterogeneity); homogeneous ones derive it.
        if topology.path_delay_s is None:
            path_delay_s = hops * self.link_delay_s
        else:
            path_delay_s = topology.path_delay_s(self)
        base_rtt_s = 2.0 * path_delay_s
        bdp_bytes = int(rate * base_rtt_s / 8.0)
        buffer_bytes = self.buffer_bytes_per_port
        if buffer_bytes is None:
            buffer_bytes = max(2 * mtu, 2 * bdp_bytes)
        headroom_bytes = self.pfc_headroom_bytes
        if headroom_bytes is None:
            from repro.sim.pfc import headroom_for_link

            headroom_bytes = headroom_for_link(rate, self.link_delay_s, mtu)
        switch_radix = topology.switch_radix(self)
        rto_high_s = self.rto_high_s
        if rto_high_s is None:
            rto_high_s = path_delay_s + max(1, switch_radix - 1) * (buffer_bytes * 8.0 / rate)
        rto_low_s = self.rto_low_s
        if rto_low_s is None:
            rto_low_s = max(2.0 * base_rtt_s, rto_high_s / 3.0)
        ack_coalesce_n = self.ack_coalesce_n
        if scheme.max_ack_coalesce is not None:
            ack_coalesce_n = min(ack_coalesce_n, scheme.max_ack_coalesce)
        return Physics(
            max_hop_count=hops,
            switch_radix=switch_radix,
            path_delay_s=path_delay_s,
            base_rtt_s=base_rtt_s,
            bdp_bytes=bdp_bytes,
            bdp_cap_packets=(
                max(2, bdp_bytes // mtu) if self.bdp_cap_packets is None
                else self.bdp_cap_packets
            ),
            buffer_bytes=buffer_bytes,
            headroom_bytes=min(headroom_bytes, buffer_bytes // 2),
            rto_high_s=rto_high_s,
            rto_low_s=rto_low_s,
            header_bytes=self.header_bytes + (16 if self.worst_case_overheads else 0),
            ack_coalesce_n=max(1, ack_coalesce_n),
            ack_coalesce_s=min(self.ack_coalesce_us * 1e-6, 0.5 * rto_low_s),
            cc_rtt_s=base_rtt_s + 8.0 * mtu * hops / rate,
            cnp_interval_s=(
                max(scheme.cnp_interval_rtts * base_rtt_s, CNP_INTERVAL_FLOOR_S)
                if scheme.wants_cnp else None
            ),
        )

    def switch_config(self) -> SwitchConfig:
        """Build the per-switch configuration implied by this experiment.

        ECN marking follows the registered scheme's declared needs (DCQCN and
        DCTCP among the built-ins), not a hard-coded name check, so schemes
        registered by third parties get marked traffic automatically.
        """
        from repro.sim.pfc import PfcConfig
        from repro.sim.switch import EcnConfig, SwitchConfig

        physics = self.physics()
        scheme = self.congestion_scheme()
        bdp = max(1, physics.bdp_bytes)
        ecn = EcnConfig(
            enabled=scheme.needs_ecn,
            kmin_bytes=max(self.mtu_bytes, bdp // 4),
            kmax_bytes=max(2 * self.mtu_bytes, bdp),
            pmax=0.2,
            step_marking=scheme.step_marking,
        )
        pfc = PfcConfig(enabled=self.pfc_enabled, headroom_bytes=physics.headroom_bytes)
        return SwitchConfig(buffer_bytes_per_port=physics.buffer_bytes, pfc=pfc, ecn=ecn)

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

        Unlike :meth:`to_canonical_dict` this keeps ``name`` (it binds the
        aggregation cell on the rebuilt side) and
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
        """Every field but the cosmetic ``name`` as JSON-safe values, stably
        ordered: nested dataclasses (e.g. :class:`IncastParams`) collapse to
        sorted dicts, so one config serializes identically across processes
        and Python versions.  Leaving ``name`` out lets preset cells under
        different labels share one cache entry.
        """
        # Only the nested dataclasses need converting: ``_canonical`` builds
        # every dict and list afresh, so no deep copy of the config is made.
        payload = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            payload[name] = asdict(value) if is_dataclass(value) else value
        del payload["name"]
        return _canonical(payload)

    def fingerprint(self) -> str:
        """Stable content hash of this config (the sweep cache key)."""
        payload = json.dumps(
            self.to_canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Every field, in declaration order.
_FIELD_NAMES = tuple(field.name for field in fields(ExperimentConfig))

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
