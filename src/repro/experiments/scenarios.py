"""Scenario presets for every figure and table in the paper, as data.

Each scenario is a declarative :class:`~repro.experiments.spec.ScenarioSpec`
registered in :data:`~repro.experiments.spec.SCENARIOS`: a shared baseline
(the *scaled default scenario* below), an ordered set of scheme *variants*
(the figure legend / table columns) and, for the appendix tables and the
incast figure, a set of *rows* (the swept parameter).  Resolve one by name::

    from repro.api import load_scenario

    sweep = load_scenario("fig8").sweep(workers=4)

``spec.configs(**overrides)`` / ``.tables(...)`` / ``.replicated(...)`` build
the cells; ``spec.with_rows(...)`` sweeps a different parameter range
(:func:`incast_rows` builds Figure 9's rows for other fan-ins).

The *scaled default scenario* mirrors the paper's default (three-tier
fat-tree, heavy-tailed workload at 70% load, buffers of twice the BDP, ECMP)
but shrinks the fabric and flow sizes so a pure-Python packet simulation
finishes in seconds; see README.md for the substitution rationale.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from repro.experiments.spec import ScenarioSpec, register_scenario, scenario

__all__ = [
    "DEFAULT_NUM_FLOWS",
    "DEFAULT_SIZE_SCALE",
    "incast_rows",
    "scenario",
]

#: Flow count used by the scaled-down default scenario.
DEFAULT_NUM_FLOWS = 250
#: Scale factor applied to the heavy-tailed flow-size bands.
DEFAULT_SIZE_SCALE = 0.2

#: The scaled-down version of the paper's default scenario (§4.1): every
#: registered spec layers its variants/rows on top of this baseline.
SCALED_DEFAULTS: Dict[str, Any] = dict(
    topology="fat_tree",
    fat_tree_k=4,
    link_bandwidth_bps=10e9,
    link_delay_s=1e-6,
    pfc_enabled=False,
    transport="irn",
    congestion_control="none",
    workload="heavy_tailed",
    target_load=0.7,
    num_flows=DEFAULT_NUM_FLOWS,
    flow_size_scale=DEFAULT_SIZE_SCALE,
    seed=1,
)


def _scheme(
    transport: str = "irn", cc: str = "none", pfc: bool = False, **extra: Any
) -> Dict[str, Any]:
    """Variant shorthand: the three fields every scheme column sets."""
    return dict(transport=transport, congestion_control=cc, pfc_enabled=pfc, **extra)


def _paper_scenario(
    name: str,
    description: str,
    variants: Mapping[str, Mapping[str, Any]],
    rows: Optional[Mapping[str, Mapping[str, Any]]] = None,
    defaults: Optional[Mapping[str, Any]] = None,
    **kwargs: Any,
) -> ScenarioSpec:
    """Register a spec whose defaults are the scaled default scenario."""
    merged = dict(SCALED_DEFAULTS)
    merged.update(defaults or {})
    return register_scenario(
        ScenarioSpec(
            name=name,
            description=description,
            defaults=merged,
            variants=dict(variants),
            rows=None if rows is None else dict(rows),
            **kwargs,
        )
    )


# ---------------------------------------------------------------------------
# §4.2 basic results
# ---------------------------------------------------------------------------
_paper_scenario(
    "fig1",
    "Figure 1: IRN (without PFC) vs RoCE (with PFC), no congestion control",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig2",
    "Figure 2: impact of enabling PFC with IRN",
    {
        "IRN with PFC": _scheme("irn", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig3",
    "Figure 3: impact of disabling PFC with RoCE",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "RoCE without PFC": _scheme("roce", pfc=False),
    },
    seeds=(1, 2, 3),
)


def _cc_pair_variants(
    scheme_a: Dict[str, Any], label_a: str,
    scheme_b: Dict[str, Any], label_b: str,
    ccs: Iterable[str] = ("timely", "dcqcn"),
) -> Dict[str, Dict[str, Any]]:
    """Two schemes crossed with explicit CC algorithms (cc varies slowest)."""
    variants: Dict[str, Dict[str, Any]] = {}
    for cc in ccs:
        variants[f"{label_a} +{cc}"] = dict(scheme_a, congestion_control=cc)
        variants[f"{label_b} +{cc}"] = dict(scheme_b, congestion_control=cc)
    return variants


_paper_scenario(
    "fig4",
    "Figure 4: IRN vs RoCE with Timely and DCQCN",
    _cc_pair_variants(
        _scheme("roce", pfc=True), "RoCE",
        _scheme("irn", pfc=False), "IRN",
    ),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig5",
    "Figure 5: impact of enabling PFC with IRN under Timely and DCQCN",
    _cc_pair_variants(
        _scheme("irn", pfc=True), "IRN with PFC",
        _scheme("irn", pfc=False), "IRN",
    ),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig6",
    "Figure 6: impact of disabling PFC with RoCE under Timely and DCQCN",
    _cc_pair_variants(
        _scheme("roce", pfc=True), "RoCE with PFC",
        _scheme("roce", pfc=False), "RoCE without PFC",
    ),
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# §4.3 factor analysis
# ---------------------------------------------------------------------------
_paper_scenario(
    "fig7",
    "Figure 7: IRN vs IRN-with-go-back-N vs IRN-without-BDP-FC",
    {
        "IRN": _scheme("irn"),
        "IRN with Go-Back-N": _scheme("irn_go_back_n"),
        "IRN without BDP-FC": _scheme("irn_no_bdpfc"),
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "no_sack",
    "§4.3(2): selective retransmission without SACK state vs full IRN",
    {
        "IRN": _scheme("irn"),
        "IRN without SACK": _scheme("irn_no_sack"),
    },
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# §4.4 robustness and tail latency
# ---------------------------------------------------------------------------
_paper_scenario(
    "fig8",
    "Figure 8: tail latency of single-packet messages, per CC scheme",
    {
        f"{label} +{cc}": dict(base, congestion_control=cc)
        for cc in ("none", "timely", "dcqcn")
        for label, base in (
            ("RoCE (with PFC)", _scheme("roce", pfc=True)),
            ("IRN with PFC", _scheme("irn", pfc=True)),
            ("IRN (without PFC)", _scheme("irn", pfc=False)),
        )
    },
    seeds=(1, 2, 3),
)


def incast_rows(
    fan_ins: Iterable[int], total_bytes: int, start_time: float = 0.0
) -> Dict[str, Dict[str, Any]]:
    """One ``M=<fan_in>`` row per incast fan-in (all senders target ``h0``)."""
    return {
        f"M={fan_in}": {
            "incast": {
                "total_bytes": total_bytes,
                "fan_in": fan_in,
                "destination": "h0",
                "start_time": start_time,
            }
        }
        for fan_in in fan_ins
    }


_paper_scenario(
    "fig9",
    "Figure 9: incast request completion time, IRN vs RoCE, vs fan-in M",
    {
        "RoCE": _scheme("roce", pfc=True),
        "IRN": _scheme("irn", pfc=False),
    },
    # The registered default tops out at M=15: the k=4 default fabric has 16
    # hosts, and an incast needs fan_in+1 of them.  (The paper's larger
    # fan-ins run via with_rows(incast_rows(...)) on scaled-up fabrics.)
    rows=incast_rows(fan_ins=(5, 10, 15), total_bytes=3_000_000),
    defaults={"workload": "none", "num_flows": 0},
    cell_label="{variant} {row}",
    name_template="incast-{transport}-m{incast.fan_in}",
    seeds=(1, 2, 3),
)

_paper_scenario(
    "incast_cross_traffic",
    "§4.4.3: incast plus a 50%-load background workload",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    defaults={
        "target_load": 0.5,
        "incast": {
            "total_bytes": 3_000_000,
            "fan_in": 10,
            "destination": "h0",
            "start_time": 1e-4,
        },
    },
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# §4.5 / §4.6 comparisons with Resilient RoCE and iWARP
# ---------------------------------------------------------------------------
_paper_scenario(
    "fig10",
    "Figure 10: Resilient RoCE (RoCE+DCQCN without PFC) vs plain IRN",
    {
        "Resilient RoCE": _scheme("roce", cc="dcqcn", pfc=False),
        "IRN": _scheme("irn", pfc=False),
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig11",
    "Figure 11: iWARP's TCP stack vs IRN (no explicit congestion control)",
    {
        "iWARP": _scheme("iwarp"),
        "IRN": _scheme("irn"),
        "IRN + AIMD": _scheme("irn", cc="aimd"),
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "fig12",
    "Figure 12: IRN with worst-case implementation overheads (§6.3)",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (no overheads)": _scheme("irn"),
        "IRN (worst-case overheads)": _scheme("irn", worst_case_overheads=True),
    },
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# Appendix A sweeps (Tables 3-9)
# ---------------------------------------------------------------------------

#: IRN (no PFC), IRN + PFC and RoCE + PFC -- the appendix table columns.
COMPARISON_TRIPLE: Dict[str, Dict[str, Any]] = {
    "IRN": _scheme("irn", pfc=False),
    "IRN+PFC": _scheme("irn", pfc=True),
    "RoCE+PFC": _scheme("roce", pfc=True),
}


def _load_rows(utilizations: Iterable[float]) -> Dict[str, Dict[str, Any]]:
    return {f"{int(util * 100)}%": {"target_load": util} for util in utilizations}


def _bandwidth_rows(bandwidths_gbps: Iterable[float]) -> Dict[str, Dict[str, Any]]:
    return {f"{int(bw)}Gbps": {"link_bandwidth_bps": bw * 1e9} for bw in bandwidths_gbps}


def _arity_rows(arities: Iterable[int]) -> Dict[str, Dict[str, Any]]:
    return {f"k={k} ({k ** 3 // 4} hosts)": {"fat_tree_k": k} for k in arities}


def _buffer_rows(buffer_bytes: Iterable[int]) -> Dict[str, Dict[str, Any]]:
    return {f"{size // 1000}KB": {"buffer_bytes_per_port": size} for size in buffer_bytes}


def _rto_rows(rto_high_values_s: Iterable[float]) -> Dict[str, Dict[str, Any]]:
    return {f"{int(value * 1e6)}us": {"rto_high_s": value} for value in rto_high_values_s}


def _threshold_rows(n_values: Iterable[int]) -> Dict[str, Dict[str, Any]]:
    return {f"N={n}": {"rto_low_threshold_packets": n} for n in n_values}


_paper_scenario(
    "table3",
    "Table 3: link utilization sweep",
    COMPARISON_TRIPLE,
    rows=_load_rows((0.3, 0.5, 0.7, 0.9)),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table4",
    "Table 4: link bandwidth sweep (paper: 10/40/100 Gbps)",
    COMPARISON_TRIPLE,
    rows=_bandwidth_rows((5, 10, 25)),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table5",
    "Table 5: fat-tree scale sweep (paper: k = 6, 8, 10)",
    COMPARISON_TRIPLE,
    rows=_arity_rows((4, 6)),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table6",
    "Table 6: heavy-tailed vs uniform workload",
    COMPARISON_TRIPLE,
    rows={
        "Heavy-tailed": {},
        "Uniform": {
            "workload": "uniform",
            "uniform_low_bytes": 50_000,
            "uniform_high_bytes": 500_000,
        },
    },
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table7",
    "Table 7: per-port buffer size sweep (paper: 60-480 KB at 40 Gbps)",
    COMPARISON_TRIPLE,
    rows=_buffer_rows((15_000, 30_000, 60_000)),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table8",
    "Table 8: RTO_high sweep",
    COMPARISON_TRIPLE,
    rows=_rto_rows((320e-6, 640e-6, 1280e-6)),
    seeds=(1, 2, 3),
)

_paper_scenario(
    "table9",
    "Table 9: threshold N for using RTO_low",
    COMPARISON_TRIPLE,
    rows=_threshold_rows((3, 10, 15)),
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# §2 PFC pathologies: circular buffer-dependency deadlock
# ---------------------------------------------------------------------------
# A ring of switches with the ``circular`` workload: every receiver is fed
# at full rate from two different upstream switches, so once the per-sender
# load crosses 0.5 the inter-switch input buffers fill, every switch pauses
# both upstream switches and the PFC wait-for graph closes into a cycle --
# the online detector (repro.sim.deadlock) reports it as ``deadlock_events``
# / ``min_time_to_deadlock_s``.  IRN runs the identical fabric lossless-off:
# it drops and retransmits instead of pausing, so its deadlock count is an
# exact zero -- the paper's §2 motivation as a reproducible figure.
_paper_scenario(
    "pfc_deadlock",
    "§2 CBD deadlock: circular ring fabric, RoCE+PFC wedges, IRN does not",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_load_rows((0.3, 0.6, 0.9)),
    defaults=dict(
        topology="ring",
        ring_switches=3,
        workload="circular",
        num_hosts=9,
        num_flows=60,
        fixed_size_bytes=100_000,
        target_load=0.9,
    ),
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# Availability under explicit faults (repro.faults)
# ---------------------------------------------------------------------------
# The paper's §2/§5 story re-asked with faults made explicit: on a dumbbell
# whose bottleneck link misbehaves, how do FCT tails and completion degrade
# for IRN (loss-tolerant, no PFC) vs RoCE+PFC (loss-intolerant)?  Faults are
# declarative ``FaultPlan``s riding the config (and its fingerprint), so
# these sweep/cache/serve exactly like every other scenario.  Timing: 400
# heavy-tailed flows arrive over roughly the first 1.2 ms, so fault windows
# start at 300 us (leaving a fault-free warm-up that anchors the recovery
# reference goodput) and end by 1 ms, while traffic is still flowing.

_AVAILABILITY_DEFAULTS: Dict[str, Any] = dict(
    topology="dumbbell",
    num_hosts=8,
    num_flows=400,
    flow_size_scale=0.1,
)

#: Both directions of the dumbbell's s0<->s1 bottleneck link.
_BOTTLENECK = (("s0", "s1"), ("s1", "s0"))


def _flap_rows(counts: Iterable[int]) -> Dict[str, Dict[str, Any]]:
    """One row per flap count: 100 us outages every 200 us from t=300 us."""
    rows: Dict[str, Dict[str, Any]] = {}
    for count in counts:
        faults = [
            dict(kind="link_flap", src=src, dst=dst,
                 start_s=300e-6 + 200e-6 * i, end_s=400e-6 + 200e-6 * i)
            for i in range(count)
            for src, dst in _BOTTLENECK
        ]
        rows[f"{count} flap{'s' if count != 1 else ''}"] = {
            "fault_plan": {"faults": faults}
        }
    return rows


def _corruption_rows(probabilities: Iterable[float]) -> Dict[str, Dict[str, Any]]:
    """One row per corruption rate: a marginal cable from 300 us to 900 us."""
    rows: Dict[str, Dict[str, Any]] = {}
    for probability in probabilities:
        faults = [
            dict(kind="packet_corruption", src=src, dst=dst,
                 probability=probability, start_s=300e-6, end_s=900e-6)
            for src, dst in _BOTTLENECK
        ]
        rows[f"p={probability:g}"] = {"fault_plan": {"faults": faults}}
    return rows


_paper_scenario(
    "availability_flap",
    "Availability: IRN vs RoCE+PFC FCT/p99 vs bottleneck link-flap rate",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_flap_rows((1, 2, 4)),
    defaults=_AVAILABILITY_DEFAULTS,
    seeds=(1, 2, 3),
)

_paper_scenario(
    "availability_corruption",
    "Availability: IRN vs RoCE+PFC FCT/p99 vs bottleneck corruption rate",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_corruption_rows((0.001, 0.01, 0.05)),
    defaults=_AVAILABILITY_DEFAULTS,
    seeds=(1, 2, 3),
)


# ---------------------------------------------------------------------------
# Propagation-dominated (WAN) fabrics
# ---------------------------------------------------------------------------
# The paper's evaluation is intra-DC (homogeneous microsecond hops); these
# scenarios re-ask its IRN-vs-RoCE question on fabrics where propagation
# dominates -- the "Towards a Speed of Light Internet" regime.  Both use the
# per-link delay overrides (``wan_delay_s``) of the WAN topologies, collect
# c-latency-ratio digests (FCT over the speed-of-light bound), and sweep the
# delay heterogeneity from 100x to 1000x the intra-DC hop.


def _wan_delay_rows(delays_s: Iterable[float]) -> Dict[str, Dict[str, Any]]:
    """One row per long-haul delay (labeled as the ratio to the 1 us hop)."""
    return {
        f"{int(delay / 1e-6)}x": {"wan_delay_s": delay} for delay in delays_s
    }


_paper_scenario(
    "wan_incast",
    "WAN incast: fan-in across a long-haul dumbbell bottleneck, IRN vs RoCE",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_wan_delay_rows((100e-6, 1e-3)),
    defaults=dict(
        topology="wan_dumbbell",
        num_hosts=8,
        workload="none",
        num_flows=0,
        c_latency_ratios=True,
        incast={
            "total_bytes": 1_000_000,
            "fan_in": 6,
            "destination": "h0",
            "start_time": 0.0,
        },
    ),
    cell_label="{variant} {row}",
    seeds=(1, 2, 3),
)

_paper_scenario(
    "cross_dc",
    "Cross-DC traffic: two fat-tree DCs over a long haul, IRN vs RoCE",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_wan_delay_rows((100e-6, 1e-3)),
    defaults=dict(
        topology="inter_dc_fattree",
        fat_tree_k=4,
        num_flows=150,
        c_latency_ratios=True,
    ),
    cell_label="{variant} {row}",
    seeds=(1, 2, 3),
)
