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

Each paper preset also carries the paper's claims about it
(:class:`~repro.experiments.spec.Claim`), each bound with the benchmark-scale
run it was set on: fewer flows than the preset, and for some figures a
different load or other rows.  ``benchmarks/test_claims.py`` checks them.

The *scaled default scenario* mirrors the paper's default (three-tier
fat-tree, heavy-tailed workload at 70% load, buffers of twice the BDP, ECMP)
but shrinks the fabric and flow sizes so a pure-Python packet simulation
finishes in seconds; see README.md for the substitution rationale.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.experiments.spec import Claim, ClaimRun, ScenarioSpec, register_scenario, scenario

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


def _run(rows: Optional[Dict[str, Dict[str, Any]]] = None, **overrides: Any) -> ClaimRun:
    """A claim run over the presets' seeds 1-3."""
    return ClaimRun(rows, overrides, (1, 2, 3))


def _claims(figure: str, paper: str, run: ClaimRun, *comparisons: Tuple) -> Tuple[Claim, ...]:
    """``(metric, left, relation, factor, right)`` comparisons as claims on
    one figure's finding, all measured on ``run``."""
    return tuple(Claim(*comparison, paper, figure, run) for comparison in comparisons)


#: The run most §4 figure claims were set on: 120 flows at the preset load.
_FLOWS_120 = _run(num_flows=120)


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
    claims=_claims(
        "Figure 1",
        "IRN without PFC is 2.8-3.7x better than RoCE with PFC on average slowdown, "
        "average FCT and 99th-percentile FCT",
        _FLOWS_120,
        ("avg_slowdown_mean", "IRN (without PFC)", "<=", 1, "RoCE (with PFC)"),
        ("fct_p99_s", "IRN (without PFC)", "<=", 1.5, "RoCE (with PFC)"),
        ("pause_frames_total", "IRN (without PFC)", "==", 1, 0),
        ("packets_dropped_total", "RoCE (with PFC)", "==", 1, 0),
    ),
)

_paper_scenario(
    "fig2",
    "Figure 2: impact of enabling PFC with IRN",
    {
        "IRN with PFC": _scheme("irn", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    seeds=(1, 2, 3),
    claims=_claims(
        "Figure 2",
        "enabling PFC degrades IRN by 1.5-2x (head-of-line blocking, congestion spreading)",
        _FLOWS_120,
        ("avg_fct_s_mean", "IRN (without PFC)", "<=", 1.25, "IRN with PFC"),
        ("avg_slowdown_mean", "IRN (without PFC)", "<=", 1.25, "IRN with PFC"),
    ),
)

_paper_scenario(
    "fig3",
    "Figure 3: impact of disabling PFC with RoCE",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "RoCE without PFC": _scheme("roce", pfc=False),
    },
    seeds=(1, 2, 3),
    # At 90 % load: go-back-N's cost on a lossy fabric grows with congestion.
    # The last two claims are together "> 10 x max(1, RoCE+PFC's)".
    claims=_claims(
        "Figure 3",
        "RoCE degrades by 1.5-3x without PFC: go-back-N wastes bandwidth on "
        "redundant retransmissions",
        _run(num_flows=150, target_load=0.9),
        ("avg_fct_s_mean", "RoCE without PFC", ">", 1.2, "RoCE (with PFC)"),
        ("tail_fct_s_mean", "RoCE without PFC", ">", 1.2, "RoCE (with PFC)"),
        ("avg_slowdown_mean", "RoCE without PFC", ">", 1, "RoCE (with PFC)"),
        ("retransmissions_total", "RoCE without PFC", ">", 10, "RoCE (with PFC)"),
        ("retransmissions_total", "RoCE without PFC", ">", 10, 1),
    ),
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
    claims=_claims(
        "Figure 4",
        "with Timely or DCQCN, IRN stays 1.5-2.2x better than RoCE on all three metrics",
        _FLOWS_120,
        *(("avg_slowdown_mean", f"IRN +{cc}", "<=", 1.15, f"RoCE +{cc}")
          for cc in ("timely", "dcqcn")),
    ),
)

_paper_scenario(
    "fig5",
    "Figure 5: impact of enabling PFC with IRN under Timely and DCQCN",
    _cc_pair_variants(
        _scheme("irn", pfc=True), "IRN with PFC",
        _scheme("irn", pfc=False), "IRN",
    ),
    seeds=(1, 2, 3),
    claims=_claims(
        "Figure 5",
        "with Timely or DCQCN, PFC barely changes IRN (at most < 1 % better, ~3.4 % worse)",
        _FLOWS_120,
        *(("avg_fct_s_mean", f"IRN +{cc}", relation, factor, f"IRN with PFC +{cc}")
          for cc in ("timely", "dcqcn")
          for relation, factor in ((">=", 0.7), ("<=", 1.3))),
    ),
)

_paper_scenario(
    "fig6",
    "Figure 6: impact of disabling PFC with RoCE under Timely and DCQCN",
    _cc_pair_variants(
        _scheme("roce", pfc=True), "RoCE with PFC",
        _scheme("roce", pfc=False), "RoCE without PFC",
    ),
    seeds=(1, 2, 3),
    # The mechanism: the lossless fabric pauses and never drops; the lossy
    # one exposes go-back-N to drops whenever the CC fails to prevent them.
    claims=_claims(
        "Figure 6",
        "RoCE still needs PFC with Timely or DCQCN: enabling it improves RoCE by 1.35-3.5x",
        _run(num_flows=100, target_load=0.9),
        *((metric, f"RoCE {left} PFC +{cc}", relation, 1, right)
          for cc in ("timely", "dcqcn")
          for metric, left, relation, right in (
              ("packets_dropped_total", "with", "==", 0),
              ("pause_frames_total", "without", "==", 0),
              ("packets_dropped_total", "without", ">=", f"RoCE with PFC +{cc}"),
              ("retransmissions_total", "without", ">=", f"RoCE with PFC +{cc}"),
          )),
    ),
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
    claims=_claims(
        "Figure 7",
        "go-back-N in place of SACK recovery hurts more than removing BDP-FC; "
        "both are worse than IRN",
        _FLOWS_120,
        ("avg_fct_s_mean", "IRN with Go-Back-N", ">=", 0.95, "IRN"),
        ("avg_fct_s_mean", "IRN without BDP-FC", ">=", 0.95, "IRN"),
        ("retransmissions_total", "IRN with Go-Back-N", ">", 1, "IRN"),
        ("packets_dropped_total", "IRN without BDP-FC", ">=", 1, "IRN"),
    ),
)

_paper_scenario(
    "no_sack",
    "§4.3(2): selective retransmission without SACK state vs full IRN",
    {
        "IRN": _scheme("irn"),
        "IRN without SACK": _scheme("irn_no_sack"),
    },
    seeds=(1, 2, 3),
    claims=_claims(
        "§4.3(2)",
        "selective retransmission without SACK state degrades by up to 75 % with "
        "multiple losses in a window",
        _FLOWS_120,
        ("retransmissions_total", "IRN without SACK", ">=", 1, "IRN"),
    ),
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
    claims=_claims(
        "Figure 8",
        "IRN without PFC has a lower single-packet tail latency than RoCE with PFC "
        "under every congestion control",
        _run(num_flows=100),
        *(("single_packet_flows", f"{label} +{cc}", ">", 1, 0)
          for cc in ("none", "timely", "dcqcn")
          for label in ("RoCE (with PFC)", "IRN with PFC", "IRN (without PFC)")),
        *(("single_packet_p99_s", f"IRN (without PFC) +{cc}", "<=", 1.5,
           f"RoCE (with PFC) +{cc}")
          for cc in ("none", "timely", "dcqcn")),
    ),
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
    claims=_claims(
        "Figure 9",
        "incast is PFC's best case, yet IRN's request completion time stays within "
        "~2.5 % of RoCE's",
        _run(incast_rows((5, 10), total_bytes=2_000_000)),
        *(("incast_rct_s", f"IRN M={fan_in}", "<=", 1.3, f"RoCE M={fan_in}")
          for fan_in in (5, 10)),
    ),
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
    claims=_claims(
        "§4.4.3",
        "with cross traffic IRN wins on the incast RCT (4-30 %) and on the background "
        "workload (32-87 %)",
        _run(num_flows=60, incast={
            "total_bytes": 1_500_000, "fan_in": 8, "destination": "h0", "start_time": 1e-4,
        }),
        ("background_avg_slowdown", "IRN (without PFC)", "<=", 1.2, "RoCE (with PFC)"),
    ),
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
    claims=_claims(
        "Figure 10",
        "IRN without congestion control beats Resilient RoCE: its loss recovery and "
        "BDP-FC handle the drops DCQCN fails to prevent",
        _FLOWS_120,
        ("avg_slowdown_mean", "IRN", "<=", 1.1, "Resilient RoCE"),
        ("avg_fct_s_mean", "IRN", "<=", 1.1, "Resilient RoCE"),
    ),
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
    claims=_claims(
        "Figure 11",
        "IRN's BDP-FC in place of slow start gives a 21 % smaller average slowdown than "
        "iWARP; IRN + AIMD 44 % smaller slowdown and 11 % smaller FCT",
        _FLOWS_120,
        ("avg_slowdown_mean", "IRN", "<=", 1, "iWARP"),
        ("avg_slowdown_mean", "IRN + AIMD", "<=", 1.1, "iWARP"),
    ),
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
    claims=_claims(
        "Figure 12",
        "16 bytes more header per packet and a 2 us PCIe fetch per retransmission cost "
        "IRN 4-7 %, leaving it 35-63 % better than RoCE with PFC",
        _FLOWS_120,
        ("avg_fct_s_mean", "IRN (worst-case overheads)", "<=", 1.15, "IRN (no overheads)"),
        ("avg_slowdown_mean", "IRN (worst-case overheads)", "<=", 1.1, "RoCE (with PFC)"),
    ),
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


def _irn_vs_roce_pfc(factor: float, rows: Iterable[str]) -> Tuple[Tuple, ...]:
    """IRN's average slowdown within ``factor`` of RoCE+PFC's, per row."""
    return tuple(("avg_slowdown_mean", f"{row}|IRN", "<=", factor, f"{row}|RoCE+PFC")
                 for row in rows)


def _spread_within(metric: str, factor: float, labels: Iterable[str]) -> Tuple[Tuple, ...]:
    """``max <= factor * min`` of ``metric`` over ``labels``, as its pairwise claims."""
    labels = tuple(labels)
    return tuple((metric, a, "<=", factor, b) for a in labels for b in labels if a != b)


def _all_flows(total: int, rows: Iterable[str]) -> Tuple[Tuple, ...]:
    """IRN finishes ``total`` flows over the replicas of each row."""
    return tuple(("num_flows_total", f"{row}|IRN", "==", 1, total) for row in rows)


_paper_scenario(
    "table3",
    "Table 3: link utilization sweep",
    COMPARISON_TRIPLE,
    rows=_load_rows((0.3, 0.5, 0.7, 0.9)),
    seeds=(1, 2, 3),
    claims=_claims(
        "Table 3",
        "IRN without PFC beats RoCE with PFC at every load from 30 % to 90 %, by more "
        "as the load grows",
        _run(_load_rows((0.3, 0.6, 0.9)), num_flows=90),
        *_irn_vs_roce_pfc(1.25, ("30%", "60%", "90%")),
    ),
)

_paper_scenario(
    "table4",
    "Table 4: link bandwidth sweep (paper: 10/40/100 Gbps)",
    COMPARISON_TRIPLE,
    rows=_bandwidth_rows((5, 10, 25)),
    seeds=(1, 2, 3),
    claims=_claims(
        "Table 4",
        "IRN's advantage over RoCE with PFC persists at 10, 40 and 100 Gbps",
        _run(num_flows=90),
        *_irn_vs_roce_pfc(1.3, ("5Gbps", "10Gbps", "25Gbps")),
    ),
)

_paper_scenario(
    "table5",
    "Table 5: fat-tree scale sweep (paper: k = 6, 8, 10)",
    COMPARISON_TRIPLE,
    rows=_arity_rows((4, 6)),
    seeds=(1, 2, 3),
    claims=_claims(
        "Table 5",
        "the trends are unchanged from 54 to 250 servers",
        _run(num_flows=80),
        *_irn_vs_roce_pfc(1.3, ("k=4 (16 hosts)", "k=6 (54 hosts)")),
    ),
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
    # Without single-packet RPCs, the uniform mix's average FCT is its large
    # flows'.
    claims=_claims(
        "Table 6",
        "the key trends hold for the heavy-tailed mix and a uniform storage workload",
        _run(num_flows=80),
        *_irn_vs_roce_pfc(1.3, ("Heavy-tailed", "Uniform")),
        ("avg_fct_s_mean", "Uniform|IRN", ">", 1, "Heavy-tailed|IRN"),
    ),
)

_paper_scenario(
    "table7",
    "Table 7: per-port buffer size sweep (paper: 60-480 KB at 40 Gbps)",
    COMPARISON_TRIPLE,
    rows=_buffer_rows((15_000, 30_000, 60_000)),
    seeds=(1, 2, 3),
    claims=_claims(
        "Table 7",
        "smaller buffers make PFC pause more, so enabling PFC costs IRN more",
        _run(num_flows=90),
        *_all_flows(270, ("15KB", "30KB", "60KB")),
        ("pause_frames_total", "15KB|RoCE+PFC", ">=", 1, "60KB|RoCE+PFC"),
    ),
)

_paper_scenario(
    "table8",
    "Table 8: RTO_high sweep",
    COMPARISON_TRIPLE,
    rows=_rto_rows((320e-6, 640e-6, 1280e-6)),
    seeds=(1, 2, 3),
    # The claim rows are the RTO_high that physics() derives for this
    # table's defaults, and twice and four times it.
    claims=_claims(
        "Table 8",
        "RTO_high at 2x and 4x its ideal value changes the results only marginally",
        _run(_rto_rows((7.8e-05, 0.000156, 0.000312)), num_flows=90),
        *_all_flows(270, ("78us", "156us", "312us")),
        *_spread_within("avg_fct_s_mean", 2.0, ("78us|IRN", "156us|IRN", "312us|IRN")),
    ),
)

_paper_scenario(
    "table9",
    "Table 9: threshold N for using RTO_low",
    COMPARISON_TRIPLE,
    rows=_threshold_rows((3, 10, 15)),
    seeds=(1, 2, 3),
    claims=_claims(
        "Table 9",
        "raising the RTO_low threshold N from 3 to 10 or 15 makes very small differences",
        _run(_threshold_rows((3, 15)), num_flows=90),
        *_spread_within("avg_fct_s_mean", 1.5, ("N=3|IRN", "N=15|IRN")),
    ),
)


# ---------------------------------------------------------------------------
# §2 PFC pathologies: circular buffer-dependency deadlock
# ---------------------------------------------------------------------------
# A ring of six switches, four hosts each, with the ``circular`` workload:
# every receiver is fed at full rate from three different upstream
# switches, and paths cross up to three inter-switch links, so under
# RoCE+PFC the paused ports close a circular buffer dependency and the
# fabric wedges -- at every load row, with most of the 180 flows never
# finishing (ten finish at 90 % on seed 1).  The online detector
# (repro.sim.deadlock) reports the pause cycles as ``deadlock_events`` /
# ``min_time_to_deadlock_s``.  IRN runs the identical fabric lossless-off:
# it drops and retransmits instead of pausing, finishes every flow, and its
# count is an exact zero.
_paper_scenario(
    "pfc_deadlock",
    "§2 CBD: 6-switch ring, RoCE+PFC wedges with most flows unfinished, IRN finishes all",
    {
        "RoCE (with PFC)": _scheme("roce", pfc=True),
        "IRN (without PFC)": _scheme("irn", pfc=False),
    },
    rows=_load_rows((0.3, 0.6, 0.9)),
    defaults=dict(
        topology="ring",
        ring_switches=6,
        workload="circular",
        num_hosts=24,
        num_flows=180,
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
