"""The five simulation workloads: timed rounds and the traced pass.

A *pass* runs every cell of one workload once, serially, through
``repro.api.run_experiment(config).to_row()``.  Pass ``i`` of a run with
``--seed S`` simulates ``ExperimentConfig.seed = S + i``: the heavy-tailed
flow mix makes host time per delivered packet vary by 7-14 % from one
simulation seed to the next, so a run reports the throughput over a few
dozen different inputs rather than one input repeated.

Only the public surface is used (``repro.api``, registry strings,
``load_scenario(name).configs(**overrides)``, ``Simulator()`` with default
arguments): ROADMAP item 3 deletes the legacy builders and enums, and a
non-benchmark PR may not edit this directory.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostclock import HostClock, Spans

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"

#: cProfile slows a pass by about this much; sizes the traced pass count so
#: a traced run takes roughly ``--seconds`` while staying a pure function of
#: ``(seed, seconds)`` -- which keeps every count exactly repeatable.
TRACE_SLOWDOWN = 4.0


@dataclass(frozen=True)
class SimWorkload:
    scenario: str
    #: Cell labels kept from the scenario (``None`` = every cell).
    labels: Optional[Tuple[str, ...]]
    num_flows: Optional[int]
    smoke_flows: Optional[int]
    #: Untraced seconds per pass on the reference host (see TRACE_SLOWDOWN).
    pass_s: float
    #: Without injected faults every flow completes and a PFC cell never
    #: drops; a flapping link may strand flows and lose a pause frame.
    fault_free: bool = True


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    "fabric_fattree": SimWorkload("fig1", None, 100, 10, 0.27),
    "cc_fattree": SimWorkload(
        "fig4", ("IRN +timely", "IRN +dcqcn", "RoCE +dcqcn"), 60, 8, 0.40),
    "incast_pfc": SimWorkload("fig9", ("RoCE M=15", "IRN M=15"), None, None, 0.32),
    "wan_cross_dc": SimWorkload(
        "cross_dc", ("RoCE (with PFC) 1000x", "IRN (without PFC) 1000x"), 100, 10, 0.30),
    # The scenario's fault windows (300 us - 1.1 ms) assume the 400-flow
    # arrival span, so this workload is not shrunk below its preset size.
    "fault_flap": SimWorkload(
        "availability_flap",
        ("4 flaps|RoCE (with PFC)", "4 flaps|IRN (without PFC)"),
        400, 120, 0.60, fault_free=False),
}


def build_cells(api: Any, name: str, sim_seed: int, smoke: bool) -> Dict[str, Any]:
    """``label -> ExperimentConfig`` for one pass of workload ``name``."""
    workload = SIM_WORKLOADS[name]
    spec = api.load_scenario(workload.scenario)
    overrides: Dict[str, Any] = {"seed": sim_seed}
    flows = workload.smoke_flows if smoke else workload.num_flows
    if flows is not None:
        overrides["num_flows"] = flows
    if name == "incast_pfc":
        # The incast itself is seedless; the seed picks the victim host and
        # nudges the request size so each pass is a different input.
        incast = dict(spec.rows["M=15"]["incast"])
        incast["destination"] = f"h{sim_seed % 16}"
        incast["total_bytes"] = (300_000 if smoke else 3_000_000) + 15_000 * (sim_seed % 32)
        overrides["incast"] = incast
    cells = spec.configs(**overrides)
    if workload.labels is not None:
        cells = {label: cells[label] for label in workload.labels}
    return cells


def run_cell(api: Any, config: Any, label: str) -> Any:
    return api.run_experiment(config).to_row(label)


def row_failure(name: str, row: Any) -> Optional[str]:
    """Why ``row`` fails the workload's output rules (``None`` = passes)."""
    fault_free = SIM_WORKLOADS[name].fault_free
    if fault_free and row.flows_completed < row.flows_total:
        return f"{row.label}: {row.flows_completed}/{row.flows_total} flows completed"
    if row.flows_completed == 0:
        return f"{row.label}: no flow completed"
    if fault_free and row.pfc_enabled and row.packets_dropped:
        return f"{row.label}: {row.packets_dropped} drops on a PFC cell"
    if not row.pfc_enabled and row.pause_frames:
        return f"{row.label}: {row.pause_frames} pause frames on a no-PFC cell"
    return None


def row_digest(row: Any) -> str:
    payload = json.dumps(row.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def delivered(row: Any) -> int:
    """Unique data packets delivered (sends minus wasted re-sends)."""
    return row.data_packets_sent - row.retransmissions


# ---------------------------------------------------------------------------
# Untraced round: set-up, then timed passes until the deadline
# ---------------------------------------------------------------------------

def run_round(name: str, seed: int, seconds: float, first_pass: int,
              spawned_at: float, smoke: bool) -> Dict[str, Any]:
    clock = HostClock()
    import repro.api as api

    cells = build_cells(api, name, seed + first_pass, smoke)
    setup = clock.since(spawned_at)

    attempted = passes = 0
    samples: List[List[float]] = []
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        for label, config in cells.items():
            attempted += 1
            try:
                row, raw, factor = clock.measure(run_cell, api, config, label)
            except Exception as exc:  # a crashed cell is a failed operation
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            reason = row_failure(name, row)
            if reason:
                failures.append(reason)
            samples.append([delivered(row), raw, factor])
        passes += 1
        if passes == 1:
            # What a one-shot run of these cells holds; later passes add
            # allocator growth that depends on how many fit in the window.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline:
            break
        cells = build_cells(api, name, seed + first_pass + passes, smoke)
    return {
        "setup": setup,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "ops": passes,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# Traced pass: exact counts, module-bucketed profile, layer drills
# ---------------------------------------------------------------------------

#: Layer of a file under ``src/repro`` by its leading path parts; the first
#: match wins.  ``experiments`` takes the per-cell set-up it orchestrates
#: (topology build, workload generation, registry lookups).
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/compiled.py", "sim.engine"),
    ("sim/", "sim.fabric"),
    ("core/", "core"),
    ("congestion/", "congestion"),
    ("metrics/", "metrics"),
    ("faults.py", "faults"),
    ("experiments/", "experiments"),
    ("topology/", "experiments"),
    ("workload/", "experiments"),
    ("registry.py", "experiments"),
)
LAYERS = ("sim.engine", "sim.fabric", "core", "congestion", "metrics",
          "faults", "experiments", "python")
MAX_UNBUCKETED_SHARE = 0.05


def bucket_profile(profile: cProfile.Profile, package_root: Path) -> Dict[str, List[float]]:
    """``layer -> [self seconds, calls]`` (plus ``"unbucketed"``)."""
    buckets: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
    buckets["unbucketed"] = [0.0, 0]
    root = str(package_root) + "/"
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in \
            pstats.Stats(profile).stats.items():  # type: ignore[attr-defined]
        layer = "python"  # builtins, stdlib and this benchmark's own frames
        if filename.startswith(root):
            relative = filename[len(root):]
            layer = next((layer for prefix, layer in LAYER_PREFIXES
                          if relative.startswith(prefix)), "unbucketed")
        buckets[layer][0] += self_s
        buckets[layer][1] += calls
    return buckets


def exact_counts(rows: List[Any]) -> Dict[str, float]:
    """Machine-independent counts over ``rows``; repeat exactly per seed."""
    def total(field: str) -> float:
        return sum(getattr(row, field) for row in rows)

    events, sent = total("events_processed"), total("data_packets_sent")
    unique = sum(delivered(row) for row in rows)
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_pkt": events / unique,
        "sim.engine.events_per_flow": events / total("flows_total"),
        "sim.fabric.hops_per_pkt": total("packets_forwarded") / unique,
        "sim.fabric.drop_frac": total("packets_dropped") / sent,
        "sim.fabric.pauses_per_kpkt": 1000.0 * total("pause_frames") / unique,
        "core.retx_frac": total("retransmissions") / sent,
        "core.timeouts_per_kpkt": 1000.0 * total("timeouts") / unique,
        "faults.injected_drops": total("fault_injected_drops"),
        "metrics.flows_completed_frac": total("flows_completed") / total("flows_total"),
    }


def fidelity(name: str, rows: List[Any]) -> Dict[str, float]:
    """The paper-facing ratio each speed number is read beside (simulated,
    so exactly repeatable): a perf PR that bends physics moves these."""
    def mean(field: str, transport: str) -> float:
        values = [getattr(row, field) for row in rows if row.transport == transport]
        return sum(values) / len(values)

    if name == "fabric_fattree":
        return {"fidelity.fig1_slowdown_ratio":
                mean("avg_slowdown", "roce") / mean("avg_slowdown", "irn")}
    if name == "incast_pfc":
        return {"fidelity.incast_rct_ratio":
                mean("incast_rct_s", "irn") / mean("incast_rct_s", "roce")}
    return {}


def baseline_digests(name: str) -> Dict[str, Dict[str, str]]:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text()).get("digests", {}).get(name, {})


def run_trace(name: str, seed: int, seconds: float, smoke: bool,
              spans: Spans) -> Dict[str, Any]:
    import repro
    import repro.api as api

    workload = SIM_WORKLOADS[name]
    passes = 1 if smoke else max(1, round(seconds / (workload.pass_s * TRACE_SLOWDOWN)))
    clock = HostClock()

    profile = cProfile.Profile()

    def sweep_passes(profiled: bool) -> Tuple[List[Any], float]:
        """Rows and summed cell seconds.  Exactly what the untraced rounds
        time is profiled -- ``run_cell`` -- so the ``python`` layer holds the
        simulator's builtin and stdlib calls, not this harness's."""
        rows, cell_s = [], 0.0
        for index in range(passes):
            for label, config in build_cells(api, name, seed + index, smoke).items():
                with spans.span(f"{'traced' if profiled else 'untraced'}:{label}"):
                    if profiled:
                        started = time.perf_counter()
                        profile.enable()
                        row = run_cell(api, config, label)
                        profile.disable()
                        raw = time.perf_counter() - started
                    else:
                        # Probed, so host.slowdown_x says which host mode the
                        # run saw (the profiler would slow the probe itself).
                        row, raw, _ = clock.measure(run_cell, api, config, label)
                rows.append(row)
                cell_s += raw
        return rows, cell_s

    failures: List[str] = []
    plain_rows, plain_s = sweep_passes(profiled=False)
    traced_rows, traced_s = sweep_passes(profiled=True)

    for row in plain_rows:
        reason = row_failure(name, row)
        if reason:
            failures.append(reason)
    plain_digests = [row_digest(row) for row in plain_rows]
    if plain_digests != [row_digest(row) for row in traced_rows]:
        failures.append("row digests differ between two executions of one seed")

    expected = {} if smoke else baseline_digests(name)
    digest_map: Dict[str, Dict[str, str]] = {}
    checked = changed = 0
    for row, digest in zip(plain_rows, plain_digests):
        digest_map.setdefault(str(row.seed), {})[row.label] = digest
        known = expected.get(str(row.seed), {}).get(row.label)
        if known is not None:
            checked += 1
            changed += known != digest

    metrics = exact_counts(plain_rows)
    metrics.update(fidelity(name, plain_rows))
    metrics["experiments.rows_checked"] = checked
    metrics["experiments.rows_changed"] = changed

    buckets = bucket_profile(profile, Path(repro.__file__).resolve().parent)
    total_self = sum(self_s for self_s, _ in buckets.values())
    unique = sum(delivered(row) for row in traced_rows)
    for layer in LAYERS:
        self_s, calls = buckets[layer]
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_share"] = self_s / total_self
        metrics[f"{layer}.calls_per_pkt"] = calls / unique
    metrics["trace.overhead_x"] = traced_s / plain_s
    metrics["trace.unbucketed_share"] = buckets["unbucketed"][0] / total_self
    if metrics["trace.unbucketed_share"] > MAX_UNBUCKETED_SHARE:
        failures.append("%.3f of self time is in src/repro files no layer claims"
                        % metrics["trace.unbucketed_share"])
    metrics["host.slowdown_x"] = statistics.median(clock.factors)

    drills = {"wan_cross_dc": engine_drills, "cc_fattree": congestion_drills}.get(name)
    if drills is not None:
        metrics.update(drills(seed, smoke, spans))
    return {
        "metrics": metrics,
        "attempted": len(plain_rows) + len(traced_rows),
        "failures": failures,
        "digests": digest_map,
    }


# ---------------------------------------------------------------------------
# Layer drills: one public function in a tight loop, nothing else running
# ---------------------------------------------------------------------------

def _timed(spans: Spans, name: str, fn: Callable[[], None]) -> float:
    with spans.span(name):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started


def engine_drills(seed: int, smoke: bool, spans: Spans) -> Dict[str, float]:
    from repro.sim.engine import Simulator

    events = 2_000 if smoke else 100_000

    def noop() -> None:
        pass

    # A self-rescheduling chain; every event arms and cancels three timers,
    # the transports' set-then-cancel RTO pattern.
    sim = Simulator()
    remaining = [events]

    def tick() -> None:
        for _ in range(3):
            sim.cancel(sim.set_timer(1e-3, noop))
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    drain_s = _timed(spans, "drill:sim.engine.drain", sim.run)

    # A WAN-sized backlog: events scattered over 4 ms of simulated time,
    # thousands of default-width buckets ahead of the clock.
    far = Simulator()
    rng = random.Random(seed)

    def fill_and_drain() -> None:
        for _ in range(2 * events):
            far.schedule_at(rng.random() * 4e-3, noop)
        far.run()

    far_s = _timed(spans, "drill:sim.engine.far_drain", fill_and_drain)
    return {
        "sim.engine.drain_events_per_s": events / drain_s,
        "sim.engine.far_drain_events_per_s": 2 * events / far_s,
    }


def congestion_drills(seed: int, smoke: bool, spans: Spans) -> Dict[str, float]:
    import repro.api as api

    calls = 2_000 if smoke else 100_000
    rng = random.Random(seed)
    rtts = [10e-6 + rng.random() * 10e-6 for _ in range(calls)]
    metrics = {}
    for scheme in ("dcqcn", "timely"):
        control = api.make_congestion_control(scheme, 40e9, 10e-6)

        def feed() -> None:
            for index, rtt in enumerate(rtts):
                control.on_ack(rtt, index * 1e-6, ecn_echo=index % 16 == 0)

        metrics[f"congestion.{scheme}_on_ack_ns"] = \
            1e9 * _timed(spans, f"drill:congestion.{scheme}", feed) / calls
    return metrics


def digest_drills(seed: int, smoke: bool, spans: Spans) -> Dict[str, float]:
    from repro.metrics.sketch import QuantileDigest

    adds = 2_000 if smoke else 100_000
    rng = random.Random(seed)
    values = [rng.lognormvariate(-9.0, 1.0) for _ in range(adds)]
    digest = QuantileDigest()

    def add_all() -> None:
        for value in values:
            digest.add(value)

    add_s = _timed(spans, "drill:metrics.digest_add", add_all)

    # Pooling seed replicas: condensed (beyond-exact-range) digests merged
    # into one, as aggregation does per cell.
    parts = []
    for start in range(0, adds, max(1, adds // 20)):
        part = QuantileDigest()
        part.add_many(values[start:start + adds // 20])
        parts.append(part)
    pooled = QuantileDigest()

    def merge_all() -> None:
        for part in parts:
            pooled.merge(part)

    merge_s = _timed(spans, "drill:metrics.digest_merge", merge_all)
    return {
        "metrics.digest_add_ns": 1e9 * add_s / adds,
        "metrics.digest_merge_us": 1e6 * merge_s / len(parts),
    }
