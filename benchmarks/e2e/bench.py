#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulator, the sweep cache and
``repro serve``.  ``BENCHMARK.json`` at the repository root declares the
workloads and every metric (name, unit, direction, regression bound); this
program measures them.  See README.md beside this file.

One run of one workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/bench.py --workload fabric_fattree --seed 1 \
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that yields the per-layer metrics.  Without
``--workload`` every workload runs in turn (``--seeds N`` repeats that for N
consecutive seeds, ``--json OUT`` keeps the results for ``compare.py``).

An untraced run is ``ROUNDS`` rounds, each in a fresh subprocess that pays
set-up again: ``setup_s`` and ``peak_rss_mb`` are medians over the rounds,
``work_per_s`` is pooled over their operations.  One process works at a time: the machine has two CPUs, and everything is pinned
to one of them so the speed probe (hostclock.py) sees what the work sees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170

#: Fresh-process rounds per untraced run (each measures set-up once).
ROUNDS = 5

SWEEP_WORKLOADS = ("sweep_cold", "sweep_warm")
SERVE_WORKLOAD = "serve_read"

#: Per-layer metrics that are pure functions of ``(workload, seed,
#: seconds)``: ``--check`` compares them exactly against baseline.json.
EXACT_SUFFIX = ".calls_per_pkt"
PYTHON = "%d.%d" % sys.version_info[:2]
EXACT_NAMES = frozenset((
    "sim.engine.events", "sim.engine.events_per_pkt", "sim.engine.events_per_flow",
    "sim.fabric.hops_per_pkt", "sim.fabric.drop_frac", "sim.fabric.pauses_per_kpkt",
    "core.retx_frac", "core.timeouts_per_kpkt", "faults.injected_drops",
    "metrics.flows_completed_frac", "fidelity.fig1_slowdown_ratio",
    "fidelity.incast_rct_ratio",
))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    """One round, one traced run, or one cache fill, inside a fresh process."""
    import orchestration
    import simwork
    from hostclock import Spans

    name, work_dir = args.workload, Path(args.work_dir)
    if args.role == "fill":
        result: Dict[str, Any] = {
            "rows": orchestration.fill_cache(name, args.seed, work_dir / "cache", args.smoke)}
    elif args.role == "round":
        if name in SWEEP_WORKLOADS:
            result = orchestration.run_sweep_round(
                name, args.seed, args.seconds, args.first_op, args.spawned_at,
                args.smoke, work_dir)
        elif name == SERVE_WORKLOAD:
            result = orchestration.run_serve_round(
                args.seed, args.seconds, args.first_op, args.spawned_at,
                args.smoke, work_dir)
        else:
            result = simwork.run_round(
                name, args.seed, args.seconds, args.first_op, args.spawned_at, args.smoke)
    else:
        spans = Spans()
        if name in SWEEP_WORKLOADS:
            result = orchestration.run_sweep_trace(
                args.seed, args.seconds, args.smoke, work_dir, spans)
        elif name == SERVE_WORKLOAD:
            result = orchestration.run_serve_trace(
                args.seed, args.seconds, args.smoke, work_dir, spans)
        else:
            result = simwork.run_trace(name, args.seed, args.seconds, args.smoke, spans)
        spans.write(OUT / f"trace-{name}.json")
    print(json.dumps(result))
    return 0


def spawn(role: str, name: str, seed: int, seconds: float, first_op: int,
          smoke: bool, work_dir: Path) -> Dict[str, Any]:
    """Run one child to completion and parse the JSON on its last line.

    The child leads its own process group, so a timeout also reaps whatever
    it started (a CLI invocation, the server)."""
    command = [
        sys.executable, str(HERE / "bench.py"), "--role", role, "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--first-op", str(first_op),
        "--work-dir", str(work_dir), "--spawned-at", repr(time.time()),
    ] + (["--smoke"] if smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{role} child of {name} exceeded {CHILD_TIMEOUT_S} s")
    if process.returncode != 0:
        raise RuntimeError(f"{role} child of {name} exited {process.returncode}:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def pin_to_one_cpu() -> None:
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    os.environ["BENCH_E2E_CPUS"] = ",".join(map(str, allowed))
    os.sched_setaffinity(0, {allowed[-1]})


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def run_workload(declaration: Dict[str, Any], name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> Dict[str, Any]:
    work_dir = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if name in ("sweep_warm", SERVE_WORKLOAD) or (trace and name == "sweep_cold"):
            spawn("fill", name, seed, 0.0, 0, smoke, work_dir)
        if trace:
            declared = [metric["name"] for metric in declaration["per_layer"]]
            values, attempted, failures, extra = traced_run(
                declared, name, seed, seconds, smoke, work_dir)
        else:
            values, attempted, failures, extra = timed_rounds(
                name, seed, seconds, smoke, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {metric["name"]: metric["unit"]
             for metric in declaration["end_to_end"] + declaration["per_layer"]}
    bad = [metric for metric, value in values.items() if not math.isfinite(value)]
    if bad:
        failures.append(f"non-finite metrics: {bad}")
    attempted = max(1, attempted)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:20],
        "wall_s": time.perf_counter() - started,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
        **extra,
    }


def traced_run(declared: List[str], name: str, seed: int, seconds: float,
               smoke: bool, work_dir: Path):
    out = spawn("trace", name, seed, seconds, 0, smoke, work_dir)
    failures = out["failures"]
    unknown = sorted(set(out["metrics"]) - set(declared))
    if unknown:
        failures.append(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer this workload never enters reads 0 (README: which run owns what).
    values = {metric: out["metrics"].get(metric, 0.0) for metric in declared}
    extra = {"digests": out.get("digests", {}), "measured": sorted(out["metrics"])}
    return values, out["attempted"], failures, extra


def timed_rounds(name: str, seed: int, seconds: float, smoke: bool, work_dir: Path):
    rounds: List[Dict[str, Any]] = []
    count = 1 if smoke else ROUNDS
    first_op = 0
    for _ in range(count):
        out = spawn("round", name, seed, seconds / count, first_op, smoke, work_dir)
        first_op += out["ops"]
        out["setup_s"] = out["setup"][0] / out["setup"][1]
        out["work_per_s"] = reference_rate(out["samples"])
        rounds.append(out)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        # Pooled over the rounds, not a median of per-round rates: with two
        # or three operations in a round the pooled rate is the steadier.
        "work_per_s": reference_rate([sample for r in rounds for sample in r["samples"]]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    extra = {"operations": first_op,
             "rounds": [{metric: r[metric] for metric in values} for r in rounds]}
    return (values, sum(r["attempted"] for r in rounds),
            [failure for r in rounds for failure in r["failures"]], extra)


def reference_rate(samples: List[List[float]]) -> float:
    """Work per reference second over ``[work, raw seconds, host factor]``
    samples: a ratio of sums, so every operation weighs by its duration."""
    return sum(work for work, _, _ in samples) / sum(raw / factor for _, raw, factor in samples)


def print_result(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"{'ok' if result['correct'] else 'FAILED'}  "
          f"({result['failed']}/{result['attempted']} operations failed) ==")
    rounds = result.get("rounds", [])
    measured = result.get("measured", result["metrics"])
    for metric, entry in result["metrics"].items():
        if metric not in measured:
            continue
        line = f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}"
        if rounds:
            values = [r[metric] for r in rounds]
            line += (f"   (rounds: min {min(values):.6g}, max {max(values):.6g}, "
                     f"n={len(values)}; {result['operations']} operations)")
        print(line)
    if len(measured) < len(result["metrics"]):
        print(f"  ({len(result['metrics']) - len(measured)} per-layer metrics of layers "
              "this workload never enters read 0)")
    for failure in result["failures"]:
        print(f"  ! {failure}")


# ---------------------------------------------------------------------------
# baseline.json: exact counts and row digests (checked), timings (shown)
# ---------------------------------------------------------------------------

def is_exact(metric: str) -> bool:
    return metric in EXACT_NAMES or metric.endswith(EXACT_SUFFIX)


def write_baseline(path: Path, results: List[Dict[str, Any]], seconds: float) -> None:
    baseline: Dict[str, Any] = {"seconds": seconds, "python": PYTHON, "exact": {},
                                "digests": {}, "timings": {}}
    timings: Dict[str, Dict[str, List[float]]] = {}
    for result in results:
        name = result["workload"]
        if result["trace"]:
            if result["digests"]:  # a simulation workload: it has exact counts
                baseline["exact"].setdefault(name, {})[str(result["seed"])] = {
                    metric: entry["value"] for metric, entry in result["metrics"].items()
                    if is_exact(metric)}
                baseline["digests"].setdefault(name, {}).update(result["digests"])
        else:
            for metric, entry in result["metrics"].items():
                timings.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
    baseline["timings"] = {name: {metric: statistics.median(values)
                                  for metric, values in metrics.items()}
                           for name, metrics in timings.items()}
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def check_baseline(path: Path, results: List[Dict[str, Any]], seconds: float) -> int:
    """Exact counts must match; timing deltas are machine-bound, so shown only."""
    baseline = json.loads(path.read_text())
    if baseline["seconds"] != seconds:
        print(f"check: {path.name} was recorded at --seconds {baseline['seconds']}; "
              "the traced pass count, and so every count, depends on it")
        return 1
    differences = compared = 0
    for result in results:
        name, seed = result["workload"], str(result["seed"])
        if result["trace"]:
            for metric, expected in baseline["exact"].get(name, {}).get(seed, {}).items():
                if metric.endswith(EXACT_SUFFIX) and baseline["python"] != PYTHON:
                    continue  # what counts as a call differs between interpreters
                compared += 1
                measured = result["metrics"][metric]["value"]
                if measured != expected:
                    differences += 1
                    print(f"check: {name} seed {seed} {metric}: {measured!r} != {expected!r}")
            for sim_seed, digests in result.get("digests", {}).items():
                expected_digests = baseline["digests"].get(name, {}).get(sim_seed, {})
                for label, digest in digests.items():
                    if label in expected_digests:
                        compared += 1
                        if expected_digests[label] != digest:
                            differences += 1
                            print(f"check: {name} sim seed {sim_seed} row {label!r} changed")
        else:
            for metric, expected in baseline["timings"].get(name, {}).items():
                measured = result["metrics"][metric]["value"]
                print(f"check (informational): {name} {metric}: {measured:.6g} vs "
                      f"{expected:.6g} recorded ({100.0 * (measured / expected - 1.0):+.1f} %)")
    if not any(result["trace"] for result in results):
        print("check: no traced run (--trace 1), so no exact value to compare")
        return 0
    print(f"check: {compared} exact values compared, {differences} differ")
    return 1 if differences or not compared else 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload of BENCHMARK.json (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="repeat for seeds SEED .. SEED+N-1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default=None,
                        help="0: end-to-end metrics, tracing off (default); "
                             "1: the traced per-layer run; both: one after the other")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, one round, both passes")
    parser.add_argument("--json", metavar="OUT", help="write every result to OUT")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail on any exact-count or row-digest difference")
    parser.add_argument("--write-baseline", metavar="BASELINE",
                        help="record this invocation's counts, digests and timings")
    # Set by spawn() only.
    parser.add_argument("--role", choices=("round", "trace", "fill"), help=argparse.SUPPRESS)
    parser.add_argument("--first-op", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "api.py").exists():
        print(f"bench: no simulator at {SOURCE / 'repro'}: nothing to measure", file=sys.stderr)
        return 2
    if args.role:
        return child_main(args)

    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in declaration["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            print(f"bench: unknown workload {args.workload!r}; valid: {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else (
        0.3 if args.smoke else float(declaration["run_seconds"]))
    trace = args.trace or ("both" if args.smoke else "0")
    passes = {"0": [False], "1": [True], "both": [False, True]}[trace]

    pin_to_one_cpu()
    results = []
    for seed in range(args.seed, args.seed + args.seeds):
        for name in names:
            for traced in passes:
                result = run_workload(declaration, name, seed, seconds, traced, args.smoke)
                print_result(result)
                results.append(result)

    status = 0 if all(result["correct"] for result in results) else 1
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": results}, indent=1) + "\n")
    if args.write_baseline:
        write_baseline(Path(args.write_baseline), results, seconds)
    if args.check:
        status = max(status, check_baseline(Path(args.check), results, seconds))
    if len(results) == 1:
        # The driver's contract: the last line is the run, as one object.
        print(json.dumps({key: results[0][key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
