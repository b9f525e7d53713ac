"""The non-simulating workloads: the sweep CLI (cold, warm) and ``repro serve``.

``sweep_cold`` and ``sweep_warm`` time the real command line,
``python -m repro run table3 --workers 1 --cache DIR --set workload=fixed
--set num_flows=12 --set seed=N`` (12 cells), in a subprocess: against a fresh directory it simulates and
writes every cell, against a filled one it starts the interpreter, imports
``repro``, reads 12 rows and prints the report.  ``serve_read`` starts
``python -m repro serve`` over a 36-row cache (three seeds of the same sweep)
and sends it a seeded request mix in a closed loop, one client, one
connection at a time (the server speaks HTTP/1.0), rewriting one cached row
before every 100th request so the warm aggregate is rebuilt.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostclock import HostClock, Spans
from simwork import digest_drills

SCENARIO = "table3"
CELLS = 12  # table3: 4 utilizations x 3 schemes
FILL_SEEDS = 3


def sweep_overrides(smoke: bool) -> Dict[str, Any]:
    """Twelve 100 KB flows per cell: with fixed sizes the seed moves where
    and when flows start, not how much there is to simulate (heavy-tailed
    sizes make one invocation take 0.6-1.5 s depending on the seed)."""
    return {"workload": "fixed", "num_flows": 3 if smoke else 12}


def serve_overrides(smoke: bool) -> Dict[str, Any]:
    """The served cache keeps the heavy-tailed mix: ``/cdf`` plots
    single-packet messages, which fixed 100 KB flows do not have."""
    return {"num_flows": 5 if smoke else 40}


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def sweep_command(seed: int, cache: Path, smoke: bool) -> List[str]:
    overrides = dict(sweep_overrides(smoke), seed=seed)
    return cli("run", SCENARIO, "--workers", "1", "--cache", str(cache),
               *(part for key, value in overrides.items() for part in ("--set", f"{key}={value}")))


def run_sweep_cli(seed: int, cache: Path, smoke: bool) -> Tuple[int, str]:
    done = subprocess.run(sweep_command(seed, cache, smoke), capture_output=True,
                          text=True, timeout=120)
    return done.returncode, done.stdout


def sweep_failure(returncode: int, stdout: str, simulated: int, cached: int) -> Optional[str]:
    expected = f"({simulated} simulated, {cached} from cache"
    if returncode != 0:
        return f"CLI exited {returncode}"
    if expected not in stdout:
        return f"CLI did not report {expected!r}: {stdout.splitlines()[:1]}"
    return None


def fill_cache(name: str, seed: int, cache: Path, smoke: bool) -> int:
    """Simulate ``FILL_SEEDS`` seeds of the sweep into ``cache`` (the warm
    workloads' input, made from the seed); returns the rows written."""
    import repro.api as api

    overrides = serve_overrides(smoke) if name == "serve_read" else sweep_overrides(smoke)
    result = api.load_scenario(SCENARIO).sweep(
        seeds=range(seed, seed + FILL_SEEDS), workers=1, cache=str(cache), **overrides)
    return len(result)


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Sweep rounds
# ---------------------------------------------------------------------------

def run_sweep_round(name: str, seed: int, seconds: float, first_op: int,
                    spawned_at: float, smoke: bool, work_dir: Path) -> Dict[str, Any]:
    clock = HostClock()
    # What every invocation pays before its first cell: interpreter start,
    # the import and the scenario expansion.
    import repro.api as api

    api.load_scenario(SCENARIO).replicated(seed=seed, **sweep_overrides(smoke))
    setup = clock.since(spawned_at)

    cold = name == "sweep_cold"
    samples: List[List[float]] = []
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        index = first_op + len(samples)
        if cold:
            cache = work_dir / f"cold-{index}"
            op_seed = seed + index
        else:
            cache = work_dir / "cache"
            op_seed = seed + index % FILL_SEEDS
        (returncode, stdout), raw, factor = clock.measure(run_sweep_cli, op_seed, cache, smoke)
        reason = sweep_failure(returncode, stdout, CELLS if cold else 0, 0 if cold else CELLS)
        if cold:
            written = len(api.ResultCache(str(cache)))
            if written != CELLS:
                reason = reason or f"cold sweep left {written} rows in its cache"
            shutil.rmtree(cache, ignore_errors=True)
        if reason:
            failures.append(reason)
        samples.append([CELLS, raw, factor])
        if time.perf_counter() >= deadline:
            break
    return {
        "setup": setup,
        "samples": samples,
        "attempted": len(samples),
        "failures": failures,
        "ops": len(samples),
        "peak_rss_mb": children_peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# The results service
# ---------------------------------------------------------------------------

#: (class, share) of the request mix; ``cell`` picks a cached fingerprint.
REQUEST_MIX: Tuple[Tuple[str, float], ...] = (
    ("cell", 0.40), ("aggregate", 0.25), ("aggregate_text", 0.10),
    ("cdf", 0.10), ("catalog", 0.10), ("healthz", 0.05),
)
REQUEST_PATHS = {
    "aggregate": f"/scenarios/{SCENARIO}/aggregate",
    "aggregate_text": f"/scenarios/{SCENARIO}/aggregate?format=text",
    "cdf": f"/scenarios/{SCENARIO}/cdf",
    "catalog": "/scenarios",
    "healthz": "/healthz",
}
REWRITE_EVERY = 100


class Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache: Path) -> None:
        self.process = subprocess.Popen(
            cli("serve", str(cache), "--port", "0", "--quiet"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        banner = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            self.stop()
            raise RuntimeError(f"repro serve printed no listen banner: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (the service's graceful path), then wait for the exit."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def response_failure(kind: str, status: int, body: bytes) -> Optional[str]:
    if status != 200:
        return f"{kind}: HTTP {status}"
    if kind == "aggregate_text":
        return None if body.strip() else f"{kind}: empty body"
    try:
        json.loads(body)
    except ValueError:
        return f"{kind}: body is not JSON"
    return None


class ServeLoop:
    """The closed request loop shared by the timed round and the traced run."""

    def __init__(self, seed: int, first_op: int, cache: Path, smoke: bool,
                 clock: HostClock) -> None:
        import repro.api as api

        self.api = api
        self.clock = clock
        self.cache = api.ResultCache(str(cache))
        self.rows = self.cache.rows()
        self.rng = random.Random(f"{seed}:{first_op}")
        self.kinds = [kind for kind, _ in REQUEST_MIX]
        self.weights = [share for _, share in REQUEST_MIX]
        self.seeds = range(seed, seed + FILL_SEEDS)
        self.smoke = smoke
        self.server = Server(cache)
        self.failures: List[str] = []
        #: (class, raw seconds, host factor) per request.
        self.samples: List[Tuple[str, float, float]] = []

    def __enter__(self) -> "ServeLoop":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.server.stop()

    def warm_up(self) -> None:
        """Readiness plus the first (cold) aggregate: part of set-up."""
        for kind in ("healthz", "aggregate"):
            status, body = self.server.get(REQUEST_PATHS[kind])
            reason = response_failure(kind, status, body)
            if reason:
                self.failures.append(f"warm-up {reason}")

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        sent = 0
        rebuilt = False
        while time.perf_counter() < deadline:
            sent += 1
            if sent % REWRITE_EVERY == 0:
                # Same row, new mtime: the cache signature moves, so the
                # next aggregate is rebuilt from disk instead of reused.
                self.cache.put(self.rng.choice(self.rows))
                rebuilt = True
            kind = self.rng.choices(self.kinds, self.weights)[0]
            path = REQUEST_PATHS.get(kind) or \
                f"/cells/{self.rng.choice(self.rows).fingerprint}"
            (status, body), raw, factor = self.clock.measure(self.server.get, path)
            reason = response_failure(kind, status, body)
            if reason:
                self.failures.append(reason)
            elif kind == "aggregate" and rebuilt:
                kind, rebuilt = "aggregate_rebuild", False
            self.samples.append((kind, raw, factor))

    def check_aggregate(self) -> None:
        """The served aggregate equals the offline one over the same cache."""
        spec = self.api.load_scenario(SCENARIO)
        sweep = spec.sweep(seeds=self.seeds, workers=1, cache=self.cache,
                           **serve_overrides(self.smoke))
        expected = json.loads(json.dumps(spec.aggregate(sweep)))
        status, body = self.server.get(REQUEST_PATHS["aggregate"])
        if sweep.runs_executed:
            self.failures.append(f"cache missed {sweep.runs_executed} cells it was filled with")
        if status != 200 or json.loads(body)["records"] != expected:
            self.failures.append("served aggregate differs from spec.aggregate(spec.sweep(cache))")


def run_serve_round(seed: int, seconds: float, first_op: int, spawned_at: float,
                    smoke: bool, work_dir: Path) -> Dict[str, Any]:
    clock = HostClock()
    with ServeLoop(seed, first_op, work_dir / "cache", smoke, clock) as loop:
        loop.warm_up()
        setup = clock.since(spawned_at)
        loop.run(seconds)
        loop.check_aggregate()
    return {
        "setup": setup,
        "samples": [[1, raw, factor] for _, raw, factor in loop.samples],
        "attempted": len(loop.samples) + 1,
        "failures": loop.failures,
        "ops": len(loop.samples),
        "peak_rss_mb": children_peak_rss_mb(),
    }


def run_serve_trace(seed: int, seconds: float, smoke: bool, work_dir: Path,
                    spans: Spans) -> Dict[str, Any]:
    clock = HostClock()
    started = time.perf_counter()
    with ServeLoop(seed, 0, work_dir / "cache", smoke, clock) as loop:
        loop.warm_up()
        ready_s = time.perf_counter() - started
        loop.run(seconds)
        loop.check_aggregate()

    by_kind: Dict[str, List[float]] = {}
    for kind, raw, _ in loop.samples:
        by_kind.setdefault(kind, []).append(1000.0 * raw)
    metrics = {f"serve.{kind}_p50_ms": statistics.median(values)
               for kind, values in by_kind.items()}
    metrics["serve.aggregate_warm_p50_ms"] = metrics.pop("serve.aggregate_p50_ms", 0.0)
    latencies = sorted(1000.0 * raw for _, raw, _ in loop.samples)
    metrics["serve.ready_s"] = ready_s
    metrics["serve.req_p50_ms"] = statistics.median(latencies)
    # The highest percentile with ten samples beyond it needs n >= 1000.
    metrics["serve.req_p99_ms"] = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]

    # The same aggregate without HTTP: what the service layer itself costs.
    service = loop.api.ResultsService(str(work_dir / "cache"))
    service.aggregate(SCENARIO)
    for _ in range(5 if smoke else 50):
        with spans.span("serve.direct_aggregate"):
            service.aggregate(SCENARIO)
    direct_ms = 1000.0 * statistics.median(spans.durations("serve.direct_aggregate"))
    metrics["serve.direct_aggregate_ms"] = direct_ms
    metrics["serve.http_overhead_ms"] = metrics["serve.aggregate_warm_p50_ms"] - direct_ms
    metrics["host.slowdown_x"] = statistics.median(clock.factors)
    metrics.update(digest_drills(seed, smoke, spans))
    return {"metrics": metrics, "attempted": len(loop.samples) + 1,
            "failures": loop.failures}


# ---------------------------------------------------------------------------
# Orchestration spans (the traced pass of both sweep workloads)
# ---------------------------------------------------------------------------

def run_sweep_trace(seed: int, seconds: float, smoke: bool, work_dir: Path,
                    spans: Spans) -> Dict[str, Any]:
    clock = HostClock()
    import repro.api as api
    from repro.experiments.sweep import code_fingerprint
    from repro.sim.engine import Simulator

    failures: List[str] = []
    overrides = sweep_overrides(smoke)
    seeds = range(seed, seed + FILL_SEEDS)
    spec = api.load_scenario(SCENARIO)

    with spans.span("cli.list"):
        listing = subprocess.run(cli("list"), capture_output=True, text=True, timeout=120)
    if listing.returncode != 0 or SCENARIO not in listing.stdout:
        failures.append("python -m repro list failed")

    for _ in range(5):
        with spans.span("experiments.expand"):
            configs = spec.replicated(seeds=seeds, **overrides)
    with spans.span("experiments.code_fingerprint"):
        code_fingerprint()
    for config in configs.values():
        with spans.span("experiments.fingerprint"):
            config.fingerprint()

    one_seed = spec.replicated(seeds=[seed], **overrides)
    api.run_experiment(next(iter(one_seed.values())))  # lazy imports, warm caches
    # Sweep overhead: a cold 12-cell sweep against the same cells run
    # directly, in reference seconds, as the median of three pairs (the two
    # sides of a pair run half a second apart on a host that changes speed).
    overhead_fracs = []
    for pair in range(1 if smoke else 3):
        direct_rows = []
        direct_s = 0.0
        for label, config in one_seed.items():
            sim = Simulator()
            with spans.span("topology.build"):
                network = api.TOPOLOGIES.get(config.topology_name).build(
                    sim, config, config.switch_config())
            with spans.span("workload.generate"):
                api.WORKLOADS.get(config.workload_name)(config, list(network.hosts))
            with spans.span("experiments.run_cell"):
                row, raw, factor = clock.measure(
                    lambda: api.run_experiment(config).to_row(label))
            direct_rows.append(row)
            direct_s += raw / factor
        with spans.span("experiments.sweep_cold"):
            cold, raw, factor = clock.measure(
                lambda: spec.sweep(seeds=[seed], workers=1,
                                   cache=str(work_dir / f"trace-cold-{pair}"), **overrides))
        overhead_fracs.append(1.0 - direct_s / (raw / factor))
        if [row.to_dict() for row in cold.rows.values()] != \
                [row.to_dict() for row in direct_rows]:
            failures.append("swept rows differ from direct run_experiment rows")

    # Informational: the same cold sweep on two workers.  The benchmark pins
    # itself to one CPU, so the pin is lifted for this one span.
    pinned = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    allowed = os.environ.get("BENCH_E2E_CPUS")
    if pinned is not None and allowed:
        os.sched_setaffinity(0, {int(cpu) for cpu in allowed.split(",")})
    with spans.span("experiments.pool_w2"):
        spec.sweep(seeds=[seed], workers=2, **overrides)
    if pinned is not None:
        os.sched_setaffinity(0, pinned)

    cache = api.ResultCache(str(work_dir / "cache"))
    with spans.span("experiments.sweep_warm"):
        warm = spec.sweep(seeds=seeds, workers=1, cache=cache, **overrides)
    if warm.runs_executed:
        failures.append(f"warm sweep simulated {warm.runs_executed} cells")
    for config in configs.values():
        with spans.span("experiments.cache_get"):
            cache.get(config)
    scratch = api.ResultCache(str(work_dir / "trace-put"))
    for row in warm.rows.values():
        with spans.span("experiments.cache_put"):
            scratch.put(row)
    for _ in range(5):
        with spans.span("experiments.aggregate"):
            records = spec.aggregate(warm)
        with spans.span("metrics.render"):
            api.format_metric_table(SCENARIO, warm.rows)
            api.format_aggregate_table(records, label_keys=spec.aggregate_by)

    # The user-visible commands, raw: the numbers the spans decompose.  The
    # bare import alternates with the warm invocation it is a share of, so
    # both see the same host mode.
    with spans.span("cli.cold"):
        returncode, stdout = run_sweep_cli(seed, work_dir / "trace-cli", smoke)
    reason = sweep_failure(returncode, stdout, CELLS, 0)
    if reason:
        failures.append(reason)
    warm_runs = 2 if smoke else max(3, int(seconds / 2))
    for index in range(warm_runs):
        with spans.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import repro.api"], check=True, timeout=120)
        with spans.span("cli.warm"):
            returncode, stdout = clock.measure(
                run_sweep_cli, seed + index % FILL_SEEDS, work_dir / "cache", smoke)[0]
        reason = sweep_failure(returncode, stdout, 0, CELLS)
        if reason:
            failures.append(reason)

    def median(name: str, scale: float = 1.0) -> float:
        return scale * statistics.median(spans.durations(name))

    times = os.times()
    metrics = {
        "cli.import_s": median("cli.import"),
        "cli.list_s": median("cli.list"),
        "cli.cold_s": median("cli.cold"),
        "cli.warm_s": median("cli.warm"),
        "topology.build_ms": median("topology.build", 1e3),
        "workload.generate_ms": median("workload.generate", 1e3),
        "experiments.expand_ms": median("experiments.expand", 1e3),
        "experiments.fingerprint_us": median("experiments.fingerprint", 1e6),
        "experiments.code_fingerprint_ms": median("experiments.code_fingerprint", 1e3),
        "experiments.cache_put_us": median("experiments.cache_put", 1e6),
        "experiments.cache_get_us": median("experiments.cache_get", 1e6),
        "experiments.aggregate_ms": median("experiments.aggregate", 1e3),
        "metrics.render_ms": median("metrics.render", 1e3),
        "experiments.sweep_overhead_frac": statistics.median(overhead_fracs),
        "experiments.pool_w2_s": median("experiments.pool_w2"),
        "host.cpu_s": times.user + times.system + times.children_user + times.children_system,
        "host.slowdown_x": statistics.median(clock.factors),
    }
    return {"metrics": metrics, "attempted": 1 + warm_runs, "failures": failures}
