"""Guard rails: deleted code paths stay deleted, and every rule can fire.

Each row of :data:`RULES` names a rule, a regular expression, the paths it
scans, why the rule exists and its controls: strings the expression must
match.  One test per row first checks the controls, so a rule that cannot
fire (a typo, a wrong escape, a path that holds no file) fails here instead
of passing forever, and then asserts that no line of any file under the
paths matches.

The files scanned are the ones a clean checkout holds: ``git ls-files
--cached --others --exclude-standard`` (tracked, or untracked and not
ignored), so ``.md`` and ``.json`` files count and build output does not.
This file is the one exclusion, since it spells out every pattern and
control.  Expressions are Python ``re``, searched one line at a time, so
``^`` anchors at each line as it does in ``grep``.

To add a rule, append a row: the pattern, the paths (``git ls-files``
pathspecs), a one-line reason and at least one control that the pattern
must match.
"""

import re
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()

EVERYWHERE = ("src", "tests", "benchmarks", "examples")
NOT_BENCHMARKS = ("src", "tests", "examples")
HOT_PATH = ("src/repro/sim", "src/repro/core")


class Rule(NamedTuple):
    rule: str
    regex: str
    paths: Tuple[str, ...]
    reason: str
    controls: Tuple[str, ...]


RULES = (
    Rule(
        "one-config-vocabulary",
        r"TransportKind|TopologyKind|WorkloadKind|_coerce_kind"
        r"|(fig[0-9]+|table[0-9]+|no_sack|cross_traffic)_configs|default_config\(|seed_replicas",
        EVERYWHERE,
        "component fields are registry strings and load_scenario(name) builds a preset "
        "cell: the kind enums, the per-figure *_configs wrappers, default_config and the "
        "benchmarks' own seed-axis expander were deleted, not deprecated",
        ("TransportKind.IRN", "TopologyKind", "WorkloadKind", "_coerce_kind(value)",
         "fig1_configs()", "table3_configs()", "no_sack_configs()",
         "cross_traffic_configs()", "default_config()", "seed_replicas(3)"),
    ),
    Rule(
        "one-scheduler",
        r"HeapSimulator|bucket_width|NUM_BUCKETS|NUM_LEVELS|WHEEL_SLOT_S|set_timer_at"
        r"|use_engine|_cascade|_flush_wheel",
        NOT_BENCHMARKS,
        "the binary heap is the only event queue: the hierarchical calendar, its tuning "
        "constants, bucket_width_s and the engine-swapping test hook were deleted",
        ("x = HeapSimulator", "bucket_width_s=1e-6", "NUM_BUCKETS", "NUM_LEVELS",
         "WHEEL_SLOT_S", "sim.set_timer_at(t, fn)", "use_engine(sim)",
         "self._cascade()", "self._flush_wheel()"),
    ),
    Rule(
        "one-timer-verb",
        r"\.set_timer\(",
        ("src/repro",),
        "every event is set with schedule / schedule_at; Simulator.set_timer survives "
        "as an alias only because benchmarks/e2e/simwork.py calls it",
        ("sim.set_timer(1e-6, fn)",),
    ),
    Rule(
        "part-file-is-the-completion-signal",
        r"force_scan|rescan_every|_polls_since_scan|_execute_task|def forget"
        r"|PartsTail|_append_manifest|manifest_path|def drained\b",
        NOT_BENCHMARKS,
        "a part file on disk is the one sign that a cell completed, and both pollers "
        "list parts/: the parts/MANIFEST log, its PartsTail (with the rescans, "
        "force_scan and forget() it had already lost), its appends and the drained() "
        "fallback for lost lines were deleted; worker and coordinator share one _Taker",
        ("tail.poll(force_scan=True)", "rescan_every=10", "self._polls_since_scan",
         "_execute_task(task)", "def forget(self, name):", "tail = PartsTail(queue)",
         "self._append_manifest(fp)", "queue.manifest_path", "def drained(self) -> bool:"),
    ),
    Rule(
        "one-store-per-queue",
        r"heartbeat_path|default_cache|worker_cache|\.hb\b",
        NOT_BENCHMARKS,
        "parts/ is the only place a queue writes results and a queue keeps no "
        "liveness signal: the workers' second result cache (<queue-dir>/cache, worker "
        "--cache) and the leases/*.hb liveness files were deleted",
        ("queue.heartbeat_path(fp)", "queue.default_cache()", "self.worker_cache",
         "leases/<fp>.hb"),
    ),
    Rule(
        "no-lease-timeout",
        r"lease_timeout|DEFAULT_LEASE_TIMEOUT_S|reclaim_orphans|_heartbeating|\.heartbeat\("
        r"|--lease-timeout",
        EVERYWHERE,
        "a worker that finds tasks/ empty steals any leased cell whose part does not "
        "read, and a deterministic rerun writes the same part: the lease timeout, its "
        "heartbeat thread, orphan reclaim and repro worker --lease-timeout were deleted",
        ("TaskQueue(d, lease_timeout_s=60)", "DEFAULT_LEASE_TIMEOUT_S = 600.0",
         "queue.reclaim_orphans()", "with _heartbeating(queue, task, 0.5):",
         "queue.heartbeat(task)", "repro worker DIR --lease-timeout 600"),
    ),
    Rule(
        "one-way-to-run-a-sweep",
        r"EXECUTION_BACKENDS|register_execution_backend|ExecutionBackend|resolve_backend"
        r"|SerialBackend|ProcessBackend|aggregate_partial|experiments\.backends|--backend",
        NOT_BENCHMARKS,
        "cells run locally (run_sweep, sized by workers) or through the queue; the "
        "execution-backend registry, its classes, backends.py, aggregate_partial and "
        "--backend were deleted, not deprecated",
        ("EXECUTION_BACKENDS", "register_execution_backend(name)",
         "class Pool(ExecutionBackend):", "resolve_backend(name)", "SerialBackend()",
         "ProcessBackend(2)", "aggregate_partial(rows)",
         "from repro.experiments.backends import Pool", "repro run fig1 --backend serial"),
    ),
    Rule(
        "one-cell-vocabulary",
        r"ParameterGrid|_normalize_cells|RoceReceiver",
        (*NOT_BENCHMARKS, "docs", "README.md", ".github"),
        "a sweep's cells are the label -> config mapping ScenarioSpec.configs() and "
        ".replicated() return: the axes grid, run_sweep's other input shapes and its "
        "'name #2' relabelling were deleted, and RoCE's responder is IrnReceiver "
        "under go-back-N, not a subclass",
        ("grid = ParameterGrid(base, axes)", "cells = _normalize_cells(configs)",
         "receiver = RoceReceiver(sim, flow)"),
    ),
    Rule(
        "one-spelling-per-option",
        r"add_argument\(\s*['\"]--(quick|flows|no-cache)['\"]"
        r"|prog=['\"]python -m repro\.serve['\"]",
        ("src",),
        "--quick is --seeds 1, --flows N is --set num_flows=N, --no-cache is leaving "
        "out --cache, and python -m repro.serve was python -m repro serve: the second "
        "spellings were deleted",
        ('run.add_argument("--quick", action="store_true")',
         "run.add_argument('--flows', type=int)",
         'run.add_argument("--no-cache", action="store_true")',
         'prog="python -m repro.serve",'),
    ),
    Rule(
        "documented-runs-use-one-spelling",
        r"repro run\b.*\s--(quick|flows|no-cache)\b"
        r"|['\"]run['\"],.*['\"]--(quick|flows|no-cache)['\"]"
        r"|^\s+(--[\w-]+\s+(\S+\s+)?)*--(quick|flows|no-cache)\b",
        ("docs", "README.md", ".github", "examples"),
        "a documented or scripted repro run spells seed 1 as --seeds 1, the flow count "
        "as --set num_flows=N and an uncached run without --cache (examples/"
        "quickstart.py's own --no-cache flag is a script option, not a repro run one)",
        ("python -m repro run fig1 --quick", "python -m repro run fig1 --flows 60",
         "repro run fig1 --seeds 1 --workers 1 --no-cache",
         'launch(["repro", "run", SCENARIO, "--quick"])',
         '["run", "fig1", "--flows", "12"]',
         "          --workers 1 --no-cache", "    --quick"),
    ),
    Rule(
        "knob-diet",
        r"port_batch_bytes|max_batch_bytes|set_port_batch_bytes|pacing_quantum"
        r"|request_pacing_wakeup|_pacing_wakeup|burst_credit",
        NOT_BENCHMARKS,
        "port_batch_bytes and pacing_quantum_us were deleted with every mechanism only "
        "they reached; neither models the paper's setting (a 1 KB MTU has no jumbo "
        "burst to cap; DCQCN paces per packet)",
        ("port_batch_bytes=9000", "max_batch_bytes", "set_port_batch_bytes(1)",
         "pacing_quantum_us=5", "host.request_pacing_wakeup()", "self._pacing_wakeup",
         "burst_credit"),
    ),
    Rule(
        "one-distribution-path",
        r"keep_flow_records|keep_records|FlowMetrics|completed_flows"
        r"|single_packet_latencies|def summarize",
        NOT_BENCHMARKS,
        "flow-level metrics come only from the collector's streams (running sums and "
        "quantile digests), so a row is a function of its fingerprint; the per-flow "
        "records and the exact-list summary helpers are gone",
        ("keep_flow_records=True", "keep_records", "FlowMetrics(flow)",
         "collector.completed_flows", "single_packet_latencies",
         "def summarize(values):"),
    ),
    Rule(
        "one-transport-wiring",
        r"make_flow_endpoints|irn_config=|roce_config=|tcp_config=|_build_(irn|roce|tcp)_config",
        NOT_BENCHMARKS,
        "a registered transport is (config) -> endpoints and derives its own transport "
        "config once per run; the per-flow keyword factory and the runner's per-run "
        "configs for every transport are gone",
        ("make_flow_endpoints(config)", "irn_config=cfg", "roce_config=cfg",
         "tcp_config=cfg", "_build_irn_config(c)", "_build_roce_config(c)",
         "_build_tcp_config(c)"),
    ),
    Rule(
        "one-sender-state-machine",
        r"RoceSender|RoceConfig|go_back_events|repro\.core\.roce",
        EVERYWHERE,
        "RoCE's requester is IrnSender with go-back-N, no BDP-FC cap and one timeout, "
        "built by the registered roce transport; core/roce.py, its sender, config and "
        "go_back_events stat (recovery_episodes counts the same) were deleted",
        ("sender = RoceSender(sim, host, flow, config)", "RoceConfig(mtu_bytes=1000)",
         "sender.go_back_events", "from repro.core.roce import RoceSender"),
    ),
    Rule(
        "one-transport-machine",
        r"\bclass (BaseSender|BaseReceiver|TransportConfig)\b|\baccept_ooo\b",
        EVERYWHERE,
        "IrnSender, IrnReceiver and IrnConfig are the whole transport machine (TcpSender "
        "subclasses the sender), and the receiver discards out-of-order packets exactly "
        "under go-back-N: the abstract base layer and the accept_ooo knob were deleted",
        ("class BaseSender:", "class BaseReceiver:", "class TransportConfig:",
         "IrnReceiver(sim, flow, config, accept_ooo=False)"),
    ),
    Rule(
        "fingerprint-is-the-config",
        r"_OMITTED_AT|slowdown_digest|slowdown_distribution",
        EVERYWHERE,
        "a config's fingerprint hashes every field but name, as written, so no "
        "field is left out at a listed value; the exclusion table and the per-flow "
        "slowdown digest nothing read (avg_slowdown stays) were deleted",
        ("_OMITTED_AT = {", "payload.pop(name) if value == _OMITTED_AT[name]",
         "row.slowdown_digest", "stats.slowdown_digest.add(slowdown)",
         "row.slowdown_distribution.percentile(0.99)"),
    ),
    Rule(
        "one-event-shape",
        r"class Event\b|\.cancelled\b|\.cancel\(\)",
        HOT_PATH,
        "a scheduled event is the plain list schedule_at returns and sim.cancel(event) "
        "cancels it; the list subclass cost 2.4-4 times a list display, once per event",
        ("class Event(list):", "if event.cancelled:", "event.cancel()"),
    ),
    Rule(
        "no-write-only-frame-state",
        r"\b(msg_id|pfc_priority)\b|busy_time|\.bytes_sent|def utilization|_stopped|def stop\(",
        HOT_PATH,
        "per-frame msg_id and pfc_priority, the three per-hop Link counters and the "
        "per-event Simulator._stopped read were written and never read; they were "
        "deleted with Link.utilization() and Simulator.stop()",
        ("packet.msg_id = 1", "pfc_priority=3", "link.busy_time += t", "link.bytes_sent",
         "def utilization(self):", "self._stopped", "def stop(self):"),
    ),
    Rule(
        "arrivals-bind-once-per-link",
        r"\.dst\.receive|\.receive = ",
        ("src/repro",),
        "an arrival runs link.arrive, bound to dst.receive when the link is built, and "
        "taps wrap the arrive of the links they watch; a per-frame link.dst.receive or "
        "a wrapped node receive is what this replaced",
        ("link.dst.receive(packet)", "node.receive = tap"),
    ),
    Rule(
        "service-rereads-only-moved-files",
        r"cache.scan\(\)",
        ("src/repro/serve/server.py",),
        "a moved cache state re-reads only the files whose signature moved; a full "
        "cache.scan() per state made every rebuild parse them all",
        ("rows = self.cache.scan()",),
    ),
    Rule(
        "one-physics-record",
        r"def (effective_(bdp_cap_packets|buffer_bytes|headroom_bytes|rto_high_s|rto_low_s"
        r"|header_bytes|ack_coalesce_n|ack_coalesce_s)|base_rtt_s|bdp_bytes|path_delay_s"
        r"|longest_path_rtt|bdp_packets)\(",
        ("src/repro",),
        "everything a run derives from its config is one frozen Physics record from "
        "ExperimentConfig.physics(); the derivation methods were deleted, not deprecated",
        tuple(f"def {name}(self):" for name in (
            "effective_bdp_cap_packets", "effective_buffer_bytes",
            "effective_headroom_bytes", "effective_rto_high_s", "effective_rto_low_s",
            "effective_header_bytes", "effective_ack_coalesce_n",
            "effective_ack_coalesce_s", "base_rtt_s", "bdp_bytes", "path_delay_s",
            "longest_path_rtt", "bdp_packets")),
    ),
    Rule(
        "no-physics-method-callers",
        r"\.effective_(bdp|buffer|headroom|rto|header|ack)",
        EVERYWHERE,
        "callers read fields of ExperimentConfig.physics(), not effective_* methods",
        ("config.effective_bdp_cap_packets()", "config.effective_buffer_bytes()",
         "config.effective_headroom_bytes()", "config.effective_rto_low_s()",
         "config.effective_header_bytes()", "config.effective_ack_coalesce_n()"),
    ),
    Rule(
        "no-http-server",
        r"http\.server|BaseHTTPRequestHandler|ThreadingHTTPServer",
        ("src/repro",),
        "repro serve reads each request head off the socket and answers in one write; "
        "the stdlib handler read through buffered files, parsed headers with the email "
        "package, had no socket timeout and cost a third of the server's import",
        ("from http.server import HTTPServer", "class H(BaseHTTPRequestHandler):",
         "class S(ThreadingHTTPServer):"),
    ),
    Rule(
        "no-facade-imports-in-src",
        r"^(from|import) repro\.api",
        ("src/repro",),
        "repro.api loads the whole simulation surface by design; an entry point that "
        "imported it would load the simulator to print a list",
        ("from repro.api import run_sweep", "import repro.api"),
    ),
    Rule(
        "claims-are-data",
        r"aggregate_by_scheme|print_ratio_rows|print_metric_table|BENCH_FLOWS"
        r"|assert_all_completed|run_scenarios|^def test_(fig|table)[0-9]",
        ("benchmarks",),
        "the paper's claims are data on the specs (ScenarioSpec.claims) and one test, "
        "benchmarks/test_claims.py, sweeps and checks every claim run: the per-figure "
        "modules and their shared helpers were deleted",
        ("aggregates = aggregate_by_scheme(base, results)", 'print_ratio_rows("Table 3", rows)',
         'print_metric_table("Figure 1", results)', "BENCH_FLOWS = 120",
         "assert_all_completed(results)", "results = run_scenarios(benchmark, configs)",
         "def test_fig1_irn_vs_roce(benchmark):", "def test_table3_link_utilization_sweep():"),
    ),
    Rule(
        "no-negated-workflow-commands",
        r"(^\s*(-\s+)?(run:\s*['\"]?)?|(&&|\|\||;)\s*|\b(do|then|else)\s+|\{\s+)!\s",
        (".github/workflows/*.yml",),
        "bash -e does not stop on a failing !-negated command, so such a line cannot "
        "fail a step unless it happens to be the step's last command",
        ("run: '! grep x'", "  ! grep x", "make lint && ! grep x",
         "for f in x; do ! grep y; done", "if true; then ! grep y; fi",
         "if false; then :; else ! grep y; fi", "{ ! grep y; }"),
    ),
)


@lru_cache(maxsize=None)
def files_under(pathspec: str) -> Tuple[str, ...]:
    """Repository-relative files under ``pathspec`` that a clean checkout holds."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard",
         "--", pathspec],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    return tuple(sorted(rel for rel in set(listed)
                        if rel and rel != SELF and (ROOT / rel).is_file()))


@lru_cache(maxsize=None)
def lines_of(rel: str) -> Tuple[str, ...]:
    return tuple((ROOT / rel).read_bytes().decode("utf-8", "replace").split("\n"))


@pytest.mark.parametrize("row", RULES, ids=[row.rule for row in RULES])
def test_guard_rail(row):
    pattern = re.compile(row.regex)
    assert row.controls, f"{row.rule}: a rule needs at least one control"
    missed = [control for control in row.controls if not pattern.search(control)]
    assert not missed, f"{row.rule}: the pattern cannot fire on its controls {missed}"
    empty = [pathspec for pathspec in row.paths if not files_under(pathspec)]
    assert not empty, f"{row.rule}: no file under {empty}"

    hits = [
        f"{rel}:{number}: {line.strip()}"
        for rel in sorted({rel for pathspec in row.paths for rel in files_under(pathspec)})
        for number, line in enumerate(lines_of(rel), 1)
        if pattern.search(line)
    ]
    assert not hits, f"{row.rule} ({row.reason}):\n" + "\n".join(hits)

