"""Command-line entry point: ``python -m repro``.

Subcommands
-----------

``run <scenario>``
    Resolve a registered scenario by name, sweep every cell (optionally over
    seed replicas and worker processes, served from a disk cache), and print
    the per-replica metric table, the per-cell aggregate table (means with
    95% confidence intervals, pooled tail percentiles) and, with ``--cdf``,
    Figure 8-style tail CDFs.  ``--queue-dir DIR`` spools the cells
    through a durable work queue that any number of ``repro worker``
    processes (anywhere that sees the directory) drain; ``--follow`` streams
    the partial per-cell aggregates as results land, and re-running the same
    command resumes from the part-files already on disk.

``worker <queue-dir>``
    Lease and execute tasks from a queue directory until it drains (or
    forever, without ``--drain``) -- the process you start on *other*
    machines to shard a queue sweep.

``list``
    Show every registered scenario with its description and shape.

``serve <cache-dir>``
    Long-lived HTTP results service over a warm sweep cache: scenario
    catalog, pooled per-cell aggregates, tail CDFs, raw rows and (with
    ``--queue-dir``) live ``/follow`` streams over a draining work queue --
    zero simulation on the read path.  See :mod:`repro.serve.server`.

Examples::

    python -m repro run fig1
    python -m repro run fig8 --seeds 3 --workers 4 --cache .sweep-cache/fig8 --cdf
    python -m repro run fig1 --seeds 1               # seed 1 only, fast feedback
    python -m repro run fig1 --queue-dir /shared/q --follow
    python -m repro worker /shared/q                 # on as many machines as you like
    python -m repro list
    python -m repro serve .sweep-cache/fig8 --port 8123

(``--set`` applies to *every* cell; setting a field a scenario sweeps as its
row axis would collapse the sweep, so the CLI warns when that happens.)

Each sub-command imports what it runs when it is dispatched, never
``repro.api``: ``list`` and a fully cached ``run`` load no simulator,
``run`` and ``worker`` load it when their first uncached cell executes, and
only ``serve`` loads the results server, which reads each request head off
the socket itself (at most 64 KiB and 100 header lines, within a socket
timeout), answers in one write and sends a JSON error for anything but an
HTTP/1.x ``GET``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.serve import add_serve_arguments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ScenarioSpec


def _parse_set_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """``--set key=value`` pairs; values parse as JSON when possible, so
    ``--set target_load=0.9 --set workload='"uniform"'`` and bare strings
    (``--set workload=uniform``) both work."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(raw: str) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {raw}")
    return value


def _make_follow_printer(spec: ScenarioSpec):
    """A ``run_sweep`` progress observer that streams converging aggregates.

    Prints one line per completed cell with the *pooled* tail over every row
    that has landed so far -- the point of ``--follow`` on a queue sweep is
    watching those partial aggregates converge before the sweep finishes.
    """
    del spec  # the aggregate record itself carries the cell key

    def follow(progress, row) -> None:
        line = f"  [{progress.completed}/{progress.total}] {row.label}"
        record = progress.last_update
        if record is not None:
            # The cell key is whatever the spec aggregates by (its leading
            # ``by`` columns), so this renders for any aggregate_by policy.
            cell = ", ".join(str(record[field]) for field in progress.by)
            line += f"  ->  {cell}: replicas={record['replicas']}"
            if "fct_p99_s" in record:
                line += f" fct_p99_s={record['fct_p99_s']:.6f}"
            line += f" avg_slowdown={record['avg_slowdown_mean']:.3f}"
        print(line, flush=True)

    return follow


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.spec import scenario
    from repro.experiments.sweep import run_sweep

    overrides = _parse_set_overrides(args.set or [])

    # What the user can get wrong -- the scenario, a --set field or value, a
    # component name -- is checked here, from declarations alone,
    # before any cell runs: one line on stderr and exit code 2, no traceback.
    try:
        spec = scenario(args.scenario)
        cells = spec.replicated(seeds=args.seeds, **overrides)
        for config in cells.values():
            config.check_components()
    except ValueError as exc:  # repro.registry.UnknownNameError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Overriding a field the scenario sweeps as its row axis would make every
    # row run the same simulation while keeping its distinct label -- warn.
    swept = {key for row in (spec.rows or {}).values() for key in row}
    collapsed = sorted(swept & set(overrides))
    if collapsed:
        print(f"warning: override of {', '.join(collapsed)} collapses "
              f"{spec.name}'s row sweep -- every row now runs the same value")
    # Names define aggregation cells; forcing one name onto >1 cell would
    # pool every scheme's replicas into a single meaningless aggregate.
    if "name" in overrides and len(spec.configs()) > 1:
        print("warning: --set name=... gives every cell the same name, so "
              "the per-cell aggregate table pools all of them together")

    backend = None
    if args.queue_dir:
        from repro.experiments.queue import QueueBackend

        backend = QueueBackend(args.queue_dir, workers=args.workers)
        print(f"{spec.name}: queue at {args.queue_dir} "
              f"(add workers anywhere with: python -m repro worker {args.queue_dir})")

    progress = _make_follow_printer(spec) if args.follow else None
    sweep = run_sweep(
        cells, workers=args.workers, cache=args.cache, backend=backend,
        progress=progress, progress_by=spec.aggregate_by,
    )

    executed = sweep.runs_executed
    served = sweep.cache_hits
    print(f"{spec.name}: {len(sweep)} runs "
          f"({executed} simulated, {served} from cache, "
          f"{sweep.workers_used} worker{'s' if sweep.workers_used != 1 else ''})")
    print()
    from repro.metrics.report import format_run_report

    print(format_run_report(spec, sweep, cdf=args.cdf))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.experiments.queue import TaskQueue, default_worker_id, run_worker

    queue = TaskQueue(args.queue_dir)
    worker_id = default_worker_id()
    counts = queue.counts()
    # A coordinator stops its local workers with SIGTERM once its sweep
    # ends: unwind as from Ctrl-C, so no write is left half done.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(f"worker {worker_id} draining {queue.directory} "
              f"(tasks={counts['tasks']} leases={counts['leases']} "
              f"parts={counts['parts']})", flush=True)
        executed = run_worker(
            queue,
            worker_id=worker_id,
            poll_interval_s=args.poll,
            drain=args.drain,
            max_tasks=args.max_tasks,
        )
    except KeyboardInterrupt:
        print(f"worker {worker_id} stopped; spool now {queue.counts()}")
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"worker {worker_id} done: {executed} cell(s) executed; "
          f"spool now {queue.counts()}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    # The same entries (and formatter) back GET /scenarios on the results
    # service, so the CLI and HTTP catalogs cannot drift.
    from repro.serve.catalog import catalog_entries, format_catalog

    print(format_catalog(catalog_entries()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run registered experiment scenarios end-to-end "
        "(sweep -> aggregate -> report).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print its report")
    run.add_argument("scenario", help="registered scenario name (see: python -m repro list)")
    run.add_argument("--seeds", type=_positive_int, default=None, metavar="N",
                     help="run seeds 1..N per cell (default: the spec's own seed axis)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="worker processes (default: auto; 1 = serial)")
    run.add_argument("--cache", default=None, metavar="DIR",
                     help="serve/store results in this sweep-cache directory")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any ExperimentConfig field for every cell "
                          "(repeatable; value parsed as JSON when possible)")
    run.add_argument("--cdf", action="store_true",
                     help="also print single-packet latency tail CDFs")
    run.add_argument("--queue-dir", default=None, metavar="DIR",
                     help="spool the cells through a work queue in DIR that "
                          "any 'python -m repro worker DIR' helps drain "
                          "(--workers then starts that many local workers)")
    run.add_argument("--follow", action="store_true",
                     help="stream partial per-cell aggregates as results land")
    run.set_defaults(func=_cmd_run)

    worker = sub.add_parser(
        "worker",
        help="lease and execute sweep tasks from a queue directory",
        description="Drain a queue sweep: claim fingerprint-named "
        "task files, simulate each, and publish its durable ResultRow "
        "part-file under <queue-dir>/parts.  With no task left to claim, "
        "run again any leased cell that has no part yet once this worker "
        "has seen it unsettled for longer than its own longest cell (its "
        "worker may have died; cells are deterministic, so a second run "
        "writes the same part).  Start as many of these as you like, on "
        "any machine that sees the directory.",
    )
    worker.add_argument("queue_dir", help="the sweep's queue directory")
    worker.add_argument("--poll", type=_positive_seconds, default=0.5, metavar="SECONDS",
                        help="idle re-poll interval (default: 0.5)")
    worker.add_argument("--drain", action="store_true",
                        help="exit once no task or unfinished lease remains "
                             "(default: keep serving new tasks forever)")
    worker.add_argument("--max-tasks", type=_positive_int, default=None, metavar="N",
                        help="exit after executing N cells")
    worker.set_defaults(func=_cmd_worker)

    lst = sub.add_parser("list", help="list registered scenarios")
    lst.set_defaults(func=_cmd_list)

    serve = sub.add_parser(
        "serve",
        help="serve warm sweep-cache results over HTTP",
        description="Long-lived results service over a warm sweep cache, "
        "on a stdlib socket server that reads each request head (at most "
        "64 KiB, 100 header lines, within a 10 s socket timeout) and answers "
        "in one write, with a JSON error for anything but an HTTP/1.x GET: "
        "GET /scenarios (catalog), "
        "/scenarios/<name>/aggregate, /scenarios/<name>/cdf, "
        "/cells/<fingerprint>, and -- with --queue-dir -- live "
        "/scenarios/<name>/follow streams over a draining work queue.  "
        "Append ?format=text for the offline CLIs' byte-identical text "
        "renderings.  The read path never simulates.",
    )
    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Import REPRO_PLUGINS modules before touching any registry, so custom
    # scenarios/components registered by plugins resolve by name in the CLI
    # (worker processes import the same modules via the sweep layer).
    from repro.experiments.sweep import import_plugins

    import_plugins()
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro run fig1 | head -1``): the rest
        # of the output has nowhere to go.  Point stdout at devnull, so the
        # interpreter's final flush does not raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
