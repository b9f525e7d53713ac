"""Queue-backend smoke check: two real workers, one queue dir, exact answers.

CI runs this to prove the multi-machine recipe end to end on Figure 1:

1. run the scenario serially (the reference answer);
2. plant one abandoned lease: spool one cell and claim it as
   ``dead-worker``, a worker that never finishes it;
3. run the scenario again through the ``queue`` backend with **two** worker
   processes (each a real ``python -m repro worker <dir> --drain``) draining
   one queue directory, streaming partial aggregates as part-files land --
   a worker that finds no task left steals the abandoned lease once it
   has seen it unsettled for longer than its own longest cell, so the
   sweep finishes inside its 60 s no-progress bound;
4. assert the streamed sweep saw partial progress before completion and that
   its final ``aggregate_rows`` output -- fingerprints, pooled digest tails
   and all -- is identical to the serial run;
5. assert the drained queue directory's layout: ``tasks/`` and ``leases/``
   are empty, and ``parts/`` holds exactly one ``<fingerprint>.json`` per
   cell and nothing else.

With ``--resume`` (pointed at a queue directory a previous invocation
populated) it instead proves the durability story: the coordinator must
serve every cell from the part-files already on disk without simulating
anything -- ``run_experiment`` is replaced with a tripwire for the duration
-- and leave the same layout behind.

Usage::

    PYTHONPATH=src python examples/queue_smoke.py [queue-dir] [--resume]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api import QueueBackend, TaskQueue, load_scenario

SCENARIO = "fig1"
FLOWS = 30  # enough traffic for non-trivial tails, small enough for CI


def layout_failures(queue_dir, rows) -> list:
    """What the drained queue directory holds that it should not."""
    root = Path(queue_dir)
    failures = []
    for spool in ("tasks", "leases"):
        left = sorted(path.name for path in (root / spool).iterdir())
        if left:
            failures.append(f"{spool}/ is not empty: {left}")
    held = sorted(path.name for path in (root / "parts").iterdir())
    expected = sorted({f"{row.fingerprint}.json" for row in rows.values()})
    if held != expected:
        failures.append(f"parts/ holds {held}, expected one part per cell: {expected}")
    return failures


def main() -> int:
    args = [arg for arg in sys.argv[1:] if arg != "--resume"]
    resume = "--resume" in sys.argv[1:]
    queue_dir = args[0] if args else tempfile.mkdtemp(prefix="repro-queue-")
    spec = load_scenario(SCENARIO)

    print(f"== serial reference: {SCENARIO} x seeds {list(spec.seeds or ())} ==")
    serial = spec.sweep(workers=1, cache=None, num_flows=FLOWS)
    serial_agg = spec.aggregate(serial)

    if resume:
        print(f"== resume: coordinator must serve everything from {queue_dir}/parts ==")
        import repro.experiments.runner as runner_mod

        def tripwire(config):
            raise AssertionError(f"resume simulated {config.name!r} instead of "
                                 "serving its part-file")

        runner_mod.run_experiment = tripwire
        backend = QueueBackend(queue_dir, workers=0, poll_interval_s=0.05,
                               wait_timeout_s=60)
        resumed = spec.sweep(cache=None, backend=backend, num_flows=FLOWS)
        if resumed.rows != serial.rows or spec.aggregate(resumed) != serial_agg:
            print("FAILED: resumed rows/aggregates differ from serial")
            return 1
        failures = layout_failures(queue_dir, resumed.rows)
        if failures:
            print("FAILED:\n  - " + "\n  - ".join(failures))
            return 1
        print(f"OK: all {len(resumed.rows)} rows resumed from durable parts, "
              "zero simulations; one part per cell, no task or lease.")
        return 0

    label, config = next(iter(spec.replicated(num_flows=FLOWS).items()))
    print(f"== plant an abandoned lease: {label} claimed by dead-worker ==")
    planted = TaskQueue(queue_dir)
    planted.enqueue(label, config)
    lease = planted.claim("dead-worker")
    if lease is None or lease.fingerprint != config.fingerprint():
        print(f"FAILED: could not plant a lease on {label} (is {queue_dir} fresh?)")
        return 1

    print(f"== queue backend: 2 workers draining {queue_dir} ==")
    snapshots = []

    def follow(progress, row):
        record = progress.last_update or {}
        snapshots.append(progress.completed)
        print(
            f"  [{progress.completed}/{progress.total}] {row.label}"
            f"  ->  {row.name}: replicas={record.get('replicas')}"
            f" fct_p99_s={record.get('fct_p99_s', float('nan')):.6f}"
        )

    backend = QueueBackend(queue_dir, workers=2, poll_interval_s=0.05, wait_timeout_s=60)
    queued = spec.sweep(cache=None, backend=backend, progress=follow, num_flows=FLOWS)
    queued_agg = spec.aggregate(queued)

    failures = []
    if queued.workers_used != 2:
        failures.append(f"expected 2 workers, used {queued.workers_used}")
    if snapshots != list(range(1, len(serial.rows) + 1)):
        failures.append(f"progress stream incomplete: {snapshots}")
    if len(snapshots) >= 2 and snapshots[-2] >= snapshots[-1]:
        failures.append("no partial aggregate was observed before completion")
    if queued.rows != serial.rows:
        failures.append("queue rows differ from serial rows")
    if sorted(r.fingerprint for r in queued.rows.values()) != sorted(
        r.fingerprint for r in serial.rows.values()
    ):
        failures.append("fingerprints differ")
    if queued_agg != serial_agg:
        failures.append(f"aggregates differ:\n  serial: {serial_agg}\n  queue:  {queued_agg}")
    failures += layout_failures(queue_dir, queued.rows)

    if failures:
        print("FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1

    print(f"OK: {len(queued.rows)} rows via 2 queue workers; streamed aggregate "
          f"matches the serial run exactly ({len(queued_agg)} cells); the drained "
          "queue dir holds one part per cell and no task or lease.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
