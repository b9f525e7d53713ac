"""Durable on-disk work queue: sweeps that shard across worker machines.

:class:`QueueBackend` turns one sweep into files under a shared
*queue directory* (local disk, NFS, anything POSIX-rename-atomic), so any
number of worker processes -- started on this machine by the coordinator, or
by hand on other machines with ``python -m repro worker <queue-dir>`` --
drain it cooperatively and the sweep survives every participant crashing.

Task lifecycle (all transitions are atomic renames or atomic
write-temp-then-rename, so concurrent workers never observe half states)::

    tasks/<fp>.json  --claim-->  leases/<fp>.json  --complete-->  parts/<fp>.json
                                   |      |         (ResultRow part-file)
                                   |      +--steal when tasks/ is empty
                                   |         and the lease is due: rename to
                                   |         leases/<fp>@<worker>.json, run again
                                   +--fail------>  failed/<fp>.json

* ``tasks/`` holds pending work: one JSON file per cell, named by the
  config's :meth:`~repro.experiments.config.ExperimentConfig.fingerprint`
  and carrying the label plus the full config wire format
  (:meth:`~repro.experiments.config.ExperimentConfig.to_dict`), so a worker
  on another machine rebuilds the exact fingerprinted config.
* A worker *claims* a task by renaming it into ``leases/`` -- exactly one
  concurrent claimer can win the rename -- then stamps the lease with its
  identity.  While ``tasks/`` holds work, no cell runs twice.
* A worker that finds ``tasks/`` empty *steals*: it runs any leased cell
  whose part does not read and whose lease file it has seen, by its own
  clock, for longer than its patience (its own longest cell, and at least
  two poll intervals), taking leases in an order of its own so idle
  workers spread over them.  It claims the steal by renaming the lease to
  ``<fp>@<worker>.json``, its content untouched: one rival wins the
  rename, and every other idle worker sees a lease file it has not seen
  before and starts its patience afresh.  The first
  :meth:`TaskQueue.complete` or :meth:`TaskQueue.fail` drops the cell's
  lease, whatever its name.  There is no lease timeout and no liveness
  signal: cells are deterministic, so a second run writes a byte-identical
  part -- wasteful at worst, never wrong -- and a worker that died mid-cell
  costs one patience and one cell time.  The costs, all at a sweep's
  tail: a live cell that outlasts every cell an idle worker has run is run
  again by it; an abandoned lease is run once more per patience that it
  stays unsettled, so a cell that kills its own process (out of memory,
  say) kills one worker per patience; and a ``--drain`` worker waits until
  every lease is settled or due, time a batch scheduler bills to its job.
* A finished cell becomes a *part-file*: ``parts/`` is a
  :class:`~repro.experiments.sweep.ResultCache` (:attr:`TaskQueue.parts`),
  so a part is a sweep-cache entry -- same ``{schema, code, row}`` envelope,
  same reader and writer, code-aware the same way.  It is the only place a
  queue writes results: ``repro serve <queue-dir>/parts`` serves them.
* The part file is the completion signal.  :meth:`TaskQueue.complete`
  writes it before it drops the lease, so a part is on disk before its
  lease or task goes, and pollers -- the coordinator below, and the
  ``repro serve`` follow stream -- find parts by listing ``parts/``
  (:meth:`~repro.experiments.sweep.ResultCache.fingerprints`).  A worker
  that dies between its part and its lease's removal leaves a lease whose
  part reads: the next steal unlinks it on sight.
* A cell that raises becomes a *failure marker* (``failed/<fp>.json``); the
  coordinating sweep surfaces it as an error instead of waiting forever.

The coordinator (:class:`QueueBackend`) streams parts as they land into the
sweep's progress/partial-aggregation layer and resumes from whatever parts a
previous, interrupted coordinator left behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.experiments.sweep import (
    Cell,
    OnResult,
    ResultCache,
    _rebind_row,
    _run_cell,
    _write_json_atomic,
    import_plugins,
    is_fingerprint,
)

__all__ = [
    "QueueBackend",
    "Task",
    "TaskQueue",
    "run_worker",
]

#: Bumped when the task-file wire format changes incompatibly.
TASK_SCHEMA_VERSION = 3


@dataclass
class Task:
    """One leased (or pending) unit of sweep work."""

    fingerprint: str
    label: str
    config: ExperimentConfig
    #: The lease file this process holds, claimed or stolen; ``None`` once
    #: the cell is settled.
    lease_path: Optional[Path] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": TASK_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Task":
        if payload.get("schema") != TASK_SCHEMA_VERSION:
            raise ValueError(
                f"task schema {payload.get('schema')!r} != {TASK_SCHEMA_VERSION} "
                "(coordinator and worker run different repro versions)"
            )
        return cls(
            fingerprint=payload["fingerprint"],
            label=payload["label"],
            config=ExperimentConfig.from_dict(payload["config"]),
        )


class TaskQueue:
    """The on-disk queue: four spool directories."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.tasks_dir = self.directory / "tasks"
        self.leases_dir = self.directory / "leases"
        self.parts_dir = self.directory / "parts"
        #: The part-files, read and written as sweep-cache entries.
        self.parts = ResultCache(self.parts_dir)
        self.failed_dir = self.directory / "failed"
        for sub in (self.tasks_dir, self.leases_dir, self.failed_dir):
            sub.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @staticmethod
    def _spool_path(directory: Path, fingerprint: str) -> Path:
        """``directory/<fingerprint>.json``.  Anything but a config
        fingerprint is refused: names reach here from spool directories
        that other hosts write to, and a separator or ``..`` in one would
        name a file outside the queue directory."""
        if not is_fingerprint(fingerprint):
            raise ValueError(f"not a config fingerprint: {fingerprint!r}")
        return directory / f"{fingerprint}.json"

    def task_path(self, fingerprint: str) -> Path:
        return self._spool_path(self.tasks_dir, fingerprint)

    def lease_path(self, fingerprint: str) -> Path:
        return self._spool_path(self.leases_dir, fingerprint)

    def leases(self, fingerprint: str) -> List[Path]:
        """The cell's lease files on disk: the claimed ``<fp>.json`` and any
        stolen ``<fp>@<worker>.json``."""
        self._spool_path(self.leases_dir, fingerprint)  # refuses a non-fingerprint
        return sorted(self.leases_dir.glob(f"{fingerprint}*.json"))

    def part_path(self, fingerprint: str) -> Path:
        return self._spool_path(self.parts_dir, fingerprint)

    def failed_path(self, fingerprint: str) -> Path:
        return self._spool_path(self.failed_dir, fingerprint)

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def enqueue(self, label: str, config: ExperimentConfig) -> bool:
        """Spool one cell as a pending task file.

        Returns ``False`` (without writing) when the cell is already pending,
        leased, or completed -- so two coordinators sharing a queue directory
        do not duplicate work.  Any stale failure marker for the fingerprint
        is cleared: enqueueing is an explicit fresh attempt.  A part-file
        that no longer *reads* as completed (written by a different source
        tree or schema version) is deleted and the cell re-spooled --
        otherwise an invalid part would pin the task as "done" while every
        read of it misses, and the sweep could never finish.
        """
        task = Task(fingerprint=config.fingerprint(), label=label, config=config)
        self.failed_path(task.fingerprint).unlink(missing_ok=True)
        part = self.part_path(task.fingerprint)
        if part.exists():
            if self.part_row(task.fingerprint) is not None:
                return False
            part.unlink(missing_ok=True)  # stale part: recompute
        if self.task_path(task.fingerprint).exists() or self.leases(task.fingerprint):
            return False
        _write_json_atomic(self.task_path(task.fingerprint), task.to_payload())
        return True

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Task]:
        """Lease the first pending task (by sorted name); ``None`` when empty.

        The claim is one atomic rename into ``leases/``: when several workers
        race for the same task exactly one rename succeeds and the others
        simply move on to the next file.  Tasks whose *valid* part-file
        already exists (written after the task was spooled, by anything that
        shares ``parts/``) are retired on sight instead of re-run; a part
        that no longer reads (different source tree) does not retire its
        task -- completing the task overwrites it.
        """
        for path in sorted(self.tasks_dir.glob("*.json")):
            fingerprint = path.stem
            if not is_fingerprint(fingerprint):
                continue  # not a task this queue wrote
            if self.part_row(fingerprint) is not None:
                path.unlink(missing_ok=True)
                continue
            lease = self.lease_path(fingerprint)
            try:
                path.rename(lease)
            except (FileNotFoundError, PermissionError):
                continue  # another worker won the rename
            task = self._leased_task(lease, fingerprint, worker_id)
            if task is None:
                continue
            _write_json_atomic(
                lease,
                {**task.to_payload(), "worker": worker_id, "claimed_at": time.time()},
            )
            return task
        return None

    def steal(
        self,
        worker_id: str,
        seen: Optional[Dict[str, float]] = None,
        patience_s: float = 0.0,
    ) -> Optional[Task]:
        """A leased task whose part does not read and that is due, to run
        again; ``None`` when there is none.

        Called only once :meth:`claim` finds ``tasks/`` empty.  Leases are
        taken in an order of ``worker_id``'s own, so idle workers spread
        over abandoned leases.  The steal is one atomic rename of the lease
        to ``<fp>@<worker_id>.json`` (its content is not rewritten): of
        several stealers only one wins it.  A lease whose part reads is
        unlinked on sight.  Names and payloads are checked as in
        :meth:`claim`.  ``seen`` maps each unsettled lease file, by name
        stem, to the :func:`time.monotonic` reading at which this stealer
        first saw it (kept here to the files still unsettled); a lease is
        due once ``patience_s`` has passed since, so a lease another worker
        has just stolen is new here and waits a full patience.  No other
        host's clock is read.
        """
        now = time.monotonic()
        unsettled = []
        for lease in self.leases_dir.glob("*.json"):
            fingerprint = lease.stem.partition("@")[0]
            if not is_fingerprint(fingerprint):
                continue  # not a lease this queue wrote
            if self.part_row(fingerprint) is not None:
                lease.unlink(missing_ok=True)
                continue
            unsettled.append((fingerprint, lease))
        seen = {} if seen is None else seen
        held = {lease.stem for _, lease in unsettled}
        for stem in set(seen) - held:
            del seen[stem]
        for stem in held:
            seen.setdefault(stem, now)
        unsettled.sort(key=lambda item: hashlib.sha256(f"{worker_id}/{item[0]}".encode()).digest())
        holder = "".join(char if char.isalnum() or char in "-_." else "_" for char in worker_id)
        for fingerprint, lease in unsettled:
            if now - seen[lease.stem] < patience_s:
                continue
            stolen = lease.with_name(f"{fingerprint}@{holder}.json")
            try:
                lease.rename(stolen)
            except (FileNotFoundError, PermissionError):
                continue  # another worker stole or settled it first
            task = self._leased_task(stolen, fingerprint, worker_id)
            if task is not None:
                return task
        return None

    def _leased_task(self, lease: Path, fingerprint: str, worker_id: str) -> Optional[Task]:
        """The task in ``lease``, a lease file of ``fingerprint``; ``None``
        when the file has gone (its cell was settled meanwhile) or does not
        hold that task.  A payload that does not parse, or names another
        fingerprint, becomes a failure marker and its lease is dropped: an
        unreadable task surfaces as an error, not a hang."""
        try:
            text = lease.read_text()
        except FileNotFoundError:
            return None
        try:
            task = Task.from_payload(json.loads(text))
            if task.fingerprint != fingerprint:
                # Every later path is built from the payload's copy.
                raise ValueError("task file names another fingerprint")
        except (ValueError, KeyError, TypeError) as exc:
            _write_json_atomic(
                self.failed_path(fingerprint),
                {"fingerprint": fingerprint, "label": "?", "worker": worker_id,
                 "error": f"unreadable task file: {exc!r}"},
            )
            lease.unlink(missing_ok=True)
            return None
        task.lease_path = lease
        return task

    def complete(self, task: Task, row: ResultRow) -> None:
        """Publish ``row`` as the task's durable part-file, then drop the
        cell's lease, claimed or stolen -- in that order, so a part that
        cannot be written (full disk, read-only spool) raises with the
        lease still held, for a steal to run again."""
        self.parts.put(row)
        self._drop_leases(task)

    def _drop_leases(self, task: Task) -> None:
        if task.lease_path is not None:
            for lease in self.leases(task.fingerprint):
                lease.unlink(missing_ok=True)
            task.lease_path = None

    def fail(self, task: Task, error: BaseException, worker_id: str = "?") -> None:
        """Record a cell failure so coordinators stop waiting for it."""
        _write_json_atomic(
            self.failed_path(task.fingerprint),
            {
                "fingerprint": task.fingerprint,
                "label": task.label,
                "worker": worker_id,
                "error": f"{type(error).__name__}: {error}",
            },
        )
        self._drop_leases(task)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def part_row(self, fingerprint: str, code_aware: bool = True) -> Optional[ResultRow]:
        """The completed row for ``fingerprint``, or ``None``.

        Parts are validated exactly like cache entries: a part written by a
        different source tree (or schema version) reads as missing, so a
        resumed sweep never mixes rows from two simulator versions.  A name
        that is not a fingerprint reads as missing too.
        """
        entry = self.parts.load_entry(fingerprint)
        return None if entry is None else entry.row_if_current(code_aware)

    def failures(self) -> Dict[str, str]:
        """``fingerprint -> error text`` for every recorded failure."""
        failures: Dict[str, str] = {}
        for path in sorted(self.failed_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                failures[path.stem] = (
                    f"{payload.get('label', '?')}: {payload.get('error', 'unknown error')}"
                )
            except (OSError, ValueError):
                failures[path.stem] = "unreadable failure marker"
        return failures

    def pending(self) -> Set[str]:
        """Fingerprints of every task and lease on disk: the cells no worker
        has finished with, or whose worker died between writing the part and
        dropping the lease."""
        return {
            path.stem.partition("@")[0]
            for spool in (self.tasks_dir, self.leases_dir)
            for path in spool.glob("*.json")
        }

    def counts(self) -> Dict[str, int]:
        """Spool sizes, for observability (``repro worker`` status lines)."""
        return {
            "tasks": sum(1 for _ in self.tasks_dir.glob("*.json")),
            "leases": sum(1 for _ in self.leases_dir.glob("*.json")),
            "parts": len(self.parts),
            "failed": sum(1 for _ in self.failed_dir.glob("*.json")),
        }


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Taker:
    """How a worker, or a coordinator with no local worker running, comes
    by its next cell: claim a pending task, or with ``tasks/`` empty, steal
    a lease it has seen unsettled for longer than its patience -- the
    longest cell it has run, and at least two poll intervals (one idle
    back-off cycle).  A live holder settles within about one cell time, so
    on a sweep of like cells idle participants wait their siblings' tail
    cells out; a lease still unsettled after that is most likely a dead
    worker's."""

    def __init__(self, queue: TaskQueue, worker_id: str, poll_interval_s: float) -> None:
        self.queue = queue
        self.worker_id = worker_id
        self.patience_s = 2 * poll_interval_s
        #: The unsettled leases by first sight (see :meth:`TaskQueue.steal`).
        self.seen: Dict[str, float] = {}

    def next_task(self) -> Optional[Task]:
        queue, worker_id = self.queue, self.worker_id
        return queue.claim(worker_id) or queue.steal(worker_id, self.seen, self.patience_s)

    def run(self, task: Task) -> None:
        """Simulate the cell, then publish its part, the one write of its
        row.  A cell that raises is recorded as a failure marker and the
        error re-raised; an interrupted run (``KeyboardInterrupt``) leaves
        the lease as it is, for a steal to run again."""
        started = time.monotonic()
        try:
            row = _run_cell((task.label, task.config))
        except Exception as exc:
            self.queue.fail(task, exc, self.worker_id)
            raise
        self.queue.complete(task, row)
        self.patience_s = max(self.patience_s, time.monotonic() - started)


def run_worker(
    queue: Union[TaskQueue, str, Path],
    *,
    worker_id: Optional[str] = None,
    poll_interval_s: float = 0.5,
    drain: bool = False,
    max_tasks: Optional[int] = None,
) -> int:
    """Lease and execute tasks until stopped; returns cells executed.

    This is what ``python -m repro worker <queue-dir>`` runs.  The loop:

    1. claim the next task (atomic rename), or, when ``tasks/`` is empty,
       steal a leased cell whose part does not read and that this worker
       has seen unsettled for longer than the longest cell it has run
       (:meth:`TaskQueue.steal`, :class:`_Taker`);
    2. simulate it;
    3. publish the durable part-file -- the cell's completion signal --
       and drop the lease;
    4. with nothing to claim or steal, either exit (``drain=True``, once no
       unsettled lease is left either) or sleep and re-poll -- a long-lived
       worker keeps serving sweeps as coordinators spool them.  Idle sleeps
       back off exponentially (with jitter, so a fleet of workers doesn't
       poll in lockstep) from ``poll_interval_s / 16`` up to
       ``poll_interval_s``, and reset to the floor the moment a task is
       taken: a worker that just went idle re-polls quickly for the next
       spooled batch, while a long-idle worker converges to the configured
       cadence.

    A cell that raises is recorded as a failure marker and the worker moves
    on; a part that cannot be published (full disk, read-only spool) stops
    the worker with the lease still held.  ``KeyboardInterrupt`` propagates
    and leaves the in-flight lease behind, for another worker to steal.
    """
    if not isinstance(queue, TaskQueue):
        queue = TaskQueue(queue)
    if worker_id is None:
        worker_id = default_worker_id()
    import_plugins()

    taker = _Taker(queue, worker_id, poll_interval_s)
    executed = 0
    idle_polls = 0
    jitter_rng = random.Random()
    while max_tasks is None or executed < max_tasks:
        task = taker.next_task()
        if task is None:
            if drain and not taker.seen:
                break
            delay = min(poll_interval_s, (poll_interval_s / 16) * 2 ** idle_polls)
            idle_polls = min(idle_polls + 1, 8)
            time.sleep(delay * (0.5 + jitter_rng.random() * 0.5))
            continue
        idle_polls = 0
        try:
            taker.run(task)
        except Exception:
            if task.lease_path is not None:
                raise  # not the cell: the lease could not be settled
            continue  # the cell raised; its failure marker is written
        executed += 1
    return executed


# ---------------------------------------------------------------------------
# Coordinator backend
# ---------------------------------------------------------------------------

class QueueBackend:
    """Execute sweep cells through a durable work-queue directory
    (``run_sweep(..., backend=QueueBackend(queue_dir))``).

    Parameters
    ----------
    queue_dir:
        The shared queue directory (created on demand).  Every participant
        -- this coordinator, workers it spawns, and any ``python -m repro
        worker`` started elsewhere against the same path -- must see the
        same filesystem.
    workers:
        Local worker processes to spawn for this sweep (each runs
        ``python -m repro worker <queue-dir> --drain`` and exits when the
        spool is empty); any still running once the sweep ends are
        stopped.  ``None`` or ``0`` spawns none.  Whenever no local worker
        is running -- none were spawned, or all have exited (warned once,
        with their exit codes) -- the coordinator itself claims (or, with
        none left, steals, with a worker's patience) and runs tasks between
        polls, while still absorbing parts contributed by external workers
        -- so a bare ``QueueBackend(dir)`` works standalone and speeds up
        the moment extra machines join.  A cell it runs blocks its polls
        for that cell's time.
    poll_interval_s / wait_timeout_s:
        Parts-listing poll cadence, and an optional hard bound on how long
        to wait without any progress (``None`` = forever; useful for
        unattended CI).  The bound must outlast a cell, and the patience
        before a steal.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        *,
        workers: Optional[int] = None,
        poll_interval_s: float = 0.2,
        wait_timeout_s: Optional[float] = None,
    ) -> None:
        self.queue = TaskQueue(queue_dir)
        self.workers = int(workers) if workers else 0
        self.poll_interval_s = poll_interval_s
        self.wait_timeout_s = wait_timeout_s
        self._worker_id = f"coordinator-{default_worker_id()}"

    # ------------------------------------------------------------------
    def _spawn_workers(self) -> List["subprocess.Popen"]:
        """Start local drain-mode workers as real OS processes.

        They run the same CLI entry point a by-hand worker uses, so what CI
        exercises is exactly the multi-machine recipe; logs land under
        ``<queue-dir>/logs/``.
        """
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{package_root}{os.pathsep}{existing}" if existing else package_root
            )
        logs_dir = self.queue.directory / "logs"
        logs_dir.mkdir(exist_ok=True)
        procs: List[subprocess.Popen] = []
        for index in range(self.workers):
            log = open(logs_dir / f"worker-{index}.log", "a")
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        str(self.queue.directory),
                        "--drain",
                        "--poll", str(self.poll_interval_s),
                    ],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
            )
            log.close()
        return procs

    def execute(self, pending: List[Cell], on_result: OnResult) -> int:
        queue = self.queue
        by_fp: Dict[str, List[Cell]] = {}
        for label, config in pending:
            by_fp.setdefault(config.fingerprint(), []).append((label, config))
        outstanding = set(by_fp)

        def collect() -> bool:
            """Deliver each outstanding cell whose part is listed in
            ``parts/`` and reads; one listing per call."""
            found = False
            for fingerprint in sorted(outstanding.intersection(queue.parts.fingerprints())):
                row = queue.part_row(fingerprint)
                if row is None:
                    continue  # stale code, or not readable here yet: next poll
                # One part can satisfy several labels (fingerprint-identical
                # cells under different scenario names): rebind per requester.
                for label, config in by_fp[fingerprint]:
                    on_result(_rebind_row(row, label, config.name))
                outstanding.discard(fingerprint)
                found = True
            return found

        # Resume-from-parts: an interrupted sweep left durable rows behind;
        # serve them before spooling anything.
        collect()

        for fingerprint in sorted(outstanding):
            label, config = by_fp[fingerprint][0]
            queue.enqueue(label, config)

        procs = self._spawn_workers() if (self.workers and outstanding) else []
        taker = _Taker(queue, self._worker_id, self.poll_interval_s)
        warned = False
        last_progress = time.monotonic()
        try:
            while outstanding:
                progressed = collect()
                if not outstanding:
                    break

                failures = queue.failures()
                broken = sorted(outstanding & set(failures))
                if broken:
                    details = "; ".join(failures[fp] for fp in broken)
                    raise RuntimeError(
                        f"{len(broken)} queue task(s) failed: {details} "
                        f"(markers under {queue.failed_dir})"
                    )

                if all(proc.poll() is not None for proc in procs):
                    # No local worker is running (none spawned, or all have
                    # exited): claim instead of just waiting, and with
                    # nothing to claim, steal -- a task leased by a worker
                    # that died is run again here, once it has stayed
                    # unsettled for longer than the taker's patience.
                    task = taker.next_task()
                    if task is not None:
                        if procs and not warned:
                            warned = True
                            warnings.warn(
                                f"all {len(procs)} local queue workers exited "
                                f"(codes {[proc.returncode for proc in procs]}; logs "
                                f"under {queue.directory / 'logs'}); the coordinator "
                                "runs the remaining cells itself",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                        taker.run(task)
                        progressed = True

                if progressed:
                    last_progress = time.monotonic()
                    continue
                if (
                    self.wait_timeout_s is not None
                    and time.monotonic() - last_progress > self.wait_timeout_s
                ):
                    raise TimeoutError(
                        f"queue sweep made no progress for {self.wait_timeout_s}s; "
                        f"{len(outstanding)} cell(s) outstanding, spool: {queue.counts()}"
                    )
                time.sleep(self.poll_interval_s)
        finally:
            # Every cell of this sweep has its part, or the sweep failed.
            # A local worker still running is waiting a lease out, running
            # a settled cell again, or running another sweep's cell: stop
            # it now.  A lease it leaves behind is stolen later, like any
            # dead worker's.
            for proc in procs:
                proc.terminate()  # a no-op on a worker that has exited
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        return max(1, len(procs))
