"""Durable on-disk work queue: sweeps that shard across worker machines.

:class:`QueueBackend` turns one sweep into files under a shared
*queue directory* (local disk, NFS, anything POSIX-rename-atomic), so any
number of worker processes -- started on this machine by the coordinator, or
by hand on other machines with ``python -m repro worker <queue-dir>`` --
drain it cooperatively and the sweep survives every participant crashing.

Task lifecycle (all transitions are atomic renames or atomic
write-temp-then-rename, so concurrent workers never observe half states)::

    tasks/<fp>.json  --claim-->  leases/<fp>.json  --complete-->  parts/<fp>.json
         ^                            |                 (ResultRow part-file)
         |                            +--fail------>  failed/<fp>.json
         +------reclaim (stale lease: crashed worker)--+

* ``tasks/`` holds pending work: one JSON file per cell, named by the
  config's :meth:`~repro.experiments.config.ExperimentConfig.fingerprint`
  and carrying the label plus the full config wire format
  (:meth:`~repro.experiments.config.ExperimentConfig.to_dict`), so a worker
  on another machine rebuilds the exact fingerprinted config.
* A worker *claims* a task by renaming it into ``leases/`` -- exactly one
  concurrent claimer can win the rename -- then stamps the lease with its
  identity.  The lease is its own heartbeat: while executing, the worker
  refreshes the lease's mtime on its poll cadence, and a lease is presumed
  orphaned (and renamed back into ``tasks/``) only once that mtime has gone
  untouched for ``lease_timeout_s`` -- so a slow cell on a live worker is
  never stolen, while a dead worker's lease is reclaimed one timeout after
  its last beat.  Stamps and reclaim's "now" both come from the
  filesystem's clock (on NFS, the server's), never from a host's.
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
  that dies between its part and its lease's removal leaves the lease to
  be reclaimed, and the claim that follows retires the task on sight.
* A cell that raises becomes a *failure marker* (``failed/<fp>.json``); the
  coordinating sweep surfaces it as an error instead of waiting forever.

The coordinator (:class:`QueueBackend`) streams parts as they land into the
sweep's progress/partial-aggregation layer and resumes from whatever parts a
previous, interrupted coordinator left behind.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

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

#: Leases untouched for this long are presumed orphaned by a dead worker.
#: Must comfortably exceed the longest single cell (cells are seconds-long;
#: slow shared filesystems and swapped machines get a wide margin).
DEFAULT_LEASE_TIMEOUT_S = 600.0


@dataclass
class Task:
    """One leased (or pending) unit of sweep work."""

    fingerprint: str
    label: str
    config: ExperimentConfig
    #: Set while this process holds the lease.
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

    def __init__(
        self,
        directory: Union[str, Path],
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.directory = Path(directory)
        self.lease_timeout_s = lease_timeout_s
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
        for existing in (
            self.task_path(task.fingerprint),
            self.lease_path(task.fingerprint),
        ):
            if existing.exists():
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
        already exists (a reclaimed lease whose original worker finished
        after all, or died before dropping its lease) are retired on sight
        instead of re-run; a part that no longer reads (different source
        tree) does not retire its task -- completing the task overwrites it.
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
                # Refresh the mtime *before* the rename (which preserves
                # it): orphan reclaim judges staleness by lease mtime, and
                # a task that sat pending longer than the lease timeout
                # must not be born already reclaim-eligible.
                os.utime(path)
                path.rename(lease)
            except (FileNotFoundError, PermissionError):
                continue  # another worker won the rename
            try:
                lease_text = lease.read_text()
            except FileNotFoundError:
                # Reclaimed out from under us in the instant after the
                # rename: the task is back in the pending spool, someone
                # will claim it.  Not a failure.
                continue
            try:
                payload = json.loads(lease_text)
                task = Task.from_payload(payload)
                if task.fingerprint != fingerprint:
                    # Every later path is built from the payload's copy.
                    raise ValueError("task file names another fingerprint")
            except (ValueError, KeyError, TypeError) as exc:
                # Genuinely unreadable task: surface as a failure marker,
                # not a hang.
                _write_json_atomic(
                    self.failed_path(fingerprint),
                    {"fingerprint": fingerprint, "label": "?", "worker": worker_id,
                     "error": f"unreadable task file: {exc!r}"},
                )
                lease.unlink(missing_ok=True)
                continue
            task.lease_path = lease
            # Stamp the lease with the claimer (refreshing its mtime again;
            # long-running cells get the full lease_timeout_s from here).
            _write_json_atomic(
                lease,
                {**payload, "worker": worker_id, "claimed_at": time.time()},
            )
            return task
        return None

    def heartbeat(self, task: Union[Task, str]) -> None:
        """Refresh the lease's mtime: "I am alive and still on it".

        Workers call this on their poll cadence while a cell executes (see
        :func:`run_worker`), so :meth:`reclaim_orphans` can tell a slow cell
        on a live worker from a lease whose holder died mid-cell.  The stamp
        is the filesystem's clock, not this host's.  A lease that is gone
        stays gone: the beat creates no file.
        """
        fingerprint = task if isinstance(task, str) else task.fingerprint
        try:
            os.utime(self.lease_path(fingerprint))
        except OSError:
            pass  # gone, or unwritable: never fail the cell over a beat

    def complete(self, task: Task, row: ResultRow) -> None:
        """Publish ``row`` as the task's durable part-file, then drop the
        lease -- in that order, so a part that cannot be written (full disk,
        read-only spool) raises with the lease still held, for reclaim to
        requeue."""
        self.parts.put(row)
        if task.lease_path is not None:
            task.lease_path.unlink(missing_ok=True)
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
        if task.lease_path is not None:
            task.lease_path.unlink(missing_ok=True)
            task.lease_path = None

    def release(self, task: Task) -> None:
        """Return a leased task to the pending spool (interrupted worker)."""
        if task.lease_path is None:
            return
        try:
            task.lease_path.rename(self.task_path(task.fingerprint))
        except FileNotFoundError:
            pass
        task.lease_path = None

    def reclaim_orphans(self, now: Optional[float] = None) -> List[str]:
        """Requeue every lease whose worker has stopped heartbeating.

        A worker that died (or lost its machine) leaves its lease behind;
        renaming it back into ``tasks/`` lets surviving workers pick the
        cell up.  Staleness is judged on the lease's own mtime, which the
        claim and every heartbeat refresh, so a cell that runs longer than
        ``lease_timeout_s`` is never stolen from a worker that is still
        beating, while a dead worker's lease is reclaimed one timeout after
        its final beat.

        Ages are read off one clock, the filesystem's: "now" is the mtime of
        the leases directory, touched here (``now`` overrides it).  So a
        host whose clock runs ahead never reclaims a live lease, and a
        worker whose clock runs behind never looks dead.

        Safe to call from any participant: the rename is atomic, and a
        completed-after-reclaim duplicate execution writes a byte-identical
        part-file (cells are deterministic), so the race is wasteful at
        worst, never wrong.
        """
        if now is None:
            try:
                os.utime(self.leases_dir)
                now = self.leases_dir.stat().st_mtime
            except OSError:
                return []  # a spool this host cannot write: no rename would work
        reclaimed: List[str] = []
        for lease in sorted(self.leases_dir.glob("*.json")):
            fingerprint = lease.stem
            if not is_fingerprint(fingerprint):
                continue  # not a lease this queue wrote
            try:
                if now - lease.stat().st_mtime < self.lease_timeout_s:
                    continue
                lease.rename(self.task_path(fingerprint))
            except FileNotFoundError:
                continue
            reclaimed.append(fingerprint)
        return reclaimed

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


@contextmanager
def _heartbeating(queue: TaskQueue, task: Task, interval_s: float):
    """Refresh the task's lease on a cadence while the body executes.

    The beat runs on a daemon thread so a cell that outlives
    ``lease_timeout_s`` keeps signalling liveness; the lease is then only
    reclaimable once the worker actually dies (thread and process die
    together).  The claim's own rewrite of the lease is the first beat.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval_s):
            queue.heartbeat(task)

    thread = threading.Thread(target=beat, name=f"hb-{task.fingerprint[:8]}", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=interval_s + 1.0)


def _run_task(queue: TaskQueue, task: Task, worker_id: str, heartbeat_s: float) -> None:
    """Run one leased task and settle its lease.

    The cell is simulated with the lease heartbeating every ``heartbeat_s``;
    then its part is published, the one write of its row.  A cell that
    raises is recorded as a failure marker and the error re-raised;
    ``KeyboardInterrupt`` returns the task to the pending spool first.
    """
    try:
        with _heartbeating(queue, task, heartbeat_s):
            row = _run_cell((task.label, task.config))
    except KeyboardInterrupt:
        queue.release(task)
        raise
    except Exception as exc:
        queue.fail(task, exc, worker_id)
        raise
    queue.complete(task, row)


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

    1. claim the next task (atomic rename);
    2. simulate it, refreshing the lease's mtime every ``poll_interval_s``
       while the cell runs, so ``--lease-timeout`` measures *silence since
       the last heartbeat*, not cell duration: a cell may legitimately run
       far longer than the lease timeout without being stolen;
    3. publish the durable part-file -- the cell's completion signal --
       and drop the lease;
    4. on an idle queue, reclaim orphaned leases, then either exit (with
       ``drain=True``, once no pending tasks remain) or sleep and re-poll --
       a long-lived worker keeps serving sweeps as coordinators spool them.
       Idle sleeps back off exponentially (with jitter, so a fleet of
       workers doesn't poll in lockstep) from ``poll_interval_s / 16`` up
       to ``poll_interval_s``, and reset to the floor the moment a task is
       claimed: a worker that just went idle re-polls quickly for the next
       spooled batch, while a long-idle worker converges to the configured
       cadence.  The in-flight heartbeat cadence is unaffected.

    A cell that raises is recorded as a failure marker and the worker moves
    on; a part that cannot be published (full disk, read-only spool) stops
    the worker with the lease still held, for reclaim to requeue.
    ``KeyboardInterrupt`` releases the in-flight task back to the pending
    spool before propagating, so nothing is lost to a Ctrl-C.
    """
    if not isinstance(queue, TaskQueue):
        queue = TaskQueue(queue)
    if worker_id is None:
        worker_id = default_worker_id()
    import_plugins()

    executed = 0
    idle_polls = 0
    jitter_rng = random.Random()
    while max_tasks is None or executed < max_tasks:
        task = queue.claim(worker_id)
        if task is None:
            if queue.reclaim_orphans():
                continue
            if drain:
                break
            delay = min(poll_interval_s, (poll_interval_s / 16) * 2 ** idle_polls)
            idle_polls = min(idle_polls + 1, 8)
            time.sleep(delay * (0.5 + jitter_rng.random() * 0.5))
            continue
        idle_polls = 0
        try:
            _run_task(queue, task, worker_id, poll_interval_s)
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
        spool is empty).  ``None`` or ``0`` spawns none.  Whenever no local
        worker is running -- none were spawned, or all have exited (warned
        once, with their exit codes) -- the coordinator itself claims and
        runs tasks between polls, while still absorbing parts contributed
        by external workers -- so a bare ``QueueBackend(dir)`` works
        standalone and speeds up the moment extra machines join.
    poll_interval_s / lease_timeout_s / wait_timeout_s:
        Parts-listing poll cadence, orphan-lease threshold, and an optional hard
        bound on how long to wait without any progress (``None`` = forever;
        useful for unattended CI).
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        *,
        workers: Optional[int] = None,
        poll_interval_s: float = 0.2,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        wait_timeout_s: Optional[float] = None,
    ) -> None:
        self.queue = TaskQueue(queue_dir, lease_timeout_s=lease_timeout_s)
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
                        "--lease-timeout", str(self.queue.lease_timeout_s),
                    ],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
            )
            log.close()
        return procs

    def _deliver(
        self,
        row: ResultRow,
        cells: Sequence[Cell],
        on_result: OnResult,
    ) -> None:
        # One part-file can satisfy several labels (fingerprint-identical
        # cells under different scenario names); rebind per requester.
        for label, config in cells:
            on_result(_rebind_row(row, label, config.name))

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
                self._deliver(row, by_fp[fingerprint], on_result)
                outstanding.discard(fingerprint)
                found = True
            return found

        # Resume-from-parts: an interrupted sweep left durable rows behind;
        # serve them before spooling anything.
        collect()

        # A previous coordinator's crash may also have left stale leases.
        queue.reclaim_orphans()
        for fingerprint in sorted(outstanding):
            label, config = by_fp[fingerprint][0]
            queue.enqueue(label, config)

        procs = self._spawn_workers() if (self.workers and outstanding) else []
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
                    # exited): claim instead of just waiting.  A task leased
                    # by a worker that died comes back through reclaim.
                    task = queue.claim(self._worker_id)
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
                        _run_task(queue, task, self._worker_id, self.poll_interval_s)
                        progressed = True

                if progressed:
                    last_progress = time.monotonic()
                    continue
                queue.reclaim_orphans()
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
            for proc in procs:
                if proc.poll() is None:
                    # Drain-mode workers exit on their own once the spool is
                    # empty; an abnormal coordinator exit must not leave
                    # them running forever.
                    try:
                        proc.wait(timeout=2 * self.poll_interval_s + 5.0)
                    except subprocess.TimeoutExpired:
                        proc.terminate()
                        try:
                            proc.wait(timeout=5.0)
                        except subprocess.TimeoutExpired:
                            proc.kill()
        return max(1, len(procs))
