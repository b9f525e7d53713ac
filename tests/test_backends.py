"""Where a sweep's cells run: locally (serial, or a process pool with its
serial fallback), with streaming progress, and through the durable work
queue (lease atomicity, crash reclaim, resume-from-parts, serial-vs-queue
equality)."""

import json
import os
import subprocess
import sys
import threading
import time
import warnings

from concurrent.futures import BrokenExecutor

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.queue import QueueBackend, TaskQueue, run_worker
from repro.experiments.sweep import ResultCache, _run_cell, aggregate_rows, run_sweep
from repro.metrics.partial import PartialAggregator


def tiny_config(**overrides) -> ExperimentConfig:
    """A star-topology config that simulates in a few milliseconds."""
    base = ExperimentConfig(
        name="tiny",
        topology="star",
        num_hosts=4,
        workload="fixed",
        fixed_size_bytes=20_000,
        num_flows=6,
        max_sim_time_s=1.0,
    )
    return base.with_overrides(**overrides) if overrides else base


def tiny_cells(n=4):
    """n cells over two aggregation names (seed replicas of cell0/cell1)."""
    return {
        f"s{seed}": tiny_config(seed=seed, name=f"cell{seed % 2}")
        for seed in range(1, n + 1)
    }


def drop_first_manifest_line(monkeypatch):
    """Lose the first manifest append, as NFS can when two hosts append at
    once; returns the list that receives the dropped fingerprint."""
    original_append = TaskQueue._append_manifest
    dropped = []

    def drop_first(self, fingerprint):
        if not dropped:
            dropped.append(fingerprint)
            return
        original_append(self, fingerprint)

    monkeypatch.setattr(TaskQueue, "_append_manifest", drop_first)
    return dropped


class FakePool:
    """Stands in for ``ProcessPoolExecutor``: runs cells in this process and
    breaks, as a pool whose workers died would, after ``rows_before_break``
    rows (``None``: never)."""

    instances = []

    def __init__(self, max_workers, rows_before_break=None):
        self.max_workers = max_workers
        self.rows_before_break = rows_before_break
        FakePool.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        for index, item in enumerate(items):
            if index == self.rows_before_break:
                raise BrokenExecutor("a worker process died")
            yield fn(item)


class TestLocalExecution:
    @pytest.fixture
    def pool_class(self, monkeypatch):
        """Replace the pool ``run_sweep`` builds; returns a setter for the
        replacement (a callable taking ``max_workers``)."""
        FakePool.instances = []

        def use(factory):
            monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", factory)

        return use

    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_worker_or_fewer_builds_no_pool(self, pool_class, workers):
        pool_class(lambda max_workers: pytest.fail(f"built a pool for workers={workers}"))
        sweep = run_sweep(tiny_cells(2), workers=workers)
        assert sweep.workers_used == 1 and len(sweep) == 2

    def test_workers_none_sizes_the_pool_by_cpus_and_cells(self, pool_class, monkeypatch):
        pool_class(FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_sweep(tiny_cells(3), workers=None).workers_used == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert run_sweep(tiny_cells(3), workers=None).workers_used == 3
        assert [pool.max_workers for pool in FakePool.instances] == [2, 3]

    def test_an_execute_object_runs_only_the_uncached_cells(self, tmp_path):
        class Recording:
            def __init__(self):
                self.seen = []

            def execute(self, pending, on_result):
                for item in pending:
                    self.seen.append(item[0])
                    on_result(_run_cell(item))
                return 7

        cells = tiny_cells(3)
        cache = ResultCache(tmp_path / "cache")
        run_sweep({"s1": cells["s1"]}, workers=1, cache=cache)
        backend = Recording()
        sweep = run_sweep(cells, cache=cache, backend=backend)
        assert backend.seen == ["s2", "s3"]
        assert sweep.workers_used == 7
        assert (sweep.cache_hits, sweep.cache_misses) == (1, 2)
        assert sweep.rows == run_sweep(cells, workers=1).rows

    def test_pool_is_capped_at_the_uncached_cells(self, pool_class):
        pool_class(FakePool)
        sweep = run_sweep(tiny_cells(3), workers=8)
        assert [pool.max_workers for pool in FakePool.instances] == [3]
        assert sweep.workers_used == 3
        assert sweep.rows == run_sweep(tiny_cells(3), workers=1).rows

    def test_pool_that_cannot_start_falls_back_to_serial(self, pool_class):
        def no_fork(max_workers):
            raise OSError("fork denied")

        pool_class(no_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep = run_sweep(tiny_cells(3), workers=2)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1 and "fork denied" in str(runtime[0].message)
        assert sweep.workers_used == 1
        assert sweep.rows == run_sweep(tiny_cells(3), workers=1).rows

    def test_pool_breaking_midway_runs_the_rest_serially_once(
        self, pool_class, tmp_path, monkeypatch,
    ):
        pool_class(lambda max_workers: FakePool(max_workers, rows_before_break=1))
        cached = []
        original_put = ResultCache.put

        def counting_put(self, row):
            cached.append(row.label)
            original_put(self, row)

        monkeypatch.setattr(ResultCache, "put", counting_put)
        observed = []
        cells = tiny_cells(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep = run_sweep(
                cells, workers=2, cache=tmp_path / "cache",
                progress=lambda progress, row: observed.append(row.label),
            )
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
        assert sweep.workers_used == 1
        # The pool's one row was stored once; the other three ran serially.
        assert cached == observed == list(cells)
        assert sweep.rows == run_sweep(cells, workers=1).rows

    def test_a_backend_name_is_refused(self):
        with pytest.raises(TypeError, match="names are not accepted"):
            run_sweep({"only": tiny_config()}, backend="queue")


class TestSweepProgress:
    def test_streams_rows_and_partial_aggregates(self):
        events = []

        def observe(progress, row):
            events.append(
                (progress.completed, progress.total, row.label, progress.aggregate())
            )

        configs = tiny_cells(4)
        sweep = run_sweep(configs, workers=1, progress=observe)
        assert [event[0] for event in events] == [1, 2, 3, 4]
        assert all(event[1] == 4 for event in events)
        assert [event[2] for event in events] == list(configs)
        # Mid-sweep partial aggregates exist (and cover fewer replicas than
        # the final table), before the sweep finishes.
        mid = events[1][3]
        assert sum(record["replicas"] for record in mid) == 2
        final = events[-1][3]
        assert final == aggregate_rows(sweep.rows.values(), by=("name",))

    def test_cache_hits_count_toward_progress(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = tiny_cells(2)
        run_sweep(configs, workers=1, cache=cache)
        events = []
        again = run_sweep(
            configs, workers=1, cache=cache,
            progress=lambda p, r: events.append(p.completed),
        )
        # Everything served from cache: the observer never fires, but the
        # sweep still completes with all rows.
        assert events == []
        assert again.cache_hits == 2 and len(again) == 2


class TestPartialAggregator:
    def test_every_prefix_matches_batch_aggregation(self):
        rows = list(run_sweep(tiny_cells(4), workers=1).rows.values())
        partial = PartialAggregator(by=("name",))
        for i, row in enumerate(rows, start=1):
            partial.add(row)
            assert partial.snapshot() == aggregate_rows(rows[:i], by=("name",))

    def test_incremental_add_reports_updated_cell(self):
        rows = list(run_sweep(tiny_cells(2), workers=1).rows.values())
        partial = PartialAggregator(by=("name",))
        record = partial.add(rows[0])
        assert record["name"] == rows[0].name
        assert record["replicas"] == 1
        assert record["fct_p99_s"] == rows[0].fct_percentile(0.99)

    def test_unknown_by_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ResultRow field"):
            PartialAggregator(by=("nope",))


class TestTaskQueue:
    def test_lifecycle_task_to_lease_to_part(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        assert queue.enqueue("cell", config) is True
        assert queue.counts() == {"tasks": 1, "leases": 0, "parts": 0, "failed": 0}

        task = queue.claim("w1")
        assert task is not None
        assert task.label == "cell"
        assert task.config == config
        assert task.config.fingerprint() == config.fingerprint()
        assert queue.counts()["leases"] == 1 and queue.counts()["tasks"] == 0

        from repro.experiments.sweep import _run_cell

        row = _run_cell((task.label, task.config))
        queue.complete(task, row)
        assert queue.counts() == {"tasks": 0, "leases": 0, "parts": 1, "failed": 0}
        assert queue.part_row(config.fingerprint()) == row

    def test_enqueue_is_idempotent_across_states(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        assert queue.enqueue("cell", config) is True
        assert queue.enqueue("cell", config) is False  # already pending
        task = queue.claim("w1")
        assert queue.enqueue("cell", config) is False  # leased
        queue.complete(task, run_sweep({"cell": config}, workers=1)["cell"])
        assert queue.enqueue("cell", config) is False  # completed

    def test_task_file_is_the_config_wire_format(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config(seed=3)
        queue.enqueue("cell", config)
        payload = json.loads(queue.task_path(config.fingerprint()).read_text())
        assert payload["label"] == "cell"
        assert payload["fingerprint"] == config.fingerprint()
        rebuilt = ExperimentConfig.from_dict(payload["config"])
        assert rebuilt == config
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_task_from_an_older_version_names_the_mismatch(self, tmp_path):
        # A schema-1 task, as written before two config knobs were deleted,
        # still carries their keys.  It must fail on its schema version, not
        # on a bare TypeError about an unexpected keyword.  The key names
        # are spelled in pieces so the guard rail that keeps them out of
        # the tree (tests/test_guard_rails.py) does not match this fixture.
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        fingerprint = config.fingerprint()
        old_config = {
            **config.to_dict(),
            "port_batch" + "_bytes": None,
            "pacing" + "_quantum_us": 0.0,
        }
        queue.task_path(fingerprint).write_text(json.dumps(
            {"schema": 1, "fingerprint": fingerprint, "label": "cell", "config": old_config}
        ))
        assert queue.claim("w1") is None
        error = queue.failures()[fingerprint]
        assert "different repro versions" in error
        assert "unexpected keyword" not in error

    def test_task_with_the_records_switch_names_the_mismatch(self, tmp_path):
        # A schema-2 task still carries the deleted per-flow records switch
        # (spelled in pieces for the same guard rail as above).
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        fingerprint = config.fingerprint()
        old_config = {**config.to_dict(), "keep_flow" + "_records": True}
        queue.task_path(fingerprint).write_text(json.dumps(
            {"schema": 2, "fingerprint": fingerprint, "label": "cell", "config": old_config}
        ))
        assert queue.claim("w1") is None
        error = queue.failures()[fingerprint]
        assert "different repro versions" in error
        assert "unexpected keyword" not in error

    def test_concurrent_claims_never_duplicate(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        for seed in range(1, 9):
            queue.enqueue(f"s{seed}", tiny_config(seed=seed))

        claims = {}
        lock = threading.Lock()

        def drain(worker_id):
            mine = []
            while True:
                task = queue.claim(worker_id)
                if task is None:
                    break
                mine.append(task.fingerprint)
            with lock:
                claims[worker_id] = mine

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        all_claims = [fp for mine in claims.values() for fp in mine]
        # The atomic rename guarantees exactly-once claiming: no task is
        # claimed twice and none is lost.
        assert len(all_claims) == 8
        assert len(set(all_claims)) == 8
        assert queue.counts()["tasks"] == 0 and queue.counts()["leases"] == 8

    def test_crash_orphan_reclaim(self, tmp_path):
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("crashed-worker")
        assert task is not None
        # A fresh lease is not reclaimable...
        assert queue.reclaim_orphans() == []
        assert queue.claim("w2") is None
        # ...but once it exceeds the timeout (backdate the lease mtime, as a
        # worker dead for a minute would look), any participant requeues it.
        stale = time.time() - 120.0
        os.utime(queue.lease_path(config.fingerprint()), (stale, stale))
        assert queue.reclaim_orphans() == [config.fingerprint()]
        retry = queue.claim("w2")
        assert retry is not None and retry.label == "cell"

    def test_late_completion_after_reclaim_is_idempotent(self, tmp_path):
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        config = tiny_config()
        queue.enqueue("cell", config)
        slow = queue.claim("slow-worker")
        stale = time.time() - 120.0
        os.utime(queue.lease_path(config.fingerprint()), (stale, stale))
        queue.reclaim_orphans()
        # The presumed-dead worker finishes after all: its part lands fine.
        row = run_sweep({"cell": config}, workers=1)["cell"]
        queue.complete(slow, row)
        # The requeued duplicate task is retired on sight instead of re-run.
        assert queue.claim("w2") is None
        assert queue.counts()["tasks"] == 0
        assert queue.part_row(config.fingerprint()) == row

    def test_claiming_a_long_pending_task_yields_a_fresh_lease(self, tmp_path):
        # A task can sit in the pending spool longer than the lease timeout
        # (deep backlog, few workers).  Claiming it must refresh the mtime
        # the reclaim judges by -- a rename alone preserves the enqueue-time
        # mtime and would make the new lease instantly reclaim-eligible,
        # letting a polling coordinator snatch work out from under a live
        # worker.
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        config = tiny_config()
        queue.enqueue("cell", config)
        stale = time.time() - 3600.0
        os.utime(queue.task_path(config.fingerprint()), (stale, stale))
        task = queue.claim("w1")
        assert task is not None
        assert queue.reclaim_orphans() == []
        age = time.time() - queue.lease_path(config.fingerprint()).stat().st_mtime
        assert age < 5.0

    def test_release_returns_task_to_spool(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        queue.enqueue("cell", tiny_config())
        task = queue.claim("w1")
        queue.release(task)
        assert queue.counts()["tasks"] == 1 and queue.counts()["leases"] == 0
        assert queue.claim("w2") is not None

    def test_parts_are_code_aware(self, tmp_path, monkeypatch):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        queue.complete(task, run_sweep({"cell": config}, workers=1)["cell"])
        assert queue.part_row(config.fingerprint()) is not None
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        # A part written by a different simulator version reads as missing...
        assert queue.part_row(config.fingerprint()) is None
        # ...unless explicitly opted out (archived queue directories).
        assert queue.part_row(config.fingerprint(), code_aware=False) is not None

    def test_stale_part_does_not_pin_the_task_as_done(self, tmp_path, monkeypatch):
        # A part written by a *different source tree* must not leave the cell
        # in limbo (unreadable part + "already completed" task): enqueueing
        # deletes the stale part and respools, and claiming does not retire
        # the task against it.
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        queue.complete(queue.claim("w1"), run_sweep({"cell": config}, workers=1)["cell"])
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        assert queue.enqueue("cell", config) is True  # stale part cleared
        task = queue.claim("w2")
        assert task is not None  # not retired against the stale part
        row = run_sweep({"cell": config}, workers=1)["cell"]
        queue.complete(task, row)
        assert queue.part_row(config.fingerprint()) == row

    def test_sweep_resumes_past_stale_parts(self, tmp_path, monkeypatch):
        # End to end: interrupt a queue sweep, "edit the simulator" (new code
        # fingerprint), and the resumed sweep recomputes the stale cells
        # instead of hanging on never-readable parts.
        configs = tiny_cells(2)
        queue = TaskQueue(tmp_path / "q")
        for label, config in configs.items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True, max_tasks=1)
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        resumed = run_sweep(
            configs, backend=QueueBackend(tmp_path / "q", wait_timeout_s=60)
        )
        assert len(resumed) == 2
        assert resumed.rows == run_sweep(configs, workers=1).rows


class TestRunWorker:
    def test_drains_queue_and_writes_parts_and_cache(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        configs = tiny_cells(3)
        for label, config in configs.items():
            queue.enqueue(label, config)
        executed = run_worker(queue, drain=True)
        assert executed == 3
        assert queue.counts() == {"tasks": 0, "leases": 0, "parts": 3, "failed": 0}
        # The shared cache was written through: a plain cached sweep over the
        # same configs simulates nothing.
        again = run_sweep(configs, workers=1, cache=queue.default_cache())
        assert again.cache_hits == 3 and again.runs_executed == 0

    def test_max_tasks_interrupts_mid_queue(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        for label, config in tiny_cells(4).items():
            queue.enqueue(label, config)
        assert run_worker(queue, drain=True, max_tasks=2) == 2
        counts = queue.counts()
        assert counts["parts"] == 2 and counts["tasks"] == 2

    def test_failing_cell_becomes_marker_not_crash(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        bad = tiny_config(workload="none", num_flows=0)  # generates no flows
        queue.enqueue("bad", bad)
        queue.enqueue("good", tiny_config())
        executed = run_worker(queue, drain=True, worker_id="w1")
        assert executed == 1  # the good cell
        counts = queue.counts()
        assert counts["failed"] == 1 and counts["parts"] == 1
        failures = queue.failures()
        assert list(failures) == [bad.fingerprint()]
        assert "bad" in failures[bad.fingerprint()]

    def test_accepts_plain_directory_path(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        queue.enqueue("cell", tiny_config())
        assert run_worker(tmp_path / "q", drain=True) == 1

    def test_idle_polls_back_off_exponentially_with_jitter(self, tmp_path, monkeypatch):
        # An idle (non-drain) worker must not hammer the queue at a fixed
        # cadence: sleeps start at poll/16 and double toward the configured
        # interval, each jittered into [0.5, 1.0) of its nominal delay.
        queue = TaskQueue(tmp_path / "q")
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 8:
                raise KeyboardInterrupt

        monkeypatch.setattr("repro.experiments.queue.time.sleep", fake_sleep)
        with pytest.raises(KeyboardInterrupt):
            run_worker(queue, poll_interval_s=0.8)
        floor = 0.8 / 16
        for attempt, observed in enumerate(sleeps):
            nominal = min(0.8, floor * 2 ** attempt)
            assert 0.5 * nominal <= observed < nominal
        assert sleeps[-1] > sleeps[0]
        assert max(sleeps) < 0.8  # jitter keeps every sleep under the cap


class TestQueueBackend:
    def test_queue_directory_is_required(self):
        with pytest.raises(TypeError, match="queue_dir"):
            QueueBackend()

    def test_inline_queue_matches_serial_exactly(self, tmp_path):
        configs = tiny_cells(4)
        serial = run_sweep(configs, workers=1)
        queued = run_sweep(
            configs,
            backend=QueueBackend(tmp_path / "q", wait_timeout_s=60),
        )
        # Bit-identical rows, labels, and pooled aggregates.
        assert queued.rows == serial.rows
        assert queued.labels() == serial.labels()
        assert aggregate_rows(queued.rows.values(), by=("name",)) == aggregate_rows(
            serial.rows.values(), by=("name",)
        )

    def test_interrupted_sweep_resumes_from_parts(self, tmp_path):
        configs = tiny_cells(4)
        serial = run_sweep(configs, workers=1)

        # Spool everything, then "kill" the sweep after two cells: a drain
        # worker executes two tasks and stops, leaving two durable parts.
        queue = TaskQueue(tmp_path / "q")
        for label, config in configs.items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True, max_tasks=2)
        assert queue.counts()["parts"] == 2

        executed = []
        resumed = run_sweep(
            configs,
            backend=QueueBackend(tmp_path / "q", wait_timeout_s=60),
            progress=lambda p, r: executed.append(r.label),
        )
        # Every cell reported (the two pre-existing parts are re-served
        # through the same progress stream), rows identical to serial...
        assert sorted(executed) == sorted(configs)
        assert resumed.rows == serial.rows
        # ...and only the two missing cells were actually simulated.
        assert queue.counts()["parts"] == 4
        assert aggregate_rows(resumed.rows.values(), by=("name",)) == aggregate_rows(
            serial.rows.values(), by=("name",)
        )

    def test_streams_partial_aggregates_before_completion(self, tmp_path):
        snapshots = []
        run_sweep(
            tiny_cells(4),
            backend=QueueBackend(tmp_path / "q", wait_timeout_s=60),
            progress=lambda p, r: snapshots.append((p.completed, p.aggregate())),
        )
        assert [completed for completed, _ in snapshots] == [1, 2, 3, 4]
        # Partial aggregates exist strictly before the sweep finished.
        mid_completed, mid_agg = snapshots[1]
        assert mid_completed == 2
        assert sum(record["replicas"] for record in mid_agg) == 2

    def test_fingerprint_identical_cells_share_one_part(self, tmp_path):
        # Two labels whose configs differ only in name (not fingerprint):
        # one task runs, both rows are delivered with rebound identities.
        configs = {
            "a": tiny_config(name="scenario-a|cell"),
            "b": tiny_config(name="scenario-b|cell"),
        }
        assert configs["a"].fingerprint() == configs["b"].fingerprint()
        queue = TaskQueue(tmp_path / "q")
        sweep = run_sweep(configs, backend=QueueBackend(tmp_path / "q", wait_timeout_s=60))
        assert queue.counts()["parts"] == 1
        assert sweep["a"].name == "scenario-a|cell"
        assert sweep["b"].name == "scenario-b|cell"
        assert sweep["a"].label == "a" and sweep["b"].label == "b"

    def test_failure_marker_from_external_worker_raises(self, tmp_path, monkeypatch):
        # Model a *remote* worker failing the cell mid-sweep: the claim
        # "succeeds elsewhere" and only a failure marker appears, so the
        # coordinator must error out instead of waiting forever.
        configs = {"cell": tiny_config()}
        backend = QueueBackend(tmp_path / "q", wait_timeout_s=60)
        original_claim = TaskQueue.claim

        def claim_then_fail(self, worker_id):
            task = original_claim(self, worker_id)
            if task is not None:
                self.fail(task, RuntimeError("boom"), worker_id="other-machine")
                return None
            return task

        monkeypatch.setattr(TaskQueue, "claim", claim_then_fail)
        with pytest.raises(RuntimeError, match="queue task"):
            run_sweep(configs, backend=backend)

    def test_worker_dying_before_the_manifest_line(self, tmp_path, monkeypatch):
        # A remote worker wins the claim, writes the part and dies before it
        # appends the manifest line: its lease goes silent.  Reclaim requeues
        # the task, the coordinator's claim retires it on sight and appends
        # the line, and the row arrives through that line -- simulated once.
        import repro.experiments.runner as runner_mod

        config = tiny_config()
        fingerprint = config.fingerprint()
        simulated = []
        original_run = runner_mod.run_experiment

        def counting_run(cfg):
            simulated.append(cfg.fingerprint())
            return original_run(cfg)

        original_claim = TaskQueue.claim

        def claim_write_part_and_die(self, worker_id):
            task = original_claim(self, worker_id)
            if task is not None and not simulated:
                self.parts.put(_run_cell((task.label, task.config)))
                stale = time.time() - 120.0
                os.utime(task.lease_path, (stale, stale))
                return None
            return task

        monkeypatch.setattr(runner_mod, "run_experiment", counting_run)
        monkeypatch.setattr(TaskQueue, "claim", claim_write_part_and_die)
        sweep = run_sweep(
            {"cell": config},
            backend=QueueBackend(
                tmp_path / "q", workers=0, lease_timeout_s=60, wait_timeout_s=5,
            ),
        )
        queue = TaskQueue(tmp_path / "q")
        assert simulated == [fingerprint]
        assert sweep["cell"] == queue.part_row(fingerprint)
        assert queue.manifest_path.read_text().splitlines() == [fingerprint]
        assert queue.counts() == {"tasks": 0, "leases": 0, "parts": 1, "failed": 0}

    def test_coordinator_claims_once_every_worker_has_exited(self, tmp_path, monkeypatch):
        # Local workers that die before draining anything leave the
        # coordinator as the only claimer: it runs the cells, warning once.
        configs = tiny_cells(2)

        def spawn_dead_worker(self):
            proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
            proc.wait()
            return [proc]

        monkeypatch.setattr(QueueBackend, "_spawn_workers", spawn_dead_worker)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            queued = run_sweep(
                configs,
                backend=QueueBackend(tmp_path / "q", workers=2, wait_timeout_s=60),
            )
        assert queued.rows == run_sweep(configs, workers=1).rows
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "[3]" in str(runtime[0].message)

    def test_torn_task_file_fails_the_sweep(self, tmp_path):
        config = tiny_config()
        queue = TaskQueue(tmp_path / "q")
        queue.task_path(config.fingerprint()).write_text('{"schema": 1, "fingerpr')
        started = time.monotonic()
        with pytest.raises(
            RuntimeError, match=r"queue task\(s\) failed.*unreadable task file"
        ):
            run_sweep({"cell": config}, backend=QueueBackend(tmp_path / "q", wait_timeout_s=5))
        assert time.monotonic() - started < 5

    def test_lost_manifest_line_is_read_once_drained(self, tmp_path, monkeypatch):
        # NFS can lose an append from one host to another's: the first
        # part's line never lands.  Once the spool drains, the coordinator
        # reads the part it still awaits directly.
        configs = tiny_cells(2)
        dropped = drop_first_manifest_line(monkeypatch)
        queued =run_sweep(configs, backend=QueueBackend(tmp_path / "q", wait_timeout_s=5))
        assert queued.rows == run_sweep(configs, workers=1).rows
        lines = TaskQueue(tmp_path / "q").manifest_path.read_text().splitlines()
        assert len(lines) == 1 and dropped[0] not in lines

    def test_part_unreadable_when_announced_is_read_again(self, tmp_path, monkeypatch):
        # An NFS client can cache a part as missing and keep answering so
        # when its line arrives: the coordinator must not give up on it.
        configs = tiny_cells(2)
        original_part_row = TaskQueue.part_row
        hidden = set()

        def missing_on_first_read(self, fingerprint, code_aware=True):
            if self.part_path(fingerprint).exists() and fingerprint not in hidden:
                hidden.add(fingerprint)
                return None
            return original_part_row(self, fingerprint, code_aware)

        monkeypatch.setattr(TaskQueue, "part_row", missing_on_first_read)
        queued = run_sweep(configs, backend=QueueBackend(tmp_path / "q", wait_timeout_s=5))
        assert queued.rows == run_sweep(configs, workers=1).rows
        assert hidden == {config.fingerprint() for config in configs.values()}

    def test_inline_cell_error_propagates(self, tmp_path):
        bad = {"bad": tiny_config(workload="none", num_flows=0)}
        with pytest.raises(ValueError, match="no flows"):
            run_sweep(bad, backend=QueueBackend(tmp_path / "q", wait_timeout_s=60))

    def test_uses_shared_cache_before_simulating(self, tmp_path):
        queue_dir = tmp_path / "q"
        configs = tiny_cells(2)
        # Warm the queue's default cache directly.
        warm = run_sweep(configs, workers=1, cache=ResultCache(queue_dir / "cache"))
        backend = QueueBackend(queue_dir, wait_timeout_s=60)

        def boom(config):
            raise AssertionError(f"run_experiment called for {config.name}")

        import repro.experiments.runner as runner_mod

        original = runner_mod.run_experiment
        runner_mod.run_experiment = boom
        try:
            served = run_sweep(configs, backend=backend)
        finally:
            runner_mod.run_experiment = original
        assert served.rows == warm.rows


class TestQueueBackendSubprocessWorkers:
    """End-to-end: real `python -m repro worker` processes drain the queue."""

    def test_two_workers_drain_one_queue(self, tmp_path):
        configs = tiny_cells(4)
        serial = run_sweep(configs, workers=1)
        events = []
        queued = run_sweep(
            configs,
            backend=QueueBackend(
                tmp_path / "q", workers=2, poll_interval_s=0.05, wait_timeout_s=300,
            ),
            progress=lambda p, r: events.append(p.completed),
        )
        assert queued.workers_used == 2
        assert queued.rows == serial.rows
        assert events == [1, 2, 3, 4]
        assert aggregate_rows(queued.rows.values(), by=("name",)) == aggregate_rows(
            serial.rows.values(), by=("name",)
        )
        # The workers logged their drains.
        logs = sorted((tmp_path / "q" / "logs").glob("worker-*.log"))
        assert len(logs) == 2


class TestWorkerCli:
    def test_worker_subcommand_drains(self, tmp_path, capsys):
        from repro.__main__ import main

        queue = TaskQueue(tmp_path / "q")
        for label, config in tiny_cells(2).items():
            queue.enqueue(label, config)
        rc = main(["worker", str(tmp_path / "q"), "--drain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 cell(s) executed" in out
        assert queue.counts()["parts"] == 2

    def test_run_with_queue_backend_and_follow(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "run", "fig1", "--quick", "--flows", "12", "--no-cache",
            "--queue-dir", str(tmp_path / "q"), "--follow",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"queue at {tmp_path / 'q'}" in out
        assert "[1/2]" in out and "[2/2]" in out  # streamed partials
        assert "replicas=1" in out

    def test_quick_conflicts_with_seeds(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["run", "fig1", "--quick", "--seeds", "3"])

    @pytest.mark.parametrize("flag, value", [
        ("--poll", "0"),            # an idle worker would spin
        ("--poll", "-1"),           # time.sleep() of a negative length
        ("--lease-timeout", "0"),   # TaskQueue refuses it with a traceback
    ])
    def test_worker_timing_flags_must_be_positive(self, tmp_path, capsys, flag, value):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["worker", str(tmp_path / "q"), "--drain", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"error: argument {flag}: must be a positive number of seconds, got {value}"
        )


class TestHeartbeats:
    def test_fresh_heartbeat_blocks_reclaim_of_an_old_lease(self, tmp_path):
        # A worker stuck in one very slow cell keeps heartbeating even though
        # its lease mtime is ancient: the lease must never be stolen while
        # the heartbeat is fresh, however old the lease itself looks.
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("slow-worker")
        stale = time.time() - 3600.0
        os.utime(queue.lease_path(config.fingerprint()), (stale, stale))
        queue.heartbeat(task)
        assert queue.reclaim_orphans() == []
        # Only once the heartbeat too has gone silent is the worker presumed
        # dead and the task requeued (and its heartbeat file cleared).
        os.utime(queue.heartbeat_path(config.fingerprint()), (stale, stale))
        assert queue.reclaim_orphans() == [config.fingerprint()]
        assert not queue.heartbeat_path(config.fingerprint()).exists()
        assert queue.claim("w2") is not None

    def test_complete_clears_the_heartbeat(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        queue.heartbeat(task)
        assert queue.heartbeat_path(config.fingerprint()).exists()
        queue.complete(task, run_sweep({"cell": config}, workers=1)["cell"])
        assert not queue.heartbeat_path(config.fingerprint()).exists()

    def test_heartbeating_context_keeps_touching_the_file(self, tmp_path):
        from repro.experiments.queue import _heartbeating

        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        heartbeat = queue.heartbeat_path(task.fingerprint)
        with _heartbeating(queue, task, 0.05):
            first = heartbeat.stat().st_mtime
            deadline = time.time() + 5.0
            while heartbeat.stat().st_mtime == first and time.time() < deadline:
                time.sleep(0.02)
            assert heartbeat.stat().st_mtime > first

    def test_drained_worker_leaves_no_heartbeat_files(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        for label, config in tiny_cells(2).items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True)
        assert list(queue.leases_dir.glob("*.hb")) == []


class TestPartsManifest:
    def _completed(self, queue, n):
        fingerprints = []
        for label, config in tiny_cells(n).items():
            queue.enqueue(label, config)
        while True:
            task = queue.claim("w1")
            if task is None:
                break
            from repro.experiments.sweep import _run_cell

            queue.complete(task, _run_cell((task.label, task.config)))
            fingerprints.append(task.fingerprint)
        return fingerprints

    def test_complete_appends_to_the_manifest(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        fingerprints = self._completed(queue, 3)
        assert queue.manifest_path.read_text().splitlines() == fingerprints

    def test_tail_reads_manifest_increments(self, tmp_path):
        from repro.experiments.queue import PartsTail

        queue = TaskQueue(tmp_path / "q")
        first_two = self._completed(queue, 2)
        tail = PartsTail(queue)
        assert sorted(tail.poll()) == sorted(first_two)
        assert tail.poll() == []
        third = self._completed(queue, 3)[-1]
        assert tail.poll() == [third]
        assert tail.poll() == []

    def test_failed_append_keeps_the_lease(self, tmp_path, monkeypatch):
        # A full disk or a read-only spool: the part cannot be announced, so
        # complete() must raise before it drops the lease, which then stays
        # reclaimable (test_worker_dying_before_the_manifest_line takes it
        # from there).
        import errno

        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        row = run_sweep({"cell": config}, workers=1)["cell"]

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.experiments.queue.os.fsync", no_space)
        with pytest.raises(OSError):
            queue.complete(task, row)
        assert queue.lease_path(config.fingerprint()).exists()

    def test_failed_append_in_claim_leaves_the_task(self, tmp_path, monkeypatch):
        # claim() announces a part it retires on sight; if that append
        # fails, the task stays pending and the claim moves on to the next.
        import errno

        queue = TaskQueue(tmp_path / "q")
        cells = sorted(tiny_cells(2).items(), key=lambda cell: cell[1].fingerprint())
        for label, config in cells:
            queue.enqueue(label, config)
        retirable, pending = (config.fingerprint() for _, config in cells)
        queue.parts.put(_run_cell(cells[0]))

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.experiments.queue.os.fsync", no_space)
        task = queue.claim("w1")
        assert task is not None and task.fingerprint == pending
        assert queue.task_path(retirable).exists()
        monkeypatch.undo()
        assert queue.claim("w2") is None
        assert not queue.task_path(retirable).exists()
        assert queue.manifest_path.read_text().splitlines()[-1] == retirable

    def test_line_glued_to_a_failed_append_is_read(self, tmp_path):
        # A failed append can leave a fragment without its newline; the
        # next worker's line lands glued onto it.
        from repro.experiments.queue import PartsTail

        queue = TaskQueue(tmp_path / "q")
        tail = PartsTail(queue)
        (first,) = self._completed(queue, 1)
        with open(queue.manifest_path, "a") as handle:
            handle.write("0123456789abcdef" * 2)
        (second,) = self._completed(queue, 2)
        assert tail.poll() == [first, second]

    def test_manifest_ignores_a_torn_trailing_line(self, tmp_path):
        from repro.experiments.queue import PartsTail

        queue = TaskQueue(tmp_path / "q")
        (fingerprint,) = self._completed(queue, 1)
        tail = PartsTail(queue)
        assert tail.poll() == [fingerprint]
        # A crashed writer can leave a newline-less fragment: the tail must
        # not surface it until the line is completed.
        with open(queue.manifest_path, "a") as handle:
            handle.write("abcdef0123")
        assert tail.poll() == []
        with open(queue.manifest_path, "a") as handle:
            handle.write("456789\n")
        polled = tail.poll()
        assert polled == [] or polled == ["abcdef0123456789"]

    def test_duplicated_manifest_line_is_reported_once(self, tmp_path, monkeypatch):
        # The tail reports every line; its two consumers de-duplicate.  The
        # coordinator: one on_result per label, with every line doubled.
        original_append = TaskQueue._append_manifest

        def append_twice(self, fingerprint):
            original_append(self, fingerprint)
            original_append(self, fingerprint)

        monkeypatch.setattr(TaskQueue, "_append_manifest", append_twice)
        cells = [
            ("a", tiny_config(name="scenario-a|cell")),
            ("b", tiny_config(name="scenario-b|cell")),
            ("c", tiny_config(seed=2)),
        ]
        delivered = []
        QueueBackend(tmp_path / "q", wait_timeout_s=60).execute(cells, delivered.append)
        assert sorted(row.label for row in delivered) == ["a", "b", "c"]
        queue = TaskQueue(tmp_path / "q")
        assert len(queue.manifest_path.read_text().splitlines()) == 4

        # The follow stream: one update per part, then done.
        events, fingerprints = self._follow(tmp_path / "f", timeout_s=60)
        updates = [payload["fingerprint"] for event, payload in events if event == "update"]
        assert sorted(updates) == fingerprints
        assert len(TaskQueue(tmp_path / "f").manifest_path.read_text().splitlines()) == 4
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 2

    def _follow(self, directory, **follow_kwargs):
        """Drain two seed replicas of a tiny scenario through a queue at
        ``directory``, then follow it: ``(events, sorted fingerprints)``."""
        from repro.experiments.spec import ScenarioSpec
        from repro.serve import ResultsService
        from repro.serve.streams import follow_scenario

        spec = ScenarioSpec(
            name="two_replicas",
            description="two seed replicas of one tiny cell",
            defaults={"topology": "star", "num_hosts": 4, "workload": "fixed",
                      "fixed_size_bytes": 800, "num_flows": 6, "max_sim_time_s": 1.0},
            variants={"A": {"name": "dup-a"}},
            seeds=(1, 2),
        )
        replicas = spec.replicated()
        queue = TaskQueue(directory)
        for label, config in replicas.items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True)
        service = ResultsService(str(directory / "cache"), queue_dir=str(directory))
        events = list(follow_scenario(service, spec, poll_interval_s=0.01, **follow_kwargs))
        return events, sorted(config.fingerprint() for config in replicas.values())

    def test_follow_reads_a_part_unreadable_when_announced_again(self, tmp_path, monkeypatch):
        original_part_row = TaskQueue.part_row
        hidden = set()

        def missing_on_first_read(self, fingerprint, code_aware=True):
            if self.part_path(fingerprint).exists() and fingerprint not in hidden:
                hidden.add(fingerprint)
                return None
            return original_part_row(self, fingerprint, code_aware)

        monkeypatch.setattr(TaskQueue, "part_row", missing_on_first_read)
        events, fingerprints = self._follow(tmp_path / "f", timeout_s=60)
        assert sorted(hidden) == fingerprints
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 2

    def test_follow_with_expect_times_out_on_a_lost_line(self, tmp_path, monkeypatch):
        # The stream cannot know a lost line's fingerprint; with ``expect``
        # it reports a timeout rather than a short done.
        drop_first_manifest_line(monkeypatch)
        events, _ =self._follow(tmp_path / "f", expect=2, timeout_s=0.5)
        assert events[-1][0] == "timeout" and events[-1][1]["completed"] == 1


class TestSpoolNamesAreFingerprints:
    """Names read back from the queue directory -- manifest lines and file
    stems that any host sharing it can write -- never reach a path unless
    they are config fingerprints."""

    #: A manifest line that would resolve to ``<queue>/../outside.json``.
    TRAVERSAL = "../../outside"

    @pytest.mark.parametrize("name", [TRAVERSAL, "A" * 64, "ab" * 31, "", "x/y"])
    def test_path_helpers_refuse_anything_else(self, tmp_path, name):
        queue = TaskQueue(tmp_path / "q")
        for helper in (
            queue.task_path, queue.lease_path, queue.part_path,
            queue.failed_path, queue.heartbeat_path,
        ):
            with pytest.raises(ValueError, match="not a config fingerprint"):
                helper(name)

    def test_part_row_does_not_follow_a_traversal_name(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        queue.complete(task, run_sweep({"cell": config}, workers=1)["cell"])
        # A perfectly valid part envelope, but outside the queue directory.
        outside = tmp_path / "outside.json"
        outside.write_text(queue.part_path(task.fingerprint).read_text())
        assert (queue.parts_dir / f"{self.TRAVERSAL}.json").resolve() == outside
        assert queue.part_row(self.TRAVERSAL) is None
        assert queue.part_row(task.fingerprint) is not None

    def test_tail_skips_foreign_manifest_lines_and_files(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.experiments.queue import PartsTail

        queue = TaskQueue(tmp_path / "q")
        real = "0123456789abcdef" * 4
        with open(queue.manifest_path, "a") as handle:
            handle.write(f"{self.TRAVERSAL}\n")      # traversal
            handle.write(f"{real.upper()}\n")        # upper-case hex
            handle.write(f"{real}\n")
            handle.write(real[:40])                  # truncated trailing line
        (queue.parts_dir / "README.json").write_text("{}")
        # The tail opens the manifest and nothing else, and lists no
        # directory: a stray file in parts/ is never read.
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr("repro.experiments.queue.open", recording_open, raising=False)
        monkeypatch.setattr(Path, "glob", lambda self, pattern: pytest.fail(f"listed {self}"))
        tail = PartsTail(queue)
        assert tail.poll() == [real]
        assert tail.poll() == []
        assert set(opened) == {queue.manifest_path}

    def test_claim_and_reclaim_skip_foreign_files(self, tmp_path):
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        (queue.tasks_dir / "notes.json").write_text("{}")
        stray = queue.leases_dir / "notes.json"
        stray.write_text("{}")
        stale = time.time() - 3600.0
        os.utime(stray, (stale, stale))
        assert queue.claim("w1") is None
        assert queue.reclaim_orphans() == []
        assert stray.exists()

    def test_task_file_naming_another_fingerprint_is_a_failure(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        path = queue.task_path(config.fingerprint())
        payload = json.loads(path.read_text())
        payload["fingerprint"] = self.TRAVERSAL
        path.write_text(json.dumps(payload))
        assert queue.claim("w1") is None
        assert "another fingerprint" in queue.failures()[config.fingerprint()]
