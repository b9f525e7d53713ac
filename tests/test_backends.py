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

    def test_claim_retires_a_done_task_and_leases_the_next(self, tmp_path):
        # A pending task whose part is already on disk (its worker finished
        # after a reclaim, or died before dropping its lease) is retired on
        # sight, and the same claim() leases the next task instead.
        done, todo = sorted(
            (tiny_config(seed=seed) for seed in (1, 2)), key=lambda c: c.fingerprint(),
        )
        queue = TaskQueue(tmp_path / "q")
        queue.enqueue("done", done)
        queue.enqueue("todo", todo)
        queue.parts.put(_run_cell(("done", done)))
        task = queue.claim("w1")
        assert task is not None and task.fingerprint == todo.fingerprint()
        assert not queue.task_path(done.fingerprint()).exists()
        assert not queue.lease_path(done.fingerprint()).exists()
        assert queue.counts() == {"tasks": 0, "leases": 1, "parts": 1, "failed": 0}

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
    def test_drains_queue_and_writes_each_part_once(self, tmp_path, monkeypatch):
        queue = TaskQueue(tmp_path / "q")
        configs = tiny_cells(3)
        for label, config in configs.items():
            queue.enqueue(label, config)
        writes = []
        put = ResultCache.put

        def counting_put(cache, row):
            writes.append((cache.directory, row.fingerprint))
            put(cache, row)

        monkeypatch.setattr(ResultCache, "put", counting_put)
        executed = run_worker(queue, drain=True)
        assert executed == 3
        assert queue.counts() == {"tasks": 0, "leases": 0, "parts": 3, "failed": 0}
        # One write per finished cell, into parts/ and nowhere else.
        assert sorted(writes) == sorted(
            (queue.parts_dir, config.fingerprint()) for config in configs.values()
        )
        assert sorted(path.name for path in queue.directory.iterdir()) == [
            "failed", "leases", "parts", "tasks",
        ]
        # parts/ is a sweep cache: a plain sweep reading it simulates nothing.
        again = run_sweep(configs, workers=1, cache=queue.parts)
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
        assert list(queued.rows) == list(serial.rows)
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

    def test_worker_dying_after_its_part_before_dropping_its_lease(self, tmp_path, monkeypatch):
        # A remote worker wins the claim, writes the part and dies before it
        # drops its lease: the lease goes silent.  Reclaim requeues the
        # task, the coordinator delivers the row from the listed part, and
        # the next claim retires the task on sight -- simulated once.
        import repro.experiments.runner as runner_mod

        config = tiny_config()
        fingerprint = config.fingerprint()
        simulated = []
        original_run = runner_mod.run_experiment

        def counting_run(cfg):
            simulated.append(cfg.fingerprint())
            return original_run(cfg)

        original_claim = TaskQueue.claim
        reclaimed = []
        original_reclaim = TaskQueue.reclaim_orphans

        def claim_write_part_and_die(self, worker_id):
            task = original_claim(self, worker_id)
            if task is not None and not simulated:
                self.parts.put(_run_cell((task.label, task.config)))
                stale = time.time() - 120.0
                os.utime(task.lease_path, (stale, stale))
                return None
            return task

        def recording_reclaim(self, now=None):
            found = original_reclaim(self, now)
            reclaimed.extend(found)
            return found

        monkeypatch.setattr(runner_mod, "run_experiment", counting_run)
        monkeypatch.setattr(TaskQueue, "claim", claim_write_part_and_die)
        monkeypatch.setattr(TaskQueue, "reclaim_orphans", recording_reclaim)
        sweep = run_sweep(
            {"cell": config},
            backend=QueueBackend(
                tmp_path / "q", workers=0, lease_timeout_s=60, wait_timeout_s=5,
            ),
        )
        queue = TaskQueue(tmp_path / "q")
        assert reclaimed == [fingerprint]
        assert sweep["cell"] == queue.part_row(fingerprint)
        assert queue.claim("w2") is None
        assert simulated == [fingerprint]
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

    def test_part_is_delivered_while_another_lease_is_held(self, tmp_path, monkeypatch):
        # Two remote workers hold both leases.  One writes its part and has
        # not dropped its lease yet; the coordinator delivers that row at
        # its next poll, while the other lease is still held -- it does not
        # wait for the spool to drain.
        cells = sorted(tiny_cells(2).items(), key=lambda cell: cell[1].fingerprint())
        (label_a, config_a), (label_b, config_b) = cells
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=600)
        for label, config in cells:
            queue.enqueue(label, config)
        task_a, task_b = queue.claim("remote-a"), queue.claim("remote-b")
        assert (task_a.fingerprint, task_b.fingerprint) == (
            config_a.fingerprint(), config_b.fingerprint(),
        )
        real_sleep = time.sleep

        def remote_a_writes_its_part(seconds):
            if not queue.parts.fingerprints():
                queue.parts.put(_run_cell((label_a, config_a)))
            real_sleep(seconds)

        delivered = []

        def on_result(row):
            delivered.append((row.label, queue.lease_path(task_b.fingerprint).exists()))
            if row.label == label_a:
                queue.complete(task_b, _run_cell((label_b, config_b)))

        monkeypatch.setattr("repro.experiments.queue.time.sleep", remote_a_writes_its_part)
        backend = QueueBackend(
            tmp_path / "q", poll_interval_s=0.01, lease_timeout_s=600, wait_timeout_s=5,
        )
        backend.execute(cells, on_result)
        assert delivered == [(label_a, True), (label_b, False)]

    def test_part_unreadable_when_announced_is_read_again(self, tmp_path, monkeypatch):
        # An NFS client can cache a part as missing and keep answering so
        # once the part is listed: the coordinator must not give up on it.
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
        # Warm the queue's parts directly: they are a sweep cache.
        warm = run_sweep(configs, workers=1, cache=TaskQueue(queue_dir).parts)
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
            "run", "fig1", "--seeds", "1", "--set", "num_flows=12",
            "--queue-dir", str(tmp_path / "q"), "--follow",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"queue at {tmp_path / 'q'}" in out
        assert "[1/2]" in out and "[2/2]" in out  # streamed partials
        assert "replicas=1" in out

    @pytest.mark.parametrize("argv", [
        ["--quick"],             # is --seeds 1
        ["--flows", "12"],       # is --set num_flows=12
        ["--no-cache"],          # is leaving out --cache
    ])
    def test_run_options_have_one_spelling(self, capsys, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["run", "fig1", *argv])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
    """The lease is its own heartbeat: a beat refreshes the lease's mtime."""

    def test_fresh_heartbeat_blocks_reclaim_of_an_old_lease(self, tmp_path):
        # A worker stuck in one very slow cell keeps heartbeating: the beat
        # refreshes the lease's mtime, so the lease is never stolen while
        # its worker beats, however long ago it was claimed.
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=60.0)
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("slow-worker")
        lease = queue.lease_path(config.fingerprint())
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))
        queue.heartbeat(task)
        assert time.time() - lease.stat().st_mtime < 5.0
        assert queue.reclaim_orphans() == []
        # Only once the beats have gone silent is the worker presumed dead
        # and the task requeued.
        os.utime(lease, (stale, stale))
        assert queue.reclaim_orphans() == [config.fingerprint()]
        assert queue.claim("w2") is not None

    def test_complete_clears_the_heartbeat(self, tmp_path):
        # A beat after the lease is gone creates no file.
        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        queue.complete(task, run_sweep({"cell": config}, workers=1)["cell"])
        queue.heartbeat(config.fingerprint())
        assert list(queue.leases_dir.iterdir()) == []

    def test_heartbeating_context_keeps_touching_the_file(self, tmp_path):
        from repro.experiments.queue import _heartbeating

        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        lease = queue.lease_path(task.fingerprint)
        with _heartbeating(queue, task, 0.05):
            first = lease.stat().st_mtime
            deadline = time.time() + 5.0
            while lease.stat().st_mtime == first and time.time() < deadline:
                time.sleep(0.02)
            assert lease.stat().st_mtime > first

    def test_drained_worker_leaves_no_heartbeat_files(self, tmp_path):
        queue = TaskQueue(tmp_path / "q")
        for label, config in tiny_cells(2).items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True)
        assert list(queue.leases_dir.iterdir()) == []
        assert not (queue.directory / "cache").exists()


class TestSkewedClocks:
    """Reclaim reads one clock, the filesystem's: a host whose own clock is
    off by two lease timeouts neither steals a live lease nor loses its own."""

    TIMEOUT_S = 60.0

    def skew(self, monkeypatch, seconds):
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + seconds)

    def test_a_clock_ahead_does_not_reclaim_a_live_lease(self, tmp_path, monkeypatch):
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=self.TIMEOUT_S)
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("live-worker")
        queue.heartbeat(task)
        with monkeypatch.context() as patched:
            self.skew(patched, 2 * self.TIMEOUT_S)
            assert queue.reclaim_orphans() == []
        assert queue.lease_path(config.fingerprint()).exists()

    def test_a_worker_with_a_clock_behind_keeps_its_lease(self, tmp_path, monkeypatch):
        queue = TaskQueue(tmp_path / "q", lease_timeout_s=self.TIMEOUT_S)
        config = tiny_config()
        queue.enqueue("cell", config)
        lease = queue.lease_path(config.fingerprint())
        with monkeypatch.context() as patched:
            self.skew(patched, -2 * self.TIMEOUT_S)
            task = queue.claim("slow-clock-worker")
        # Its cell has run for two timeouts since the claim...
        claimed = time.time() - 2 * self.TIMEOUT_S
        os.utime(lease, (claimed, claimed))
        # ...and it has beaten all along, by its own clock.
        with monkeypatch.context() as patched:
            self.skew(patched, -2 * self.TIMEOUT_S)
            queue.heartbeat(task)
        assert queue.reclaim_orphans() == []
        assert lease.exists()


def two_replica_spec():
    """Two seed replicas of one tiny cell, as a scenario to follow."""
    from repro.experiments.spec import ScenarioSpec

    return ScenarioSpec(
        name="two_replicas",
        description="two seed replicas of one tiny cell",
        defaults={"topology": "star", "num_hosts": 4, "workload": "fixed",
                  "fixed_size_bytes": 800, "num_flows": 6, "max_sim_time_s": 1.0},
        variants={"A": {"name": "dup-a"}},
        seeds=(1, 2),
    )


def follow_stream(directory, spec, **follow_kwargs):
    """The follow stream of ``spec`` over the queue at ``directory``."""
    from repro.serve import ResultsService
    from repro.serve.streams import follow_scenario

    service = ResultsService(str(directory / "parts"), queue_dir=str(directory))
    return follow_scenario(service, spec, poll_interval_s=0.01, **follow_kwargs)


class TestPartFiles:
    """The part file on disk is the completion signal: both pollers (the
    coordinator and the follow stream) find parts by listing ``parts/``."""

    def _follow(self, directory, **follow_kwargs):
        """Drain two seed replicas of a tiny scenario through a queue at
        ``directory``, then follow it: ``(events, sorted fingerprints)``."""
        spec = two_replica_spec()
        replicas = spec.replicated()
        queue = TaskQueue(directory)
        for label, config in replicas.items():
            queue.enqueue(label, config)
        run_worker(queue, drain=True)
        events = list(follow_stream(directory, spec, **follow_kwargs))
        return events, sorted(config.fingerprint() for config in replicas.values())

    def test_failed_part_write_keeps_the_lease(self, tmp_path, monkeypatch):
        # A full disk or a read-only spool: the part cannot be written, so
        # complete() must raise before it drops the lease, which then stays
        # reclaimable.
        import errno

        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        row = run_sweep({"cell": config}, workers=1)["cell"]

        def no_space(path, payload):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.experiments.sweep._write_json_atomic", no_space)
        with pytest.raises(OSError, match="No space left"):
            queue.complete(task, row)
        assert queue.lease_path(config.fingerprint()).exists()
        assert queue.part_row(config.fingerprint()) is None

    def test_complete_lists_the_part_before_it_drops_the_lease(self, tmp_path, monkeypatch):
        # The order both pollers rely on: by the time complete() drops the
        # lease, the part is listed in parts/ and reads.
        from pathlib import Path

        queue = TaskQueue(tmp_path / "q")
        config = tiny_config()
        queue.enqueue("cell", config)
        task = queue.claim("w1")
        lease = task.lease_path
        row = _run_cell((task.label, task.config))
        original_unlink = Path.unlink
        seen = []

        def watching_unlink(path, missing_ok=False):
            if path == lease:
                seen.append((queue.parts.fingerprints(), queue.part_row(task.fingerprint)))
            original_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", watching_unlink)
        queue.complete(task, row)
        assert seen == [([task.fingerprint], row)]
        assert not lease.exists()

    def test_rewritten_part_is_reported_once(self, tmp_path, monkeypatch):
        # Each poll lists every part; a part written again (a cell completed
        # twice after an over-eager reclaim) is a new file version under the
        # same name.  The coordinator: one on_result per label.
        original_complete = TaskQueue.complete

        def complete_twice(self, task, row):
            self.parts.put(row)
            original_complete(self, task, row)

        monkeypatch.setattr(TaskQueue, "complete", complete_twice)
        cells = [
            ("a", tiny_config(name="scenario-a|cell")),
            ("b", tiny_config(name="scenario-b|cell")),
            ("c", tiny_config(seed=2)),
        ]
        delivered = []
        QueueBackend(tmp_path / "q", wait_timeout_s=60).execute(cells, delivered.append)
        assert sorted(row.label for row in delivered) == ["a", "b", "c"]

        # The follow stream: a part rewritten between two polls gives one
        # update, then done.
        spec = two_replica_spec()
        replicas = sorted(spec.replicated().items())
        queue = TaskQueue(tmp_path / "f")
        for label, config in replicas:
            queue.enqueue(label, config)
        first = queue.claim("w1")
        first_row = _run_cell((first.label, first.config))
        original_complete(queue, first, first_row)
        events = follow_stream(tmp_path / "f", spec, timeout_s=60)
        assert next(events)[0] == "listening"
        event, payload = next(events)
        assert (event, payload["fingerprint"]) == ("update", first.fingerprint)
        queue.parts.put(first_row)
        second = queue.claim("w1")
        original_complete(queue, second, _run_cell((second.label, second.config)))
        rest = list(events)
        updates = [payload["fingerprint"] for event, payload in rest if event == "update"]
        assert updates == [second.fingerprint]
        assert rest[-1][0] == "done" and rest[-1][1]["completed"] == 2

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

    def test_follow_reads_parts_that_no_worker_completed(self, tmp_path):
        # Parts written straight into parts/, with no task, lease or
        # complete() behind them: the listing finds them, and the stream
        # ends in done.  ``expect`` still holds done back until that many
        # rows arrived.
        spec = two_replica_spec()
        queue = TaskQueue(tmp_path / "q")
        for label, config in spec.replicated().items():
            queue.parts.put(_run_cell((label, config)))
        events = list(follow_stream(tmp_path / "q", spec, expect=2, timeout_s=5))
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 2
        events = list(follow_stream(tmp_path / "q", spec, expect=3, timeout_s=0.2))
        assert events[-1][0] == "timeout" and events[-1][1]["completed"] == 2


    def test_follow_lists_pending_cells_before_parts(self, tmp_path, monkeypatch):
        # A worker completes its cell just after a poll lists parts/: its
        # part is missing from that listing and its lease is gone right
        # after.  The poll listed the pending cells before the parts, so it
        # still saw the lease, polls once more, and reads the part before
        # done.
        spec = two_replica_spec()
        queue = TaskQueue(tmp_path / "q")
        for label, config in spec.replicated().items():
            queue.enqueue(label, config)
        first = queue.claim("w1")
        queue.complete(first, _run_cell((first.label, first.config)))
        second = queue.claim("w2")
        original_fingerprints = ResultCache.fingerprints

        def complete_after_the_listing(self):
            listed = original_fingerprints(self)
            if queue.lease_path(second.fingerprint).exists():
                queue.complete(second, _run_cell((second.label, second.config)))
            return listed

        monkeypatch.setattr(ResultCache, "fingerprints", complete_after_the_listing)
        events = list(follow_stream(tmp_path / "q", spec, timeout_s=60))
        updates = [payload["fingerprint"] for event, payload in events if event == "update"]
        assert updates == [first.fingerprint, second.fingerprint]
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 2

    def test_follow_ends_when_a_dead_worker_left_its_lease(self, tmp_path, monkeypatch):
        # The worker wrote its part and died before it dropped its lease.
        # The part is the completion signal: the stream ends in done without
        # anyone claiming the task or reclaiming the lease.
        spec = two_replica_spec()
        label, config = sorted(spec.replicated().items())[0]
        queue = TaskQueue(tmp_path / "q")
        queue.enqueue(label, config)
        task = queue.claim("silent")
        queue.parts.put(_run_cell((task.label, task.config)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the stream claimed or reclaimed a task")

        monkeypatch.setattr(TaskQueue, "claim", forbidden)
        monkeypatch.setattr(TaskQueue, "reclaim_orphans", forbidden)
        events = list(follow_stream(tmp_path / "q", spec, expect=1, timeout_s=2))
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 1
        assert task.lease_path.exists()

    def test_an_old_manifest_is_ignored(self, tmp_path, monkeypatch):
        # A queue directory from a version that kept parts/MANIFEST: a line
        # naming a cell that has no part completes nothing, and the file is
        # neither counted, read as a part, nor rewritten.
        import repro.experiments.runner as runner_mod

        spec = two_replica_spec()
        (label, config), (_, other) = sorted(spec.replicated().items())
        queue = TaskQueue(tmp_path / "q")
        queue.parts.put(_run_cell((label, config)))
        manifest = queue.parts_dir / "MANIFEST"
        lines = f"{config.fingerprint()}\n{other.fingerprint()}\n../../outside\n"
        manifest.write_text(lines)
        assert queue.counts()["parts"] == 1
        events = list(follow_stream(tmp_path / "q", spec, expect=2, timeout_s=0.2))
        assert events[-1][0] == "timeout" and events[-1][1]["completed"] == 1

        simulated = []
        original_run = runner_mod.run_experiment

        def counting_run(cfg):
            simulated.append(cfg.fingerprint())
            return original_run(cfg)

        monkeypatch.setattr(runner_mod, "run_experiment", counting_run)
        queued = run_sweep(
            spec.replicated(), backend=QueueBackend(tmp_path / "q", wait_timeout_s=60),
        )
        assert simulated == [other.fingerprint()]
        assert queued.rows == run_sweep(spec.replicated(), workers=1).rows
        assert manifest.read_text() == lines


class TestSpoolNamesAreFingerprints:
    """Names read back from the queue directory -- file stems that any
    host sharing it can write -- never reach a path unless they are config
    fingerprints."""

    #: A name that would resolve to ``<queue>/../outside.json``.
    TRAVERSAL = "../../outside"

    @pytest.mark.parametrize("name", [TRAVERSAL, "A" * 64, "ab" * 31, "", "x/y"])
    def test_path_helpers_refuse_anything_else(self, tmp_path, name):
        queue = TaskQueue(tmp_path / "q")
        for helper in (
            queue.task_path, queue.lease_path, queue.part_path,
            queue.failed_path,
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

    def test_pollers_skip_foreign_files_in_parts(self, tmp_path, monkeypatch):
        # A stray README.json, or a file whose name is not a fingerprint,
        # in parts/: neither the coordinator nor the follow stream passes
        # its name to a path helper, and neither counts it.
        from repro.experiments.sweep import is_fingerprint

        spec = two_replica_spec()
        replicas = spec.replicated()
        queue = TaskQueue(tmp_path / "q")
        for label, config in replicas.items():
            queue.parts.put(_run_cell((label, config)))
        (queue.parts_dir / "README.json").write_text("{}")
        (queue.parts_dir / f"{'0123456789ABCDEF' * 4}.json").write_text("{}")

        def guarded(helper):
            def call(*args):
                if not is_fingerprint(args[-1]):
                    pytest.fail(f"{args[-1]!r} reached a path helper")
                return helper(*args)
            return call

        monkeypatch.setattr(ResultCache, "path_for", guarded(ResultCache.path_for))
        monkeypatch.setattr(
            TaskQueue, "_spool_path", staticmethod(guarded(TaskQueue._spool_path)),
        )
        assert queue.counts()["parts"] == len(replicas)
        delivered = []
        QueueBackend(tmp_path / "q", wait_timeout_s=5).execute(
            list(replicas.items()), delivered.append,
        )
        assert sorted(row.label for row in delivered) == sorted(replicas)
        events = list(follow_stream(tmp_path / "q", spec, expect=2, timeout_s=5))
        assert events[-1][0] == "done" and events[-1][1]["completed"] == 2
        assert (queue.parts_dir / "README.json").exists()

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
