"""Tests for the parallel sweep subsystem (cells, cache, runner, aggregation)."""

import hashlib
import os
import pickle
from pathlib import Path

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ScenarioSpec
from repro.experiments.sweep import (
    ResultCache,
    _source_digest,
    aggregate_rows,
    code_fingerprint,
    run_sweep,
)


TINY_DEFAULTS = {
    "topology": "star",
    "num_hosts": 4,
    "workload": "fixed",
    "fixed_size_bytes": 20_000,
    "num_flows": 6,
    "max_sim_time_s": 1.0,
}


def tiny_config(**overrides) -> ExperimentConfig:
    """A star-topology config that simulates in a few milliseconds."""
    base = ExperimentConfig(name="tiny", **TINY_DEFAULTS)
    return base.with_overrides(**overrides) if overrides else base


def tiny_grid() -> ScenarioSpec:
    """12 cells: 2 transports x 2 PFC settings x 3 seeds, ``tiny_config``
    otherwise."""
    return ScenarioSpec(
        name="tiny",
        defaults=TINY_DEFAULTS,
        variants={
            f"{transport} pfc={pfc}": {"transport": transport, "pfc_enabled": pfc}
            for transport in ("irn", "roce")
            for pfc in (False, True)
        },
        seeds=(1, 2, 3),
        aggregate_by=("transport", "pfc_enabled"),
    )


class TestScenarioCells:
    def test_expansion_size_and_order(self):
        cells = tiny_grid().replicated()
        assert len(cells) == 12
        # Seed varies fastest, then the variants in declaration order.
        assert list(cells)[:4] == [
            "irn pfc=False [seed=1]",
            "irn pfc=False [seed=2]",
            "irn pfc=False [seed=3]",
            "irn pfc=True [seed=1]",
        ]

    def test_overrides_applied_and_name_set(self):
        cells = tiny_grid().replicated()
        config = cells["roce pfc=True [seed=2]"]
        assert config.transport == "roce"
        assert config.pfc_enabled is True
        assert config.seed == 2
        assert config.name == "roce-none-pfc"
        # Non-axis fields come from the defaults.
        assert config.num_flows == 6
        assert config.fingerprint() == tiny_config(
            transport="roce", pfc_enabled=True, seed=2).fingerprint()

    def test_duplicate_seeds_rejected(self):
        # A duplicated seed would silently collapse replicas if allowed.
        with pytest.raises(ValueError, match="duplicate seeds"):
            tiny_grid().replicated(seeds=[1, 1])

    def test_no_variants_rejected(self):
        with pytest.raises(ValueError, match="declares no variants"):
            ScenarioSpec(name="empty", defaults=TINY_DEFAULTS, variants={})


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()

    def test_cosmetic_name_does_not_change_the_key(self):
        # Identical simulations under different preset labels must share one
        # cache entry.
        assert tiny_config(name="a").fingerprint() == tiny_config(name="b").fingerprint()

    def test_sensitive_to_any_field(self):
        base = tiny_config().fingerprint()
        assert tiny_config(seed=2).fingerprint() != base
        assert tiny_config(target_load=0.6).fingerprint() != base
        assert tiny_config(congestion_control="timely").fingerprint() != base

    def test_canonical_dict_is_json_safe(self):
        import json

        payload = tiny_config().to_canonical_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestResultRow:
    def test_pickle_roundtrip(self):
        row = run_experiment(tiny_config()).to_row(label="tiny run")
        clone = pickle.loads(pickle.dumps(row))
        assert clone == row
        assert clone.label == "tiny run"

    def test_config_pickle_roundtrip(self):
        config = tiny_config(congestion_control="dcqcn")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_dict_roundtrip(self):
        row = run_experiment(tiny_config()).to_row()
        assert ResultRow.from_dict(row.to_dict()) == row

    def test_the_result_is_its_row(self):
        # One record: run_experiment returns a ResultRow that also holds the
        # collector and flows, and to_row() is that record without them.
        result = run_experiment(tiny_config())
        assert isinstance(result, ResultRow)
        row = result.to_row()
        assert type(row) is ResultRow
        assert row == ResultRow.from_dict(result.to_dict())
        assert row.to_dict() == result.to_dict()
        assert row.events_processed == result.events_processed > 0
        assert row.flows_total == len(result.flows) == 6
        assert row.flows_completed == sum(flow.completed for flow in result.flows)
        assert row.num_flows == result.collector.completed_count

    def test_to_row_relabels_only_the_label(self):
        result = run_experiment(tiny_config())
        assert result.label == result.name == "tiny"
        row = result.to_row(label="relabelled")
        assert row.label == "relabelled"
        assert {**row.to_dict(), "label": "tiny"} == result.to_dict()

    def test_collector_and_flows_stay_out_of_the_record(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.collector is not b.collector and a.flows is not b.flows
        assert a == b and hash(a) == hash(b)
        assert "collector" not in repr(a) and ", flows=" not in repr(a)
        assert "collector" not in a.to_dict() and "flows" not in a.to_dict()
        assert pickle.loads(pickle.dumps(a.to_row())) == a.to_row()

    def test_sweep_rows_are_the_direct_rows(self):
        swept = run_sweep({"cell": tiny_config()}, workers=1)["cell"]
        assert swept == run_experiment(tiny_config()).to_row("cell")

    def test_a_run_that_completes_nothing_stores_no_stream_digests(self):
        from repro.metrics.stats import MetricSummary

        result = run_experiment(tiny_config(max_sim_time_s=1e-6))
        assert result.flows_total == 6 and result.flows_completed == 0
        assert result.summary == MetricSummary(0.0, 0.0, 0.0, 0)
        assert result.completion_fraction() == 0.0
        assert result.fct_digest is None
        assert result.single_packet_digest is None

    def test_carries_latency_digests(self):
        result = run_experiment(tiny_config())
        row = result.to_row()
        fct = row.fct_distribution
        assert fct is not None and fct.count == row.num_flows
        # Exact-mode digests reproduce the per-flow computation bit for bit.
        assert fct.is_exact
        assert row.fct_percentile(0.99) == result.summary.tail_fct
        assert fct.mean == pytest.approx(result.summary.avg_fct)
        # 20 kB flows are multi-packet: no single-packet digest.
        assert row.single_packet_count == 0
        with pytest.raises(ValueError, match="no single-packet digest"):
            row.single_packet_percentile(0.99)

    def test_digests_survive_dict_roundtrip(self):
        row = run_experiment(tiny_config()).to_row()
        clone = ResultRow.from_dict(row.to_dict())
        assert clone.fct_digest == row.fct_digest
        assert clone.fct_percentile(0.999) == row.fct_percentile(0.999)

    @pytest.fixture(scope="class", params=["all_digests", "no_digests"])
    def digest_row(self, request):
        """A row with all seven digest fields set (exact-mode and
        bucket-mode payloads, whose bucket pairs are nested lists), or with
        every one of them ``None``."""
        from repro.metrics.sketch import QuantileDigest

        def payload(samples, max_exact):
            digest = QuantileDigest(max_exact=max_exact)
            for value in samples:
                digest.add(value)
            return digest.to_dict()

        row = run_experiment(tiny_config()).to_row()
        digests = [name for name in row.to_dict() if name.endswith("_digest")]
        assert len(digests) == 7
        exact = payload([0.5, 1.5, 2.5], max_exact=16)
        bucketed = payload([0.001 * n for n in range(1, 200)], max_exact=8)
        assert exact["exact"] and bucketed["buckets"]
        if request.param == "no_digests":
            return ResultRow.from_dict({**row.to_dict(), **dict.fromkeys(digests)})
        return ResultRow.from_dict({
            **row.to_dict(),
            **{name: (exact, bucketed)[index % 2] for index, name in enumerate(digests)},
        })

    def test_to_dict_equals_asdict(self, digest_row):
        import dataclasses
        import json

        data = digest_row.to_dict()
        reference = dataclasses.asdict(digest_row)
        assert data == reference
        assert json.dumps(data, sort_keys=True) == json.dumps(reference, sort_keys=True)
        assert list(data) == [field.name for field in dataclasses.fields(ResultRow)]

    def test_to_dict_digests_are_copies(self, digest_row):
        import copy

        before = copy.deepcopy(digest_row.to_dict())
        data = digest_row.to_dict()
        for name, value in data.items():
            if isinstance(value, dict):
                value["count"] = -1
                for item in value.values():
                    if isinstance(item, list):
                        item.append(99.0)
                        if isinstance(item[0], list):
                            item[0][1] = -7
        assert digest_row.to_dict() == before

    def test_rows_stay_hashable_despite_digest_payloads(self):
        # The digest dicts are excluded from __hash__ (dicts are unhashable)
        # but still participate in equality.
        row = run_experiment(tiny_config()).to_row()
        clone = ResultRow.from_dict(row.to_dict())
        assert row.fct_digest is not None
        assert {row, clone} == {row}
        assert hash(row) == hash(clone) and row == clone


class TestRunSweep:
    def test_parallel_matches_serial_for_fixed_seeds(self):
        cells = tiny_grid().replicated()
        serial = run_sweep(cells, workers=1)
        parallel = run_sweep(cells, workers=4)
        assert serial.workers_used == 1
        assert len(parallel) == 12
        # Independent seeded simulations: bit-identical rows either way.
        assert parallel.rows == serial.rows
        assert list(parallel.rows) == list(serial.rows) == list(cells)

    def test_accepts_label_mapping(self):
        configs = {"a": tiny_config(seed=1), "b": tiny_config(seed=2)}
        sweep = run_sweep(configs, workers=1)
        assert list(sweep.rows) == ["a", "b"]
        assert sweep["a"].seed == 1

    @pytest.mark.parametrize("configs", [
        [tiny_config(seed=1), tiny_config(seed=2)],
        (config for config in [tiny_config()]),
        [("cell", tiny_config())],
    ], ids=["list", "generator", "pairs"])
    def test_rejects_anything_but_a_mapping(self, configs):
        # Cells are labelled by the caller (ScenarioSpec.configs() or
        # .replicated()); the sweep never invents labels.
        with pytest.raises(TypeError, match="label -> ExperimentConfig mapping"):
            run_sweep(configs, workers=1)

    def test_duplicate_labels_rejected(self):
        class MultiMapping(dict):
            """A Mapping whose items() yields a colliding label twice."""

            def items(self):
                return [("x", tiny_config(seed=1)), ("x", tiny_config(seed=2))]

        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(MultiMapping(), workers=1)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config()
        assert cache.get(config) is None
        first = run_sweep({"cell": config}, workers=1, cache=cache)
        assert (first.cache_hits, first.runs_executed) == (0, 1)
        assert cache.get(config) == first["cell"]

    def test_repeat_sweep_runs_zero_simulations(self, tmp_path, monkeypatch):
        cells = tiny_grid().replicated()
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(cells, workers=2, cache=cache)
        assert first.runs_executed == 12
        assert len(cache) == 12

        # Any attempt to simulate again must be loud: the repeated sweep has
        # to be served entirely from the on-disk cache.
        def boom(config):
            raise AssertionError(f"run_experiment called for {config.name}")

        monkeypatch.setattr("repro.experiments.runner.run_experiment", boom)
        again = run_sweep(cells, workers=1, cache=cache)
        assert again.runs_executed == 0
        assert again.cache_hits == 12
        assert again.rows == first.rows

    def test_changed_cell_reruns_only_that_cell(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = {"a": tiny_config(seed=1), "b": tiny_config(seed=2)}
        run_sweep(configs, workers=1, cache=cache)
        configs["b"] = tiny_config(seed=99)
        second = run_sweep(configs, workers=1, cache=cache)
        assert second.cache_hits == 1
        assert second.runs_executed == 1
        assert second["b"].seed == 99

    def test_failing_cell_keeps_completed_siblings_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = {
            "good": tiny_config(seed=1),
            # No workload and no incast: _generate_flows raises ValueError.
            "bad": tiny_config(workload="none", num_flows=0),
        }
        with pytest.raises(ValueError, match="no flows"):
            run_sweep(configs, workers=1, cache=cache)
        # The completed sibling survived the failure...
        assert cache.get(configs["good"]) is not None
        # ...so the retry (with the bad cell fixed) only runs the fixed cell.
        configs["bad"] = tiny_config(seed=7)
        retry = run_sweep(configs, workers=1, cache=cache)
        assert retry.cache_hits == 1
        assert retry.runs_executed == 1

    def test_cache_hit_rebinds_name_and_label(self, tmp_path):
        # `name` is excluded from the fingerprint, so a fingerprint-identical
        # cell in another scenario may carry a different name.  Names group
        # aggregation cells: a hit must serve the *requesting* config's name
        # (and label), not whichever sweep first computed the row.
        cache = ResultCache(tmp_path / "cache")
        first = tiny_config(name="scenario-a|cell")
        run_sweep({"a": first}, workers=1, cache=cache)
        second = tiny_config(name="scenario-b|cell")
        assert first.fingerprint() == second.fingerprint()
        redo = run_sweep({"b": second}, workers=1, cache=cache)
        assert redo.cache_hits == 1 and redo.runs_executed == 0
        assert redo["b"].label == "b"
        assert redo["b"].name == "scenario-b|cell"
        (record,) = aggregate_rows(redo.rows.values(), by=("name",))
        assert record["name"] == "scenario-b|cell"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config()
        run_sweep({"cell": config}, workers=1, cache=cache)
        cache.path_for(config.fingerprint()).write_text("{not json")
        assert cache.get(config) is None
        redo = run_sweep({"cell": config}, workers=1, cache=cache)
        assert redo.runs_executed == 1

    def test_only_a_fingerprint_names_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config()
        run_sweep({"cell": config}, workers=1, cache=cache)
        fingerprint = config.fingerprint()
        entry = cache.path_for(fingerprint)
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "secret.json").write_text(entry.read_text())

        assert cache.load_entry(fingerprint).row is not None
        for name in ("../outside/secret", f"../cache/{fingerprint}", f"./{fingerprint}",
                     fingerprint.upper(), fingerprint[:-1], fingerprint + "0",
                     fingerprint + "\n", "", None):
            assert cache.load_entry(name) is None, name
            with pytest.raises(ValueError, match="not a config fingerprint"):
                cache.path_for(name)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep({"cell": tiny_config()}, workers=1, cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_a_stray_json_file_is_no_entry(self, tmp_path):
        # len(), clear() and the queue's part count go by the same rule as
        # scan() and load_entry(): only <fingerprint>.json is an entry.
        from repro.experiments.queue import TaskQueue

        queue = TaskQueue(tmp_path / "q")
        cache = queue.parts
        stray = cache.directory / "README.json"
        stray.write_text("{}")
        assert len(cache) == 0 == len(list(cache.scan()))
        assert queue.counts()["parts"] == 0
        config = tiny_config()
        run_sweep({"cell": config}, workers=1, cache=cache)
        assert cache.fingerprints() == [config.fingerprint()]
        assert len(cache) == 1 == len(list(cache.scan()))
        assert queue.counts()["parts"] == 1
        assert cache.clear() == 1
        assert len(cache) == 0 and stray.exists()

    def test_fingerprints_lists_entry_names_without_reading_them(self, tmp_path):
        # One listing, sorted, of the <fingerprint>.json names only: a
        # writer's temp file and other names are skipped, and an entry that
        # does not parse is still listed (the listing reads no file).
        cache = ResultCache(tmp_path / "cache")
        assert cache.fingerprints() == []
        cache.directory.rmdir()
        assert cache.fingerprints() == []  # a missing directory lists nothing
        cache.directory.mkdir()
        high, low = "f" * 64, "0" * 64
        (cache.directory / f"{high}.json").write_text("not json")
        (cache.directory / f"{low}.json").write_text("{}")
        (cache.directory / f".{low}.json.123.tmp").write_text("{}")
        (cache.directory / f"{low}.txt").write_text("{}")
        (cache.directory / "README.json").write_text("{}")
        assert cache.fingerprints() == [low, high]
        assert [entry.row for entry in cache.scan()] == [None, None]

    def test_code_change_invalidates_entries(self, tmp_path, monkeypatch):
        # Simulator code changes must not serve stale rows (ROADMAP item):
        # the stored code fingerprint no longer matches -> miss.
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config()
        run_sweep({"cell": config}, workers=1, cache=cache)
        assert cache.get(config) is not None
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        assert cache.get(config) is None
        redo = run_sweep({"cell": config}, workers=1, cache=cache)
        assert redo.runs_executed == 1

    def test_code_unaware_cache_opts_out(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        config = tiny_config()
        run_sweep({"cell": config}, workers=1, cache=cache)
        monkeypatch.setattr(
            "repro.experiments.sweep._CODE_FINGERPRINT", "pretend-code-changed"
        )
        archive = ResultCache(tmp_path / "cache", code_aware=False)
        assert archive.get(config) is not None

    def test_rows_lists_cached_rows(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = {"b": tiny_config(seed=2), "a": tiny_config(seed=1)}
        run_sweep(configs, workers=1, cache=cache)
        rows = cache.rows()
        assert [row.label for row in rows] == ["a", "b"]
        # Corrupt entries are skipped, not fatal.
        next(iter(cache.directory.glob("*.json"))).write_text("{not json")
        assert len(cache.rows()) == 1


def reference_code_digest(root: Path) -> str:
    """The code digest's definition: SHA-256 over ``sorted(root.rglob("*.py"))``,
    each file contributing its path relative to ``root``, NUL, its bytes, NUL."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


class TestCodeFingerprint:
    """Every cached row records this digest: a change to its definition
    would silently mark every user's cached row stale."""

    def test_equals_the_reference_on_the_installed_tree(self):
        root = Path(repro.__file__).resolve().parent
        assert code_fingerprint() == reference_code_digest(root)

    def test_orders_files_by_path_parts_not_by_string(self, tmp_path):
        for relative in ("a.py", "a-b.py", "a/b.py", "a/notes.txt", "a/c/.d.py"):
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text(f"# {relative}\n")
        by_parts = [str(path.relative_to(tmp_path)) for path in sorted(tmp_path.rglob("*.py"))]
        assert by_parts == ["a/b.py", "a/c/.d.py", "a-b.py", "a.py"]
        assert sorted(by_parts) != by_parts
        assert _source_digest(str(tmp_path)) == reference_code_digest(tmp_path)


class TestAggregation:
    def test_mean_and_p99_across_seeds(self):
        rows = run_sweep(tiny_grid().replicated(), workers=2).rows.values()
        table = aggregate_rows(rows, by=("transport", "pfc_enabled"))
        assert len(table) == 4
        cell = next(
            record for record in table
            if record["transport"] == "irn" and record["pfc_enabled"] is False
        )
        assert cell["replicas"] == 3
        assert cell["seeds"] == [1, 2, 3]
        members = [row for row in rows if row.transport == "irn" and not row.pfc_enabled]
        expected_mean = sum(row.avg_slowdown for row in members) / 3
        assert cell["avg_slowdown_mean"] == pytest.approx(expected_mean)
        # p99 of three replicas interpolates near the maximum.
        assert cell["avg_slowdown_p99"] <= max(row.avg_slowdown for row in members)
        assert cell["avg_slowdown_p99"] >= expected_mean
        assert cell["retransmissions_total"] == sum(row.retransmissions for row in members)

    def test_unknown_group_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ResultRow field"):
            aggregate_rows([], by=("nope",))

    def test_stderr_and_ci95_columns(self):
        from repro.metrics.stats import ci95_half_width, stderr

        rows = list(run_sweep(tiny_grid().replicated(), workers=2).rows.values())
        table = aggregate_rows(rows, by=("transport", "pfc_enabled"))
        cell = next(
            record for record in table
            if record["transport"] == "irn" and record["pfc_enabled"] is False
        )
        members = [row.avg_slowdown for row in rows
                   if row.transport == "irn" and not row.pfc_enabled]
        assert cell["avg_slowdown_stderr"] == pytest.approx(stderr(members))
        assert cell["avg_slowdown_ci95"] == pytest.approx(ci95_half_width(members))
        # With 3 replicas the t multiplier is 4.303 (df=2), not 1.96.
        assert cell["avg_slowdown_ci95"] == pytest.approx(
            4.303 * cell["avg_slowdown_stderr"]
        )
        for metric in ("avg_slowdown", "avg_fct_s", "tail_fct_s"):
            assert cell[f"{metric}_stderr"] >= 0.0
            assert cell[f"{metric}_ci95"] >= cell[f"{metric}_stderr"]

    def test_single_replica_has_zero_ci(self):
        row = run_experiment(tiny_config()).to_row()
        (record,) = aggregate_rows([row], by=("transport",))
        assert record["avg_slowdown_stderr"] == 0.0
        assert record["avg_slowdown_ci95"] == 0.0

    def test_digests_merge_into_pooled_percentiles(self):
        from repro.metrics.sketch import QuantileDigest

        rows = list(run_sweep(tiny_grid().replicated(), workers=2).rows.values())
        table = aggregate_rows(rows, by=("transport", "pfc_enabled"))
        cell = next(
            record for record in table
            if record["transport"] == "irn" and record["pfc_enabled"] is False
        )
        members = [row for row in rows if row.transport == "irn" and not row.pfc_enabled]
        assert cell["num_flows_total"] == sum(row.num_flows for row in members)
        # The pooled p99 is the true percentile over every flow of every
        # replica (here all digests are exact, so bit-exact), not a mean of
        # per-replica tails.
        pooled = QuantileDigest()
        for row in members:
            pooled.merge(QuantileDigest.from_dict(row.fct_digest))
        assert cell["fct_p99_s"] == pooled.percentile(0.99)
        assert cell["fct_p999_s"] == pooled.percentile(0.999)
        assert cell["fct_p50_s"] <= cell["fct_p99_s"] <= cell["fct_p999_s"]
        # 20 kB flows are multi-packet: no single-packet percentiles emitted.
        assert "single_packet_p99_s" not in cell

    def test_rows_without_digests_still_aggregate(self):
        # Rows cached before the digest pipeline (fields default to None)
        # aggregate fine, just without pooled percentiles.
        row = run_experiment(tiny_config()).to_row()
        legacy = ResultRow.from_dict(
            {**row.to_dict(), "fct_digest": None, "single_packet_digest": None}
        )
        (record,) = aggregate_rows([legacy], by=("transport",))
        assert record["replicas"] == 1
        assert "fct_p99_s" not in record


class TestPlugins:
    """REPRO_PLUGINS: worker processes import named modules before cells."""

    PLUGIN = '''
from repro.workload import WORKLOADS
from repro.core.transport import Flow

def _burst(config, hosts):
    return [Flow(flow_id=i, src=hosts[0], dst=hosts[-1], size_bytes=5_000,
                 start_time=i * 1e-5) for i in range(4)]

if "plugin_burst" not in WORKLOADS.names():
    WORKLOADS.register("plugin_burst", _burst)
'''

    @pytest.fixture()
    def plugin_module(self, tmp_path, monkeypatch):
        import sys

        import repro.experiments.sweep as sweep_mod
        from repro.workload import WORKLOADS

        (tmp_path / "sweep_test_plugin.py").write_text(self.PLUGIN)
        monkeypatch.syspath_prepend(str(tmp_path))
        # PYTHONPATH so spawn-based worker processes can import it too.
        monkeypatch.setenv(
            "PYTHONPATH",
            f"{tmp_path}{':' + os.environ['PYTHONPATH'] if os.environ.get('PYTHONPATH') else ''}",
        )
        monkeypatch.setenv("REPRO_PLUGINS", "sweep_test_plugin")
        # Reset both the import memo and any leaked registration.
        monkeypatch.setattr(sweep_mod, "_PLUGINS_IMPORTED", None)
        yield "sweep_test_plugin"
        WORKLOADS._entries.pop("plugin_burst", None)
        sys.modules.pop("sweep_test_plugin", None)
        sweep_mod._PLUGINS_IMPORTED = None

    def test_import_plugins_imports_named_modules(self, plugin_module):
        from repro.experiments.sweep import import_plugins
        from repro.workload import WORKLOADS

        assert import_plugins() == [plugin_module]
        assert "plugin_burst" in WORKLOADS.names()
        # Memoized: a second call is a no-op.
        assert import_plugins() == []

    def test_import_plugins_empty_is_noop(self, monkeypatch):
        import repro.experiments.sweep as sweep_mod
        from repro.experiments.sweep import import_plugins

        monkeypatch.delenv("REPRO_PLUGINS", raising=False)
        monkeypatch.setattr(sweep_mod, "_PLUGINS_IMPORTED", None)
        assert import_plugins() == []

    def test_parallel_sweep_with_plugin_workload(self, plugin_module):
        # The coordinating process must NOT need the plugin pre-imported:
        # _run_cell pulls it in (in workers under fork/spawn, in-process on
        # the serial fallback).
        configs = {
            "plugin cell": tiny_config(workload="plugin_burst", num_flows=4),
        }
        sweep = run_sweep(configs, workers=2)
        row = sweep["plugin cell"]
        assert row.num_flows == 4
        assert row.completion_fraction() == pytest.approx(1.0)
