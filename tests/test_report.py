"""Tests for the unified report rendering (tables, tail CDFs, cache loading)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.experiments.sweep import ResultCache, aggregate_rows, run_sweep
from repro.metrics.report import (
    format_aggregate_table,
    format_metric_table,
    format_single_packet_cdfs,
    format_tail_cdf,
    load_cached_rows,
    main,
)
from repro.metrics.sketch import QuantileDigest


@pytest.fixture(scope="module")
def sweep_rows():
    config = ExperimentConfig(
        name="tiny",
        topology="star",
        num_hosts=4,
        workload="fixed",
        fixed_size_bytes=800,  # single-packet flows, so the CDF CLI has a tail to plot
        num_flows=6,
        max_sim_time_s=1.0,
    )
    configs = {f"tiny seed={seed}": config.with_overrides(seed=seed) for seed in (1, 2)}
    return run_sweep(configs, workers=1).rows


class TestTables:
    def test_metric_table_renders_each_row(self, sweep_rows):
        text = format_metric_table("title", sweep_rows)
        assert "=== title ===" in text
        for label in sweep_rows:
            assert label in text
        assert "avg slowdown" in text

    def test_aggregate_table_includes_pooled_tail(self, sweep_rows):
        records = aggregate_rows(sweep_rows.values(), by=("name",))
        text = format_aggregate_table(records)
        assert "name=tiny" in text
        assert "p99 FCT" in text
        # 2 replicas folded into one line (plus the header).
        assert len(text.splitlines()) == 2


class TestTailCdf:
    def test_accepts_digest_and_payload(self):
        digest = QuantileDigest()
        digest.add_many(float(i + 1) for i in range(200))
        from_digest = format_tail_cdf(digest, points=5)
        from_payload = format_tail_cdf(digest.to_dict(), points=5)
        assert from_digest == from_payload
        assert "#" in from_digest

    def test_latencies_increase_down_the_tail(self):
        digest = QuantileDigest()
        digest.add_many(float(i + 1) for i in range(500))
        lines = format_tail_cdf(digest, points=6).splitlines()[2:]
        latencies = [float(line.split()[1]) for line in lines]
        assert latencies == sorted(latencies)

    def test_single_packet_blocks_skip_rows_without_messages(self, sweep_rows):
        without = ResultRow.from_dict({
            **sweep_rows["tiny seed=1"].to_dict(),
            "label": "no singles", "single_packet_digest": None,
        })
        rows = {**sweep_rows, "no singles": without}
        blocks = format_single_packet_cdfs(rows)
        assert len(blocks) == len(sweep_rows)
        for block, (label, row) in zip(blocks, sweep_rows.items()):
            digest = row.single_packet_distribution
            assert block == format_tail_cdf(
                digest, title=f"{label}: single-packet latency tail ({digest.count} msgs)"
            )


class TestCacheReporting:
    def test_load_cached_rows_round_trips_labels(self, sweep_rows, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for row in sweep_rows.values():
            cache.put(row)
        loaded = load_cached_rows(str(tmp_path / "cache"))
        assert set(loaded) == set(sweep_rows)
        assert loaded["tiny seed=1"].fct_digest == sweep_rows["tiny seed=1"].fct_digest

    def test_duplicate_labels_kept_and_disambiguated(self, tmp_path):
        # Two distinct configs cached under the same scenario label (same
        # preset at two flow counts) must both survive, not collapse.
        config = ExperimentConfig(
            name="dup", topology="star", num_hosts=4,
            workload="fixed", fixed_size_bytes=800, max_sim_time_s=1.0,
        )
        cache = ResultCache(tmp_path / "cache")
        for num_flows in (4, 8):
            sweep = run_sweep(
                {"dup": config.with_overrides(num_flows=num_flows)},
                workers=1, cache=cache,
            )
            assert sweep["dup"].num_flows >= num_flows // 2  # both really ran
        loaded = load_cached_rows(str(tmp_path / "cache"))
        assert len(loaded) == 2
        assert all(key.startswith("dup [") for key in loaded)

    def test_cli_renders_report_from_cache(self, sweep_rows, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        for row in sweep_rows.values():
            cache.put(row)
        assert main([str(tmp_path / "cache"), "--cdf"]) == 0
        out = capsys.readouterr().out
        assert "cached rows" in out
        assert "tiny seed=1" in out
        assert "single-packet latency tail" in out

    def test_cli_reports_empty_cache(self, tmp_path, capsys):
        assert main([str(tmp_path / "empty")]) == 1
        assert "no usable cached rows" in capsys.readouterr().out
        # Reporting is read-only: a mistyped path must not leave a directory.
        assert not (tmp_path / "empty").exists()
