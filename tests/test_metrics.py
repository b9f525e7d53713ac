"""Tests for metric computation: percentiles, summaries, slowdowns, CDFs."""

import pytest

from repro.core.transport import Flow
from repro.metrics.collector import GroupStats, MetricsCollector
from repro.metrics.sketch import QuantileDigest
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Simulator
from repro.topology.simple import build_star


class TestPercentile:
    def test_median_of_odd_sequence(self):
        assert percentile([3, 1, 2], 0.5) == 2

    def test_interpolates_between_points(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0.0) == 0
        assert percentile(values, 1.0) == 99

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 1.5)


class TestSummaries:
    def test_summarize_matches_inputs(self):
        stats = GroupStats()
        for fct, slowdown in zip((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)):
            stats.observe(fct, slowdown, single_packet=False)
        summary = stats.summary()
        assert summary.avg_fct == pytest.approx(2.0)
        assert summary.avg_slowdown == pytest.approx(4.0)
        assert summary.tail_fct == pytest.approx(2.98)
        assert summary.num_flows == 3

    def test_empty_stream_has_no_summary(self):
        with pytest.raises(ValueError):
            GroupStats().summary()

    def test_tail_cdf_is_monotone(self):
        digest = QuantileDigest()
        digest.add_many(float(i) for i in range(1000))
        cdf = digest.tail_cdf(start_fraction=0.9, points=20)
        latencies = [point[0] for point in cdf]
        fractions = [point[1] for point in cdf]
        assert latencies == sorted(latencies)
        assert fractions == sorted(fractions)
        assert fractions[0] == pytest.approx(0.9)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])


class TestCollector:
    def make_collector(self):
        sim = Simulator()
        network = build_star(sim, 3, bandwidth_bps=10e9, link_delay_s=1e-6)
        return MetricsCollector(network, mtu_bytes=1000, header_bytes=0)

    def test_ideal_fct_for_single_packet_flow(self):
        collector = self.make_collector()
        flow = Flow(flow_id=1, src="h0", dst="h1", size_bytes=1000)
        ideal, prop = collector.path_bounds(flow)
        # 1000B at 10 Gbps = 0.8 us transmission, + 2 us propagation
        # + one store-and-forward hop of 0.8 us.
        assert ideal == pytest.approx(0.8e-6 + 2e-6 + 0.8e-6, rel=1e-3)
        assert prop == pytest.approx(2e-6)

    def test_slowdown_never_below_one(self):
        collector = self.make_collector()
        flow = Flow(flow_id=1, src="h0", dst="h1", size_bytes=1000, start_time=0.0)
        flow.completion_time = 1e-9   # impossibly fast
        collector.on_flow_complete(flow, flow.completion_time)
        assert collector.stream().slowdown_sum == 1.0

    def test_summary_over_completions(self):
        collector = self.make_collector()
        for i, fct in enumerate((1e-5, 2e-5, 3e-5)):
            flow = Flow(flow_id=i, src="h0", dst="h1", size_bytes=5000, start_time=0.0)
            flow.completion_time = fct
            collector.on_flow_complete(flow, fct)
        summary = collector.summary()
        assert summary.num_flows == 3
        assert summary.avg_fct == pytest.approx(2e-5)

    def test_summary_requires_completions(self):
        collector = self.make_collector()
        with pytest.raises(RuntimeError, match="no completed flows"):
            collector.summary()
        with pytest.raises(RuntimeError, match="no completed flows"):
            collector.summary(group="incast")

    def test_group_filtering(self):
        collector = self.make_collector()
        for i, group in enumerate(("incast", "background", "background")):
            flow = Flow(flow_id=i, src="h0", dst="h1", size_bytes=1000, group=group)
            flow.completion_time = 1e-5 * (i + 1)
            collector.on_flow_complete(flow, flow.completion_time)
        assert collector.summary(group="background").num_flows == 2
        assert collector.summary(group="incast").num_flows == 1

    def test_flow_fct_requires_completion(self):
        flow = Flow(flow_id=1, src="h0", dst="h1", size_bytes=100)
        with pytest.raises(RuntimeError):
            flow.fct()
        assert flow.num_packets(1000) == 1
        assert Flow(flow_id=2, src="a", dst="b", size_bytes=2500).num_packets(1000) == 3


class TestStreamingCollector:
    """The streaming accumulators that feed ResultRow's quantile digests."""

    def make_collector(self):
        sim = Simulator()
        network = build_star(sim, 3, bandwidth_bps=10e9, link_delay_s=1e-6)
        return MetricsCollector(network, mtu_bytes=1000, header_bytes=0)

    def complete(self, collector, flow_id, size_bytes, fct, group="default"):
        flow = Flow(
            flow_id=flow_id, src="h0", dst="h1", size_bytes=size_bytes,
            start_time=0.0, group=group,
        )
        flow.completion_time = fct
        collector.on_flow_complete(flow, fct)

    def test_streams_track_all_flows_and_groups(self):
        collector = self.make_collector()
        self.complete(collector, 1, 500, 1e-5, group="incast")
        self.complete(collector, 2, 5000, 3e-5, group="background")
        self.complete(collector, 3, 500, 2e-5, group="background")
        assert collector.completed_count == 3
        assert collector.stream().count == 3
        assert collector.stream("background").count == 2
        assert collector.stream("incast").count == 1
        assert collector.stream("unknown-group").count == 0

    def test_single_packet_digest_filters_by_packet_count(self):
        collector = self.make_collector()
        self.complete(collector, 1, 500, 5e-6)     # single packet
        self.complete(collector, 2, 50_000, 5e-4)  # multi packet
        stats = collector.stream()
        assert stats.single_packet_digest.count == 1
        assert stats.single_packet_digest.percentile(0.5) == 5e-6

    def test_exact_mode_tail_is_the_interpolated_percentile(self):
        collector = self.make_collector()
        fcts = (4e-5, 1e-5, 3e-5, 2e-5)
        for i, fct in enumerate(fcts):
            self.complete(collector, i, 5000, fct)
        summary = collector.summary()
        assert summary == collector.stream().summary()
        assert summary.tail_fct == percentile(fcts, 0.99)

    def test_means_are_left_to_right_running_sums(self):
        # 1e-16 is below half an ulp of 1.0, so a running sum drops both
        # small terms while a compensated sum (``sum()`` on 3.12+, fsum)
        # would carry them: the row is the same on every interpreter only
        # if the sum is a plain left-to-right fold.
        collector = self.make_collector()
        for i, fct in enumerate((1.0, 1e-16, 1e-16)):
            self.complete(collector, i, 500, fct)
        assert collector.summary().avg_fct == ((1.0 + 1e-16) + 1e-16) / 3

    def test_collector_keeps_no_per_flow_state(self):
        collector = self.make_collector()
        self.complete(collector, 1, 500, 1e-5)
        self.complete(collector, 2, 500, 3e-5)
        assert collector.completed_count == 2
        summary = collector.summary()
        assert summary.num_flows == 2
        assert summary.avg_fct == pytest.approx(2e-5)
        assert not hasattr(collector, "records")

    def test_infinite_slowdown_does_not_crash_streaming(self):
        # A zero-byte flow with zero header bytes on a zero-delay path has
        # ideal_fct == 0, so its slowdown is inf: it must still poison the
        # mean (as it always did) without aborting the run inside the digest.
        sim = Simulator()
        network = build_star(sim, 3, bandwidth_bps=10e9, link_delay_s=0.0)
        collector = MetricsCollector(network, mtu_bytes=1000, header_bytes=0)
        self.complete(collector, 1, 0, 1e-5)
        self.complete(collector, 2, 500, 2e-5)
        stats = collector.stream()
        assert stats.count == 2
        assert stats.avg_slowdown == float("inf")
        assert stats.slowdown_digest.count == 1  # only the finite sample
        assert stats.fct_digest.count == 2


class TestFabricDigests:
    """§4.4 observability: queue-depth and PFC-pause-duration digests."""

    def probed_config(self, **overrides):
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig(
            name="probed",
            topology="star",
            num_hosts=4,
            workload="fixed",
            fixed_size_bytes=40_000,
            num_flows=12,
            max_sim_time_s=1.0,
            fabric_digests=True,
            **overrides,
        )

    def run_probed(self, **overrides):
        from repro.experiments.runner import run_experiment

        return run_experiment(self.probed_config(**overrides))

    def test_fingerprint_relevant_once_enabled(self):
        # Disabled (the default) is excluded from the canonical dict, so the
        # field's introduction invalidated no caches; enabled keys its own
        # entries, so a digest-collecting sweep is never served digest-less
        # cached rows.
        from repro.experiments.config import ExperimentConfig

        on = ExperimentConfig(fabric_digests=True)
        off = ExperimentConfig(fabric_digests=False)
        assert on.fingerprint() != off.fingerprint()
        assert "fabric_digests" not in off.to_canonical_dict()
        assert on.to_canonical_dict()["fabric_digests"] is True

    def test_cached_rows_always_match_the_digest_request(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweep import ResultCache, run_sweep

        base = dict(
            topology="star", num_hosts=4, workload="fixed",
            fixed_size_bytes=40_000, num_flows=12, max_sim_time_s=1.0,
        )
        cache = ResultCache(tmp_path / "cache")
        run_sweep({"cell": ExperimentConfig(name="a", **base)}, workers=1, cache=cache)
        # Requesting digests after a digest-less sweep re-simulates instead
        # of serving a row without the requested fabric distributions.
        probed = run_sweep(
            {"cell": ExperimentConfig(name="a", fabric_digests=True, **base)},
            workers=1, cache=cache,
        )
        assert probed.cache_hits == 0 and probed.runs_executed == 1
        assert probed["cell"].queue_depth_digest is not None

    def test_observation_does_not_perturb_the_run(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        base = dict(
            topology="star", num_hosts=4, workload="fixed",
            fixed_size_bytes=40_000, num_flows=12, max_sim_time_s=1.0,
        )
        plain = run_experiment(ExperimentConfig(name="a", **base)).to_row()
        probed = self.run_probed().to_row()
        for field in ("avg_fct_s", "avg_slowdown", "events_processed",
                      "pause_frames", "packets_forwarded", "sim_time_s"):
            assert getattr(plain, field) == getattr(probed, field)
        assert plain.queue_depth_digest is None
        assert plain.pfc_pause_digest is None

    def test_row_carries_pooled_fabric_digests(self):
        result = self.run_probed()
        row = result.to_row()
        depth = row.queue_depth_distribution
        assert depth is not None and depth.count > 0
        # Every sample is a post-enqueue occupancy: positive, and bounded by
        # the per-port buffer.
        assert depth.min > 0
        assert depth.max <= self.probed_config().physics().buffer_bytes
        # PFC fired in this congested star (pause_frames > 0), and every
        # pause episode that *resumed* was recorded with its duration.
        pause = row.pfc_pause_distribution
        assert row.pause_frames > 0
        assert pause is not None and pause.count > 0
        assert pause.count <= row.pause_frames
        assert pause.sum > 0.0

    def test_per_switch_digests_stay_readable(self):
        result = self.run_probed()
        switches = list(result.collector.network.switches.values())
        assert all(s.queue_depth_digest is not None for s in switches)
        pooled = result.collector.fabric_queue_depth_digest()
        assert pooled.count == sum(s.queue_depth_digest.count for s in switches)

    def test_aggregate_rows_pools_fabric_digests(self):
        from repro.experiments.sweep import aggregate_rows

        rows = [self.run_probed(seed=seed).to_row() for seed in (1, 2)]
        (record,) = aggregate_rows(rows, by=("transport",))
        assert record["pfc_pause_events"] == sum(
            row.pfc_pause_distribution.count for row in rows
        )
        assert record["pfc_pause_total_s"] == pytest.approx(
            sum(row.pfc_pause_distribution.sum for row in rows)
        )
        assert (record["queue_depth_p50_bytes"]
                <= record["queue_depth_p99_bytes"]
                <= record["queue_depth_p999_bytes"])
        # Rows without fabric digests omit the columns entirely.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        bare = run_experiment(ExperimentConfig(
            name="bare", topology="star", num_hosts=4, workload="fixed",
            fixed_size_bytes=40_000, num_flows=12, max_sim_time_s=1.0,
        )).to_row()
        (bare_record,) = aggregate_rows([bare], by=("transport",))
        assert "queue_depth_p99_bytes" not in bare_record
        assert "pfc_pause_events" not in bare_record

    def test_digests_survive_the_row_dict_roundtrip(self):
        from repro.experiments.results import ResultRow

        row = self.run_probed().to_row()
        clone = ResultRow.from_dict(row.to_dict())
        assert clone.queue_depth_digest == row.queue_depth_digest
        assert clone.pfc_pause_digest == row.pfc_pause_digest
