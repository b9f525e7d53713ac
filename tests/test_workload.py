"""Tests for workload generation: size distributions, Poisson arrivals, incast."""

import random

import pytest

from repro.workload.distributions import FixedSizes, HeavyTailedSizes, UniformSizes
from repro.workload.generator import PoissonWorkload, WorkloadParams
from repro.workload.incast import IncastParams, build_incast_flows, request_completion_time


class TestDistributions:
    def test_heavy_tailed_band_shape(self):
        dist = HeavyTailedSizes(scale=1.0)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(4000)]
        small = sum(1 for s in samples if s <= 1000)
        large = sum(1 for s in samples if s >= 200_000)
        # Roughly 50% single-packet RPCs and 15% large storage flows.
        assert 0.42 <= small / len(samples) <= 0.58
        assert 0.09 <= large / len(samples) <= 0.21

    def test_heavy_tailed_mean_is_dominated_by_large_flows(self):
        dist = HeavyTailedSizes(scale=1.0)
        assert dist.mean_bytes() > 50_000

    def test_heavy_tailed_scale_shrinks_large_flows_only(self):
        scaled = HeavyTailedSizes(scale=0.1)
        full = HeavyTailedSizes(scale=1.0)
        assert scaled.mean_bytes() < full.mean_bytes()
        assert scaled.bands[0][1:] == full.bands[0][1:]   # RPC band untouched

    def test_heavy_tailed_invalid_bands_rejected(self):
        with pytest.raises(ValueError):
            HeavyTailedSizes(bands=((0.5, 10, 100), (0.4, 100, 1000)))

    def test_uniform_range_respected(self):
        dist = UniformSizes(10_000, 20_000)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(10_000 <= s <= 20_000 for s in samples)
        assert dist.mean_bytes() == 15_000

    def test_uniform_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniformSizes(100, 10)

    def test_fixed_sizes(self):
        dist = FixedSizes(12345)
        assert dist.sample(random.Random(0)) == 12345
        assert dist.mean_bytes() == 12345


class TestPoissonWorkload:
    def make(self, **kwargs):
        defaults = dict(target_load=0.5, link_bandwidth_bps=10e9,
                        sizes=FixedSizes(10_000), num_flows=200, seed=3)
        defaults.update(kwargs)
        return WorkloadParams(**defaults)

    def test_generates_requested_flow_count(self):
        workload = PoissonWorkload(self.make(), [f"h{i}" for i in range(8)])
        flows = workload.generate()
        assert len(flows) == 200

    def test_flows_sorted_by_start_time(self):
        flows = PoissonWorkload(self.make(), ["h0", "h1", "h2"]).generate()
        times = [flow.start_time for flow in flows]
        assert times == sorted(times)

    def test_no_self_destined_flows(self):
        flows = PoissonWorkload(self.make(), ["h0", "h1", "h2", "h3"]).generate()
        assert all(flow.src != flow.dst for flow in flows)

    def test_flow_ids_unique_and_offsettable(self):
        flows = PoissonWorkload(self.make(num_flows=50), ["h0", "h1"]).generate(first_flow_id=100)
        ids = [flow.flow_id for flow in flows]
        assert len(set(ids)) == 50
        assert min(ids) == 100

    def test_deterministic_for_a_seed(self):
        hosts = ["h0", "h1", "h2"]
        a = PoissonWorkload(self.make(seed=9), hosts).generate()
        b = PoissonWorkload(self.make(seed=9), hosts).generate()
        assert [(f.src, f.dst, f.size_bytes, f.start_time) for f in a] == \
               [(f.src, f.dst, f.size_bytes, f.start_time) for f in b]

    def test_arrival_rate_matches_target_load(self):
        params = self.make(target_load=0.5)
        rate = params.per_host_arrival_rate(num_hosts=4)
        # load * bw / (mean_size_bits) = 0.5 * 10e9 / 80_000 = 62_500 flows/s.
        assert rate == pytest.approx(62_500)

    def test_offered_load_close_to_target(self):
        params = self.make(target_load=0.6, num_flows=3000)
        hosts = [f"h{i}" for i in range(6)]
        flows = PoissonWorkload(params, hosts).generate()
        duration = max(f.start_time for f in flows)
        offered_bits = sum(f.size_bytes for f in flows) * 8.0
        load = offered_bits / (duration * 10e9 * len(hosts))
        assert load == pytest.approx(0.6, rel=0.15)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WorkloadParams(target_load=0.0)
        with pytest.raises(ValueError):
            WorkloadParams(num_flows=0)
        with pytest.raises(ValueError):
            PoissonWorkload(self.make(), ["only_one_host"])


class TestIncast:
    def test_builds_fan_in_flows_to_one_destination(self):
        params = IncastParams(total_bytes=1_000_000, fan_in=10, destination="h0")
        flows = build_incast_flows(params, [f"h{i}" for i in range(20)])
        assert len(flows) == 10
        assert all(flow.dst == "h0" for flow in flows)
        assert all(flow.src != "h0" for flow in flows)
        assert all(flow.group == "incast" for flow in flows)

    def test_bytes_striped_evenly(self):
        params = IncastParams(total_bytes=1_000_000, fan_in=10, destination="h0")
        flows = build_incast_flows(params, [f"h{i}" for i in range(20)])
        assert all(flow.size_bytes == 100_000 for flow in flows)

    def test_senders_are_distinct(self):
        params = IncastParams(total_bytes=500_000, fan_in=8, destination="h1")
        flows = build_incast_flows(params, [f"h{i}" for i in range(10)])
        assert len({flow.src for flow in flows}) == 8

    def test_needs_enough_hosts(self):
        params = IncastParams(total_bytes=1_000, fan_in=5)
        with pytest.raises(ValueError):
            build_incast_flows(params, ["h0", "h1", "h2"])

    def test_unknown_destination_rejected(self):
        params = IncastParams(total_bytes=1_000, fan_in=2, destination="h99")
        with pytest.raises(ValueError):
            build_incast_flows(params, ["h0", "h1", "h2"])

    def test_request_completion_time(self):
        params = IncastParams(total_bytes=1_000, fan_in=2, destination="h0", start_time=1.0)
        flows = build_incast_flows(params, ["h0", "h1", "h2"])
        flows[0].completion_time = 1.5
        flows[1].completion_time = 2.5
        assert request_completion_time(flows) == pytest.approx(1.5)

    def test_rct_requires_every_flow_to_complete(self):
        params = IncastParams(total_bytes=1_000, fan_in=2, destination="h0")
        flows = build_incast_flows(params, ["h0", "h1", "h2"])
        with pytest.raises(RuntimeError):
            request_completion_time(flows)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            IncastParams(total_bytes=1_000, fan_in=0)
        with pytest.raises(ValueError):
            IncastParams(total_bytes=2, fan_in=5)
