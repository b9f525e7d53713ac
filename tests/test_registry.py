"""Tests for the component registries (topologies, workloads, transports,
congestion schemes) and the generic registry semantics behind them."""

import enum

import pytest

from repro.congestion.base import RateBasedControl
from repro.congestion.factory import (
    CONGESTION_SCHEMES,
    make_congestion_control,
    register_congestion_control,
)
from repro.core.factory import TRANSPORTS
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.registry import DuplicateNameError, Registry, UnknownNameError, normalize_name
from repro.sim.network import Network
from repro.topology import TOPOLOGIES, register_topology
from repro.workload import WORKLOADS


class TestRegistrySemantics:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert len(registry) == 1

    def test_decorator_form_returns_the_function(self):
        registry = Registry("widget")

        @registry.register("fn")
        def fn():
            return 42

        assert fn() == 42
        assert registry.get("fn") is fn

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(DuplicateNameError, match="already registered"):
            registry.register("a", 2)
        # Explicit replace wins.
        registry.register("a", 3, replace=True)
        assert registry.get("a") == 3

    def test_alias_collision_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1, aliases=("b",))
        with pytest.raises(DuplicateNameError):
            registry.register("b", 2)

    def test_unknown_name_lists_valid_names(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownNameError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_name_is_both_keyerror_and_valueerror(self):
        registry = Registry("widget")
        with pytest.raises(KeyError):
            registry.get("nope")
        with pytest.raises(ValueError):
            registry.get("nope")

    def test_lookup_is_case_insensitive_and_alias_aware(self):
        registry = Registry("widget")
        registry.register("Alpha", 1, aliases=("first",))
        assert registry.get("alpha") == 1
        assert registry.get("ALPHA") == 1
        assert registry.get("first") == 1
        assert registry.names() == ["alpha"]  # aliases are not canonical names

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("a", 1, aliases=("b",))
        registry.unregister("a")
        assert "a" not in registry and "b" not in registry

    def test_replace_over_an_alias_promotes_it_to_canonical(self):
        registry = Registry("widget")
        registry.register("a", "old", aliases=("b",))
        registry.register("b", "new", replace=True)
        # The stale alias must not keep redirecting lookups to the old target.
        assert registry.get("b") == "new"
        assert registry.get("a") == "old"
        assert registry.names() == ["a", "b"]


class TestBuiltinRegistrations:
    @pytest.mark.parametrize("registry, names", [
        (TOPOLOGIES, ("fat_tree", "star", "dumbbell", "parking_lot")),
        (WORKLOADS, ("heavy_tailed", "uniform", "fixed", "none")),
        (TRANSPORTS, ("irn", "roce", "iwarp",
                      "irn_go_back_n", "irn_no_bdpfc", "irn_no_sack")),
        (CONGESTION_SCHEMES, ("none", "timely", "dcqcn", "aimd", "dctcp")),
    ])
    def test_every_name_the_paper_evaluates_is_registered(self, registry, names):
        for name in names:
            assert name in registry

    def test_enum_member_as_component_name_raises(self):
        # Names are strings; anything else is refused loudly instead of
        # being stringified into a different fingerprint.
        class Kind(enum.Enum):
            IRN = "irn"

        with pytest.raises(TypeError, match="component names must be strings"):
            normalize_name(Kind.IRN)
        with pytest.raises(TypeError, match="component names must be strings"):
            TRANSPORTS.get(Kind.IRN)
        with pytest.raises(TypeError, match="component names must be strings"):
            ExperimentConfig(transport=Kind.IRN)

    def test_congestion_aliases_still_work(self):
        for alias in ("none", "no_cc", "off"):
            cc = make_congestion_control(alias, 10e9, 10e-6)
            assert cc.next_send_time(0.0) == 0.0

    def test_scheme_metadata_drives_switch_config(self):
        # ECN marking follows registry metadata, not a hard-coded name check.
        dcqcn = ExperimentConfig(congestion_control="dcqcn").switch_config()
        assert dcqcn.ecn.enabled and not dcqcn.ecn.step_marking
        dctcp = ExperimentConfig(congestion_control="dctcp").switch_config()
        assert dctcp.ecn.enabled and dctcp.ecn.step_marking
        none = ExperimentConfig(congestion_control="none").switch_config()
        assert not none.ecn.enabled


class TestConfigNameCanonicalization:
    def test_unknown_component_names_stay_strings(self):
        config = ExperimentConfig(topology="not_yet_registered")
        assert config.topology == "not_yet_registered"
        with pytest.raises(UnknownNameError, match="fat_tree"):
            config.max_hop_count()

    def test_alias_spellings_canonicalize(self):
        # "off"/"no_cc" are registry aliases of "none": all three spellings
        # must run identical simulations under identical fingerprints and
        # aggregate into the same cell.
        canonical = ExperimentConfig(congestion_control="none")
        for alias in ("off", "no_cc", "OFF"):
            config = ExperimentConfig(congestion_control=alias)
            assert config.congestion_control == "none", alias
            assert config.fingerprint() == canonical.fingerprint()

    def test_unknown_component_names_normalize_case(self):
        # Registries lowercase their keys, so case variants of one custom
        # component must serialize (fingerprint, aggregate) identically.
        upper = ExperimentConfig(congestion_control="Swift")
        lower = ExperimentConfig(congestion_control="swift")
        assert upper.congestion_control == "swift"
        assert upper.fingerprint() == lower.fingerprint()

    def test_keep_flow_records_excluded_from_fingerprint(self):
        # An execution/memory knob must not invalidate warm sweep caches.
        assert (
            ExperimentConfig(keep_flow_records=False).fingerprint()
            == ExperimentConfig(keep_flow_records=True).fingerprint()
        )


class TestCustomComponentsEndToEnd:
    """A user-defined topology + congestion scheme, registered from outside
    ``src/repro`` and swept without modifying any repro module."""

    @pytest.fixture()
    def custom_components(self):
        @register_topology("test_triangle", max_hop_count=3, switch_radix=4)
        def build_triangle(sim, config, switch_config):
            network = Network(sim)
            for switch in ("s0", "s1", "s2"):
                network.add_switch(switch, config=switch_config)
            network.connect("s0", "s1", config.link_bandwidth_bps, config.link_delay_s)
            network.connect("s1", "s2", config.link_bandwidth_bps, config.link_delay_s)
            for i, switch in enumerate(("s0", "s1", "s2")):
                host = f"h{i}"
                network.add_host(host)
                network.connect(host, switch, config.link_bandwidth_bps, config.link_delay_s)
            network.build_routing()
            return network

        @register_congestion_control("test_quarter_rate")
        def make_quarter_rate(line_rate_bps, base_rtt_s, params=None):
            cc = RateBasedControl(line_rate_bps)
            cc.rate_bps = line_rate_bps / 4
            return cc

        yield
        TOPOLOGIES.unregister("test_triangle")
        CONGESTION_SCHEMES.unregister("test_quarter_rate")

    def test_custom_topology_and_scheme_run(self, custom_components):
        config = ExperimentConfig(
            name="custom",
            topology="test_triangle",
            congestion_control="test_quarter_rate",
            num_hosts=3,
            pfc_enabled=False,
            workload="fixed",
            fixed_size_bytes=20_000,
            num_flows=6,
            max_sim_time_s=1.0,
        )
        assert config.max_hop_count() == 3
        result = run_experiment(config)
        assert result.completion_fraction() == 1.0
        row = result.to_row()
        assert row.topology == "test_triangle"
        assert row.congestion_control == "test_quarter_rate"

    def test_custom_components_sweep_and_fingerprint(self, custom_components):
        from repro.experiments.sweep import run_sweep

        base = ExperimentConfig(
            topology="test_triangle",
            congestion_control="test_quarter_rate",
            num_hosts=3,
            workload="fixed",
            fixed_size_bytes=20_000,
            num_flows=4,
            max_sim_time_s=1.0,
        )
        configs = {f"seed {s}": base.with_overrides(seed=s) for s in (1, 2)}
        # Serial sweep: in-process registrations do not cross process pools.
        sweep = run_sweep(configs, workers=1)
        assert len(sweep) == 2
        assert all(row.completion_fraction() == 1.0 for row in sweep.rows.values())
        # String component names fingerprint deterministically.
        assert base.fingerprint() == base.with_overrides().fingerprint()