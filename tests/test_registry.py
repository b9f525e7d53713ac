"""Tests for the component registries (topologies, workloads, transports,
congestion schemes) and the generic registry semantics behind them."""

import dataclasses
import enum
import sys
import types

import pytest

from repro.congestion.base import RateBasedControl
from repro.congestion.factory import (
    CONGESTION_SCHEMES,
    make_congestion_control,
    register_congestion_control,
)
from repro.core.registry import TRANSPORTS, register_transport
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.registry import DuplicateNameError, Registry, UnknownNameError, normalize_name
from repro.sim.network import Network
from repro.topology import TOPOLOGIES, register_topology
from repro.workload import WORKLOADS
from tests.helpers import in_fresh_interpreter


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


#: Every registry with declared built-ins: where it lives, its canonical
#: names in order, its aliases and each name's provider module.  Pinned here
#: as well as declared in ``src`` so neither side can move alone.
DECLARED = {
    "repro.topology.registry:TOPOLOGIES": {
        "names": ["ring", "fat_tree", "inter_dc_fattree", "star", "dumbbell",
                  "wan_dumbbell", "parking_lot"],
        "aliases": {"inter_dc_fat_tree": "inter_dc_fattree"},
        "providers": {"repro.topology.cyclic", "repro.topology.fattree",
                      "repro.topology.simple"},
    },
    "repro.workload.registry:WORKLOADS": {
        "names": ["circular", "heavy_tailed", "uniform", "fixed", "none"],
        "aliases": {},
        "providers": {"repro.workload.circular", "repro.workload.generator"},
    },
    "repro.core.registry:TRANSPORTS": {
        "names": ["roce", "iwarp", "irn", "irn_go_back_n", "irn_no_bdpfc", "irn_no_sack"],
        "aliases": {},
        "providers": {"repro.core.factory"},
    },
    "repro.congestion.registry:CONGESTION_SCHEMES": {
        "names": ["none", "dcqcn", "timely", "aimd", "dctcp"],
        "aliases": {"no_cc": "none", "off": "none"},
        "providers": {"repro.congestion.factory"},
    },
}


def declared_registry_report(where: str) -> dict:
    """In a fresh interpreter: what the registry at ``module:NAME`` answers
    before any provider is imported, and what it holds after all are."""
    module, name = where.split(":")
    return in_fresh_interpreter(f"""
        import json, sys
        from {module} import {name} as registry

        def view():
            return {{
                "names": registry.names(),
                "iter": list(registry),
                "len": len(registry),
                "aliases": {{alias: registry.canonical_name(alias)
                            for alias in registry._aliases}},
                "contains": [n in registry for n in registry.names()]
                            + [a.upper() in registry for a in registry._aliases],
                "modules": sorted(sys.modules),
            }}

        before = view()
        try:
            registry.get("no_such_name")
        except KeyError as exc:
            before["unknown"] = str(exc)
        before["modules_after_queries"] = sorted(sys.modules)
        items = dict(registry.items())
        after = view()
        after["loaded"] = sorted(sys.modules)
        after["item_names"] = list(items)
        after["provider_of"] = {{
            key: getattr(getattr(obj, "factory", None) or getattr(obj, "build", None) or obj,
                         "__module__")
            for key, obj in items.items()
        }}
        if "{name}" == "CONGESTION_SCHEMES":
            after["metadata"] = {{
                key: [obj.name, obj.needs_ecn, obj.step_marking, obj.rtt_based,
                      obj.wants_cnp, obj.max_ack_coalesce, obj.cnp_interval_rtts]
                for key, obj in items.items()
            }}
        print(json.dumps({{"before": before, "after": after,
                          "declared_providers": registry._providers}}))
    """)


class TestDeclaredBuiltins:
    @pytest.mark.parametrize("where", sorted(DECLARED))
    def test_declaration_answers_without_importing_and_matches_registration(self, where):
        expected = DECLARED[where]
        report = declared_registry_report(where)
        before, after = report["before"], report["after"]

        # Names, order, aliases and membership come from the declaration...
        assert before["names"] == before["iter"] == expected["names"]
        assert before["len"] == len(expected["names"])
        assert before["aliases"] == expected["aliases"]
        assert all(before["contains"])
        for name in expected["names"]:
            assert name in before["unknown"]
        # ...and asking for them imported no provider.
        assert not expected["providers"] & set(before["modules_after_queries"])
        assert before["modules_after_queries"] == before["modules"]

        # Loading every provider fills the declared slots in place: same
        # names, same order, same aliases, each object from its provider.
        assert expected["providers"] <= set(after["loaded"])
        assert after["names"] == after["item_names"] == expected["names"]
        assert after["aliases"] == expected["aliases"]
        assert after["provider_of"] == report["declared_providers"]
        assert set(report["declared_providers"].values()) == expected["providers"]

    def test_congestion_metadata_stays_with_the_registration(self):
        report = declared_registry_report("repro.congestion.registry:CONGESTION_SCHEMES")
        #        name      ecn    step   rtt    cnp    max_ack cnp_rtts
        assert report["after"]["metadata"] == {
            "none": ["none", False, False, False, False, None, 1.0],
            "dcqcn": ["dcqcn", True, False, False, True, None, 1.0],
            "timely": ["timely", False, False, True, False, 1, 1.0],
            "aimd": ["aimd", False, False, False, False, None, 1.0],
            "dctcp": ["dctcp", True, True, False, False, None, 1.0],
        }

    def test_plugin_against_a_real_declared_topology(self):
        report = in_fresh_interpreter("""
            import json, sys
            from repro.registry import DuplicateNameError
            from repro.topology.registry import TOPOLOGIES, register_topology

            def plugin_fat_tree(sim, config, switch_config):
                raise NotImplementedError

            try:
                register_topology("fat_tree", max_hop_count=2)(plugin_fat_tree)
                refused = False
            except DuplicateNameError:
                refused = True
            untouched = "repro.topology.fattree" not in sys.modules
            register_topology("fat_tree", max_hop_count=2, replace=True)(plugin_fat_tree)
            import repro.experiments.runner  # loads every provider
            print(json.dumps({
                "refused": refused,
                "untouched": untouched,
                "winner": TOPOLOGIES.get("fat_tree").build.__module__,
                "sibling": TOPOLOGIES.get("inter_dc_fat_tree").build.__module__,
                "names": TOPOLOGIES.names(),
            }))
        """)
        assert report == {
            "refused": True,
            "untouched": True,
            "winner": "__main__",
            "sibling": "repro.topology.fattree",
            "names": DECLARED["repro.topology.registry:TOPOLOGIES"]["names"],
        }

    @pytest.fixture()
    def provider(self):
        """A registry declaring ``alpha`` (alias ``first``) and ``beta``,
        provided by a module that exists only in ``sys.modules``."""
        registry = Registry(
            "widget",
            builtins={"alpha": "fake_widget_provider", "beta": "fake_widget_provider"},
            aliases={"first": "alpha"},
        )
        module = types.ModuleType("fake_widget_provider")
        imports = []

        def load():  # what importing the provider would execute
            imports.append(1)
            registry.register("alpha", "builtin alpha", aliases=("first",),
                              provider=module.__name__)
            registry.register("beta", "builtin beta", provider=module.__name__)

        module.load = load
        sys.modules[module.__name__] = module
        yield registry, module, imports
        del sys.modules[module.__name__]

    def test_get_loads_the_provider_once(self, provider, monkeypatch):
        registry, module, imports = provider
        monkeypatch.setattr(
            "repro.registry.import_module", lambda name: sys.modules[name].load())
        assert registry.names() == ["alpha", "beta"] and "FIRST" in registry
        assert registry.require("first") == "alpha"
        assert not imports
        assert registry.get("first") == "builtin alpha"
        assert registry.get("beta") == "builtin beta"
        assert dict(registry.items()) == {"alpha": "builtin alpha", "beta": "builtin beta"}
        assert len(imports) == 1

    def test_plugin_cannot_take_a_declared_name(self, provider):
        registry, _module, imports = provider
        with pytest.raises(DuplicateNameError, match="already registered"):
            registry.register("beta", "plugin beta")
        with pytest.raises(DuplicateNameError, match="already registered"):
            registry.register("gamma", "plugin gamma", aliases=("first",))
        assert not imports

    def test_replace_wins_and_survives_the_providers_import(self, provider, monkeypatch):
        registry, module, imports = provider
        monkeypatch.setattr(
            "repro.registry.import_module", lambda name: sys.modules[name].load())
        registry.register("beta", "plugin beta", replace=True)
        assert len(imports) == 1  # the built-in registered first, then lost
        assert registry.get("beta") == "plugin beta"
        assert registry.get("alpha") == "builtin alpha"
        assert registry.names() == ["alpha", "beta"]

    def test_provider_that_does_not_register_its_declaration_is_named(
            self, provider, monkeypatch):
        registry, module, _imports = provider
        monkeypatch.setattr("repro.registry.import_module", lambda name: None)
        with pytest.raises(ImportError, match="fake_widget_provider.*'alpha'"):
            registry.get("alpha")

    def test_provider_disagreeing_with_its_declaration_is_refused(self, provider):
        registry, module, _imports = provider
        with pytest.raises(ValueError, match=r"declared with aliases \['first'\]"):
            registry.register("alpha", "builtin alpha", provider=module.__name__)

    def test_unregister_drops_the_declaration(self, provider):
        registry, _module, imports = provider
        registry.unregister("first")
        assert registry.names() == ["beta"] and "first" not in registry
        registry.register("alpha", "plugin alpha")  # a free name again
        assert registry.get("alpha") == "plugin alpha"
        assert not imports


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
            config.physics().max_hop_count

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
        assert config.physics().max_hop_count == 3
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

class TestCustomTransport:
    """A third-party transport, registered as ``(config) -> endpoints`` from
    outside ``src/repro``: built once per run, its endpoints once per flow."""

    def test_builder_runs_once_per_run_and_the_row_is_irns(self):
        builds, flows = [], []

        @register_transport("counting_irn", replace=True)
        def build_counting_irn(config):
            builds.append(config)
            irn_endpoints = TRANSPORTS.get("irn")(config)

            def endpoints(sim, src_host, flow, *rest):
                flows.append(flow.flow_id)
                return irn_endpoints(sim, src_host, flow, *rest)

            return endpoints

        base = dict(
            topology="star",
            num_hosts=6,
            link_bandwidth_bps=10e9,
            link_delay_s=1e-6,
            workload="heavy_tailed",
            flow_size_scale=0.1,
            num_flows=40,
            target_load=0.8,
            pfc_enabled=False,
            seed=11,
            max_sim_time_s=2.0,
        )
        try:
            counted = run_experiment(ExperimentConfig(transport="counting_irn", **base))
        finally:
            TRANSPORTS.unregister("counting_irn")
        plain = run_experiment(ExperimentConfig(transport="irn", **base))

        assert len(builds) == 1 and builds[0].transport == "counting_irn"
        assert sorted(flows) == sorted(flow.flow_id for flow in counted.flows)
        assert counted.flows_completed == counted.flows_total == 40
        assert counted.transport == "counting_irn"
        assert counted.fingerprint != plain.fingerprint
        assert dataclasses.replace(
            counted.to_row(), transport="irn", fingerprint=plain.fingerprint
        ) == plain.to_row()
        assert "counting_irn" not in TRANSPORTS
