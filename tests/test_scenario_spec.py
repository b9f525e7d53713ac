"""Tests for the declarative scenario layer: ScenarioSpec, the SCENARIOS
registry, the repro.api facade and the ``python -m repro`` CLI."""

import enum
import hashlib
import json

import pytest

import repro.api as api
from repro.experiments.config import ExperimentConfig
from repro.experiments.spec import SCENARIOS, ScenarioSpec, register_scenario, scenario
from repro.registry import UnknownNameError

#: Every figure/table scenario shipped with the paper presets.
PAPER_SCENARIOS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "no_sack",
    "fig8", "fig9", "incast_cross_traffic", "fig10", "fig11", "fig12",
    "table3", "table4", "table5", "table6", "table7", "table8", "table9",
)

#: Every scenario ``repro.experiments.scenarios`` registers, in its order.
SHIPPED_SCENARIOS = PAPER_SCENARIOS + (
    "pfc_deadlock", "availability_flap", "availability_corruption",
    "wan_incast", "cross_dc",
)


class TestScenarioRegistry:
    def test_every_paper_scenario_is_resolvable_by_name(self):
        for name in PAPER_SCENARIOS:
            spec = api.load_scenario(name)
            assert spec.name == name
            assert spec.configs()  # every spec builds at least one cell

    def test_list_scenarios_covers_the_presets(self):
        names = api.list_scenarios()
        for name in PAPER_SCENARIOS:
            assert name in names

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(UnknownNameError, match="fig8"):
            api.load_scenario("fig99")

    def test_register_scenario_roundtrip(self):
        spec = ScenarioSpec(
            name="test_tmp_scenario",
            variants={"only": {"transport": "irn"}},
        )
        register_scenario(spec)
        try:
            assert scenario("test_tmp_scenario") is spec
        finally:
            SCENARIOS.unregister("test_tmp_scenario")


class TestSpecConfigs:
    def test_flat_labels(self):
        assert list(scenario("fig1").configs()) == [
            "RoCE (with PFC)", "IRN (without PFC)"
        ]
        assert list(scenario("fig8").configs())[:3] == [
            "RoCE (with PFC) +none", "IRN with PFC +none", "IRN (without PFC) +none"
        ]
        assert list(scenario("fig9").configs())[:2] == ["RoCE M=5", "IRN M=5"]

    def test_table_shape(self):
        table = scenario("table3").tables()
        assert list(table) == ["30%", "50%", "70%", "90%"]
        for row in table.values():
            assert set(row) == {"IRN", "IRN+PFC", "RoCE+PFC"}
        with pytest.raises(ValueError, match="has no rows"):
            scenario("fig1").tables()

    def test_overrides_apply_to_every_cell_and_win(self):
        configs = scenario("fig1").configs(num_flows=7, pfc_enabled=False)
        assert all(c.num_flows == 7 for c in configs.values())
        # Call overrides beat variant overrides.
        assert not configs["RoCE (with PFC)"].pfc_enabled

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig field"):
            scenario("fig1").configs(num_flowz=7)
        with pytest.raises(ValueError, match="unknown ExperimentConfig field"):
            ScenarioSpec(name="bad", variants={"v": {"not_a_field": 1}})

    def test_every_preset_fingerprint_is_pinned(self):
        # Every replica of every shipped scenario, in registry order:
        # scenario, label, cell name and config fingerprint.  The digest was
        # recorded before the component fields became plain strings and the
        # fingerprint omissions became a table; it moves only when a preset
        # or the fingerprint rule changes, and then every cached row and
        # pinned row digest moves with it.
        names = SHIPPED_SCENARIOS
        # The presets register when repro.experiments is imported, so they
        # come before anything another test module registered.
        assert tuple(api.list_scenarios()[:len(names)]) == names
        digest = hashlib.sha256()
        cells = replicas = 0
        for name in names:
            spec = scenario(name)
            cells += len(spec.configs())
            for label, config in spec.replicated().items():
                replicas += 1
                digest.update(
                    f"{name}\t{label}\t{config.name}\t{config.fingerprint()}\n".encode()
                )
        assert (len(names), cells, replicas) == (26, 134, 402)
        assert digest.hexdigest() == (
            "b70f4a93349e469e2bbf1433be84c8f3feaed459c3997e591fd5a884d1b64841"
        )

    @pytest.mark.parametrize("field, spelling", [
        ("transport", "IRN"),
        ("congestion_control", "off"),
        ("congestion_control", "NO_CC"),
        ("topology", "Fat_Tree"),
        ("workload", "HEAVY_TAILED"),
    ])
    def test_alias_and_case_spellings_share_the_canonical_fingerprint(self, field, spelling):
        canonical = ExperimentConfig()
        respelled = ExperimentConfig(**{field: spelling})
        assert getattr(respelled, field) == getattr(canonical, field)
        assert respelled.fingerprint() == canonical.fingerprint()

    def test_fig9_names_and_incast(self):
        configs = scenario("fig9").configs()
        assert configs["RoCE M=10"].name == "incast-roce-m10"
        assert configs["IRN M=15"].incast.fan_in == 15
        assert configs["IRN M=15"].workload == "none"

    def test_every_scenario_default_is_runnable(self):
        # The CLI exposes every registered scenario at its defaults; each
        # cell must at least generate a valid flow list on its topology
        # (fig9's M=20 on a 16-host fabric used to crash here).
        from repro.experiments.runner import _build_network, _generate_flows
        from repro.sim.engine import Simulator

        for name in PAPER_SCENARIOS:
            for label, config in scenario(name).configs(num_flows=4).items():
                network = _build_network(Simulator(seed=1), config)
                flows = _generate_flows(config, network)
                assert flows, f"{name}:{label} generated no flows"

    def test_table_cell_names_are_unique(self):
        configs = scenario("table3").configs()
        names = [c.name for c in configs.values()]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name", PAPER_SCENARIOS)
    def test_every_scenario_has_unique_cell_names(self, name):
        # Names define aggregation cells: two distinct cells sharing a name
        # would silently average together when seed replicas are folded.
        configs = scenario(name).configs()
        names = [c.name for c in configs.values()]
        assert len(set(names)) == len(names), names

    def test_auto_name_collisions_get_variant_suffix(self):
        # fig12's two IRN variants differ only in the overheads flag, which
        # the transport-cc-pfc auto name does not encode.
        configs = scenario("fig12").configs()
        assert configs["IRN (no overheads)"].name == (
            "irn-none-nopfc|IRN (no overheads)"
        )
        assert configs["IRN (worst-case overheads)"].name == (
            "irn-none-nopfc|IRN (worst-case overheads)"
        )
        # Unambiguous cells keep the plain name.
        assert configs["RoCE (with PFC)"].name == "roce-none-pfc"

    def test_spec_aggregate_keeps_distinct_flat_cells_apart(self):
        spec = ScenarioSpec(
            name="test_name_collision",
            defaults={"topology": "star", "num_hosts": 4, "workload": "fixed",
                      "fixed_size_bytes": 20_000, "max_sim_time_s": 1.0,
                      "pfc_enabled": False},
            variants={"small": {"num_flows": 4}, "large": {"num_flows": 8}},
            seeds=(1, 2),
        )
        sweep = spec.sweep(workers=1)
        records = spec.aggregate(sweep)
        assert len(records) == 2  # not silently merged into one cell
        assert all(record["replicas"] == 2 for record in records)


class TestSpecSerialization:
    @pytest.mark.parametrize("name", PAPER_SCENARIOS)
    def test_json_roundtrip_preserves_spec_and_configs(self, name):
        spec = scenario(name)
        payload = json.dumps(spec.to_dict())          # must be JSON-safe
        rebuilt = ScenarioSpec.from_dict(json.loads(payload))
        assert rebuilt == spec
        original = spec.configs()
        restored = rebuilt.configs()
        assert list(original) == list(restored)
        assert [c.fingerprint() for c in original.values()] == [
            c.fingerprint() for c in restored.values()
        ]

    def test_enum_override_is_refused_not_stringified(self):
        class Transport(enum.Enum):
            ROCE = "roce"

        spec = ScenarioSpec(name="enum_spec", variants={"v": {"transport": Transport.ROCE}})
        with pytest.raises(TypeError, match="component names must be strings"):
            spec.configs()

    def test_from_dict_rejects_extra_keys(self):
        with pytest.raises(TypeError):
            ScenarioSpec.from_dict({"name": "x", "variants": {"v": {}}, "bogus": 1})


class TestSeedsAndSweep:
    def test_replicated_expands_spec_seeds(self):
        spec = scenario("fig8")
        assert spec.seeds == (1, 2, 3)
        replicas = spec.replicated(num_flows=10)
        assert len(replicas) == 3 * len(spec.variants)
        assert "RoCE (with PFC) +none [seed=2]" in replicas
        assert replicas["RoCE (with PFC) +none [seed=2]"].seed == 2
        # Replicas share their cell's name, so they aggregate together.
        names = {label: c.name for label, c in replicas.items()
                 if label.startswith("RoCE (with PFC) +none")}
        assert len(set(names.values())) == 1

    def test_seeds_as_int_means_one_through_n(self):
        replicas = scenario("fig1").replicated(seeds=2, num_flows=10)
        seeds = {c.seed for c in replicas.values()}
        assert seeds == {1, 2}

    def test_no_seeds_means_no_expansion(self):
        # Every registered paper scenario now carries a seed axis, so build a
        # seedless spec directly.
        spec = ScenarioSpec(
            name="seedless",
            variants={"A": {"transport": "irn"}, "B": {"transport": "roce"}},
        )
        configs = spec.replicated(num_flows=10)
        assert list(configs) == list(spec.configs())

    def test_explicit_seed_override_disables_default_axis(self):
        # A pinned seed=9 must actually run, not be silently replaced by the
        # spec's (1, 2, 3) axis.
        configs = scenario("fig1").replicated(num_flows=10, seed=9)
        assert all(c.seed == 9 for c in configs.values())
        assert list(configs) == list(scenario("fig1").configs())
        # An explicit seeds= argument still wins over the override.
        expanded = scenario("fig1").replicated(seeds=2, num_flows=10, seed=9)
        assert {c.seed for c in expanded.values()} == {1, 2}

    def test_spec_sweep_runs_end_to_end(self, tmp_path):
        spec = ScenarioSpec(
            name="test_sweep_spec",
            defaults={"topology": "star", "num_hosts": 4, "workload": "fixed",
                      "fixed_size_bytes": 20_000, "num_flows": 4,
                      "max_sim_time_s": 1.0, "pfc_enabled": False},
            variants={"IRN": {"transport": "irn"},
                      "RoCE": {"transport": "roce", "pfc_enabled": True}},
            seeds=(1, 2),
        )
        sweep = spec.sweep(workers=1, cache=tmp_path / "cache")
        assert len(sweep) == 4
        records = spec.aggregate(sweep)
        assert {record["name"] for record in records} == {
            "irn-none-nopfc", "roce-none-pfc"
        }
        for record in records:
            assert record["replicas"] == 2
            assert record["avg_slowdown_ci95"] >= 0.0
        # Second sweep is fully cache-served.
        again = spec.sweep(workers=1, cache=tmp_path / "cache")
        assert again.runs_executed == 0

    def test_spec_runs_stream_their_summaries(self):
        spec = ScenarioSpec(
            name="test_stream_spec",
            defaults={"topology": "star", "num_hosts": 4, "workload": "fixed",
                      "fixed_size_bytes": 20_000, "num_flows": 4,
                      "max_sim_time_s": 1.0},
            variants={"IRN": {"transport": "irn", "pfc_enabled": False}},
        )
        (config,) = spec.configs().values()
        from repro.experiments.runner import run_experiment

        result = run_experiment(config)
        stats = result.collector.stream()
        assert result.summary.num_flows == stats.count == 4
        assert result.to_row().fct_digest == stats.fct_digest.to_dict()


class TestCli:
    def test_run_tiny_scenario_serial_no_cache(self, capsys):
        from repro.__main__ import main

        code = main([
            "run", "fig1", "--set", "num_flows=12", "--seeds", "1",
            "--workers", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 runs (2 simulated, 0 from cache" in out
        assert "RoCE (with PFC) [seed=1]" in out

    def test_run_unknown_scenario_fails_helpfully(self, capsys):
        from repro.__main__ import main

        code = main(["run", "not_a_scenario"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown scenario")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--set", "bogus_field=1"], "unknown ExperimentConfig field(s) ['bogus_field']"),
        (["--set", "workload=nosuch"], "unknown workload 'nosuch'; registered workloads: "),
        (["--seeds", "0"], "argument --seeds: must be at least 1, got 0"),
        (["--seeds", "-2"], "argument --seeds: must be at least 1, got -2"),
    ])
    def test_user_errors_exit_2_with_one_line_before_any_cell_runs(self, argv, message):
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table3", "--workers", "1",
             "--set", "num_flows=3", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""  # nothing ran, nothing was reported
        assert "Traceback" not in done.stderr
        last_line = done.stderr.splitlines()[-1]
        assert "error: " in last_line and message in last_line

    @pytest.mark.parametrize("setting, message", [
        ("max_sim_time_s=NaN", "max_sim_time_s must be a finite number, got nan"),
        ("rto_low_s=0", "rto_low_s must be positive"),
        ("bdp_cap_packets=0", "bdp_cap_packets must be >= 1"),
        ("mtu_bytes=0", "mtu_bytes must be >= 1"),
        ("link_bandwidth_bps=0", "link_bandwidth_bps must be positive"),
        ("link_delay_s=-1e-6", "link_delay_s must be >= 0"),
        ("wan_delay_s=-1e-3", "wan_delay_s must be >= 0"),
    ])
    def test_non_finite_override_exits_2_and_caches_nothing(self, tmp_path, setting, message):
        import subprocess
        import sys

        cache = tmp_path / "cache"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table3", "--workers", "1",
             "--cache", str(cache), "--set", "num_flows=3", "--set", setting],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1] == f"error: {message}"
        assert not cache.exists() or not any(cache.rglob("*"))

    def test_a_closed_stdout_pipe_exits_quietly(self, tmp_path):
        # ``repro run fig1 | head -1``: the reader is gone before the output
        # is written.  Here the read end is closed before the child starts.
        import os
        import subprocess
        import sys

        run = ["run", "fig1", "--seeds", "1", "--set", "num_flows=12", "--workers", "1",
               "--cache", str(tmp_path / "cache")]
        warm = subprocess.run([sys.executable, "-m", "repro", *run],
                              capture_output=True, text=True, timeout=300)
        assert warm.returncode == 0, warm.stderr
        for argv in (["list"], run):  # the second run is fully cached
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run([sys.executable, "-m", "repro", *argv],
                                      stdout=write_end, stderr=subprocess.PIPE,
                                      timeout=300)
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr.decode()) == (0, ""), argv

    def test_list_names_every_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_SCENARIOS:
            assert name in out

    def test_name_override_warns_about_pooled_aggregates(self, capsys):
        from repro.__main__ import main

        code = main([
            "run", "fig1", "--set", "num_flows=8", "--seeds", "1",
            "--workers", "1", "--set", "name=x",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "every cell the same name" in out

    def test_row_axis_override_warns(self, capsys):
        from repro.__main__ import main

        code = main([
            "run", "table5", "--set", "num_flows=8", "--seeds", "1",
            "--workers", "1", "--set", "fat_tree_k=4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "collapses table5's row sweep" in out

    def test_set_overrides_parse_json_and_strings(self):
        from repro.__main__ import _parse_set_overrides

        parsed = _parse_set_overrides(["target_load=0.9", "workload=uniform"])
        assert parsed == {"target_load": 0.9, "workload": "uniform"}
        with pytest.raises(SystemExit):
            _parse_set_overrides(["missing-equals"])