"""What each entry point imports, as exact module sets (not timings).

Two rules hold the start-up cost down (``docs/architecture.md``, "What each
entry point imports"):

* *declarations never import implementations* -- expanding, fingerprinting,
  looking up and reporting cells loads no simulator, no HTTP stack and no
  process pool;
* *the module that simulates loads everything before the first cell* -- after
  ``import repro.api`` a ``run_experiment`` call imports nothing, so no
  import can migrate from set-up into timed work.

Every case runs in a fresh interpreter and reads back ``sys.modules``.
"""

import importlib
import subprocess
import sys
import textwrap

import pytest

from tests.helpers import in_fresh_interpreter

#: Loaded by nothing that does not simulate, serve or fan out.
NOT_ON_THE_READ_PATH = frozenset({
    "repro.sim.engine", "repro.sim.switch", "repro.sim.host", "repro.sim.network",
    "repro.sim.routing",
    "repro.core.transport", "repro.core.irn", "repro.core.roce", "repro.core.iwarp",
    "repro.congestion.dcqcn", "repro.congestion.timely", "repro.congestion.window",
    "repro.topology.fattree", "repro.topology.simple", "repro.topology.cyclic",
    "repro.workload.generator",
    "repro.metrics.collector",
    "repro.experiments.runner", "repro.experiments.queue",
    "repro.serve.server",
    "http.server", "concurrent.futures.process", "multiprocessing", "ssl", "email",
})

#: ``repro.*`` modules a fully cached ``repro run`` may load (57 before the
#: facades went lazy; 30 when this was written).
WARM_RUN_MODULE_BUDGET = 35

LAZY_PACKAGES = (
    "repro", "repro.api", "repro.sim", "repro.core", "repro.congestion",
    "repro.topology", "repro.workload", "repro.metrics", "repro.experiments",
    "repro.serve",
)


def modules_after(body: str) -> dict:
    """Run ``body`` in a new interpreter; it leaves a dict named ``report``,
    returned here with ``sys.modules`` added under ``"modules"``."""
    return in_fresh_interpreter(textwrap.dedent(body) + textwrap.dedent("""
        import json as _json, sys as _sys
        report["modules"] = sorted(_sys.modules)
        print(_json.dumps(report))
    """))


def cli_in_fresh_interpreter(*argv: str) -> dict:
    """``python -m repro <argv>`` through ``runpy``, so the module set can be
    read back after ``main`` returns."""
    return modules_after(f"""
        import contextlib, io, runpy, sys
        sys.argv = ["repro", *{list(argv)!r}]
        report = {{}}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:
                report["exit"] = exc.code
        report["stdout"] = out.getvalue()
    """)


def repro_modules(report: dict) -> set:
    return {name for name in report["modules"] if name.split(".")[0] == "repro"}


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("import-graph-cache")
    args = ("run", "table3", "--workers", "1", "--cache", str(cache),
            "--set", "workload=fixed", "--set", "num_flows=3")
    cold = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    assert "(36 simulated, 0 from cache" in cold.stdout
    return args


class TestReadPathsLoadNoSimulator:
    def test_warm_run(self, filled_cache):
        report = cli_in_fresh_interpreter(*filled_cache)
        assert report["exit"] == 0
        assert "(0 simulated, 36 from cache" in report["stdout"]
        assert not NOT_ON_THE_READ_PATH & set(report["modules"])
        assert len(repro_modules(report)) <= WARM_RUN_MODULE_BUDGET

    def test_list(self):
        report = cli_in_fresh_interpreter("list")
        assert report["exit"] == 0
        assert "table3" in report["stdout"]
        assert not NOT_ON_THE_READ_PATH & set(report["modules"])

    @pytest.mark.parametrize("module", ["repro.serve.server", "repro.experiments.sweep"])
    def test_service_and_sweep_layer_never_import_the_runner(self, module):
        # What serve/server.py ("Zero simulation"), sweep._run_cell and
        # docs/architecture.md claim in prose.
        report = modules_after(f"""
            import {module}
            report = {{}}
        """)
        assert not {"repro.experiments.runner", "repro.sim.engine"} & set(report["modules"])


class TestTheRunnerLoadsEverythingUpFront:
    def test_no_cell_imports_anything_after_import_repro_api(self):
        report = modules_after("""
            import sys
            import repro.api as api

            fig4 = api.load_scenario("fig4").configs(num_flows=6)
            cells = {
                "fig4 IRN +timely": fig4["IRN +timely"],
                "fig4 RoCE +dcqcn": fig4["RoCE +dcqcn"],
                "fig9 M=15": api.load_scenario("fig9").configs(
                    incast={"total_bytes": 150_000, "fan_in": 15})["IRN M=15"],
                "flap": api.load_scenario("availability_flap").configs(
                    num_flows=40)["4 flaps|IRN (without PFC)"],
                "deadlock": next(iter(
                    api.load_scenario("pfc_deadlock").configs(num_flows=12).values())),
            }
            before = set(sys.modules)
            rows = {label: api.run_experiment(config).to_row(label)
                    for label, config in cells.items()}
            report = {
                "added": sorted(set(sys.modules) - before),
                "faults_ran": rows["flap"].faults_enabled,
                "events": {label: row.events_processed for label, row in rows.items()},
            }
        """)
        assert report["faults_ran"]
        assert all(report["events"].values())
        assert report["added"] == []

    def test_import_repro_api_loads_no_http_stack_or_queue(self):
        report = modules_after("""
            import repro.api
            report = {}
        """)
        loaded = set(report["modules"])
        assert "repro.experiments.runner" in loaded and "repro.sim.engine" in loaded
        assert not {"repro.serve.server", "repro.experiments.queue", "http.server",
                    "concurrent.futures.process", "multiprocessing", "ssl",
                    "email"} & loaded


class TestFacadesKeepTheirSurface:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name

    def test_from_imports_work_in_a_fresh_interpreter(self):
        report = modules_after("""
            from repro import run_experiment
            from repro.experiments import scenarios
            from repro.api import ResultsService
            import repro, repro.experiments

            report = {
                "run_experiment": run_experiment.__module__,
                "scenarios": scenarios.__name__,
                "service": ResultsService.__module__,
                # A resolved name is stored on the package: one import each.
                "cached": "run_experiment" in vars(repro)
                          and "scenarios" in vars(repro.experiments),
            }
        """)
        assert report["run_experiment"] == "repro.experiments.runner"
        assert report["scenarios"] == "repro.experiments.scenarios"
        assert report["service"] == "repro.serve.server"
        assert report["cached"]
