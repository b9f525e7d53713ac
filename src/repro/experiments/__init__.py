"""Experiment harness: configurations, runner and paper scenario presets."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ExperimentConfig": "repro.experiments.config",
    "ExperimentResult": "repro.experiments.runner",
    "ResultRow": "repro.experiments.results",
    "SCENARIOS": "repro.experiments.spec",
    "ScenarioSpec": "repro.experiments.spec",
    "register_scenario": "repro.experiments.spec",
    "scenario": "repro.experiments.spec",
    "QueueBackend": "repro.experiments.queue",
    "ResultCache": "repro.experiments.sweep",
    "SweepProgress": "repro.experiments.sweep",
    "SweepResult": "repro.experiments.sweep",
    "TaskQueue": "repro.experiments.queue",
    "aggregate_rows": "repro.experiments.sweep",
    "run_experiment": "repro.experiments.runner",
    "run_sweep": "repro.experiments.sweep",
    "run_worker": "repro.experiments.queue",
    "scenarios": "repro.experiments.scenarios",
})
