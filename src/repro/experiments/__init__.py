"""Experiment harness: configurations, runner and paper scenario presets."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    SweepProgress,
    register_execution_backend,
)
from repro.experiments.queue import QueueBackend, TaskQueue, run_worker
from repro.experiments.results import ResultRow
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.spec import (
    SCENARIOS,
    ScenarioSpec,
    register_scenario,
    scenario,
)
from repro.experiments.sweep import (
    ParameterGrid,
    ResultCache,
    SweepResult,
    aggregate_rows,
    run_sweep,
)
from repro.experiments import scenarios

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ResultRow",
    "SCENARIOS",
    "ScenarioSpec",
    "register_scenario",
    "scenario",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ParameterGrid",
    "QueueBackend",
    "ResultCache",
    "SweepProgress",
    "SweepResult",
    "TaskQueue",
    "aggregate_rows",
    "register_execution_backend",
    "run_experiment",
    "run_sweep",
    "run_worker",
    "scenarios",
]
