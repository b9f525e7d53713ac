"""The one-stop facade over the experiment stack.

Everything a user (or an orchestration layer) needs to define, resolve and
run scenarios, in one import::

    import repro.api as repro

    # Run a paper scenario end-to-end: sweep -> aggregate -> report.
    sweep = repro.load_scenario("fig8").sweep(seeds=3, workers=4,
                                              cache=".sweep-cache/fig8")
    print(repro.format_metric_table("Figure 8", sweep.rows))

    # Plug in new components without touching any repro module.
    @repro.register_topology("ring", max_hop_count=4, switch_radix=4)
    def build_ring(sim, config, switch_config): ...

    @repro.register_congestion_control("swift", rtt_based=True)
    def make_swift(line_rate_bps, base_rtt_s, params=None): ...

    spec = repro.ScenarioSpec(name="mine", defaults={"topology": "ring"},
                              variants={"swift": {"congestion_control": "swift"}})
    repro.register_scenario(spec)
    repro.load_scenario("mine").sweep(workers=1)   # see note below

The same surface drives the command line: ``python -m repro run <scenario>``
(see :mod:`repro.__main__`).

Note: registrations are process-local.  Components registered in a script
(rather than an importable module) require ``workers=1`` when sweeping --
parallel worker processes re-import a clean registry, and on spawn-based
platforms (macOS/Windows) every cell would fail with an unknown-name error.

Importing this module loads the whole *simulation* surface (so the first
``run_experiment`` call imports nothing); the work-queue and results-service
names (``QueueBackend``, ``TaskQueue``, ``run_worker``, ``ResultsService``,
``make_server``, ``catalog_entries``, ``format_catalog``) resolve on first
use, so a script that only simulates never loads ``http.server`` or the
queue machinery.
"""

from __future__ import annotations

from typing import List

from repro._lazy import lazy_exports
from repro.congestion.factory import make_congestion_control
from repro.congestion.registry import (
    CONGESTION_SCHEMES,
    CongestionScheme,
    register_congestion_control,
)
from repro.core.registry import TRANSPORTS, register_transport
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.experiments.spec import (
    SCENARIOS,
    ScenarioSpec,
    register_scenario,
    scenario as load_scenario,
)
from repro.experiments.sweep import (
    ParameterGrid,
    ResultCache,
    SweepProgress,
    SweepResult,
    aggregate_rows,
    run_sweep,
)
from repro.metrics.partial import PartialAggregator
from repro.metrics.report import (
    format_aggregate_table,
    format_incast_table,
    format_metric_table,
    format_tail_cdf,
)
from repro.topology.registry import TOPOLOGIES, register_topology
from repro.workload.registry import WORKLOADS, register_workload

__getattr__, __dir__ = lazy_exports(__name__, {
    "QueueBackend": "repro.experiments.queue",
    "TaskQueue": "repro.experiments.queue",
    "run_worker": "repro.experiments.queue",
    "ResultsService": "repro.serve.server",
    "catalog_entries": "repro.serve.catalog",
    "format_catalog": "repro.serve.catalog",
    "make_server": "repro.serve.server",
})[:2]

__all__ = [
    # scenarios
    "SCENARIOS",
    "ScenarioSpec",
    "list_scenarios",
    "load_scenario",
    "register_scenario",
    # execution
    "ExperimentConfig",
    "ExperimentResult",
    "ParameterGrid",
    "QueueBackend",
    "ResultCache",
    "SweepProgress",
    "SweepResult",
    "TaskQueue",
    "aggregate_rows",
    "run_experiment",
    "run_sweep",
    "run_worker",
    # component registries
    "CONGESTION_SCHEMES",
    "CongestionScheme",
    "PartialAggregator",
    "TOPOLOGIES",
    "TRANSPORTS",
    "WORKLOADS",
    "make_congestion_control",
    "register_congestion_control",
    "register_topology",
    "register_transport",
    "register_workload",
    # reporting & serving
    "ResultsService",
    "catalog_entries",
    "format_aggregate_table",
    "format_catalog",
    "format_incast_table",
    "format_metric_table",
    "format_tail_cdf",
    "make_server",
]


def list_scenarios() -> List[str]:
    """Names of every registered scenario (paper presets load on demand)."""
    import repro.experiments.scenarios  # noqa: F401  (self-registration)

    return SCENARIOS.names()
