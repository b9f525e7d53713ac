"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on a scaled-down
fabric (see README.md for the benchmark-to-figure map and the scaling
rationale) and prints the rows in the same shape the paper reports, so
paper-vs-measured comparisons can be read side by side.  ``pytest-benchmark``
measures the wall-clock cost of each scenario; simulations run exactly once
(rounds=1) because a single run is already seconds long and deterministic for
its seed.

Scenarios execute through :func:`repro.experiments.sweep.run_sweep`, which
fans the independent cells of a figure out across worker processes and hands
back flat :class:`ResultRow` records -- including the quantile digests that
distributional benchmarks (Figure 8's tail CDF) assert against, so no
benchmark needs the collector an in-process result keeps.  Set
``REPRO_BENCH_WORKERS=1`` to force the serial path (results are bit-identical
either way).  Benchmarks pass no cache by default -- the wall-clock
measurement must time real simulator runs -- but ``REPRO_BENCH_CACHE=<dir>``
opts into the code-aware disk cache for iterative local analysis.

Table and CDF rendering lives in :mod:`repro.metrics.report`; the wrappers
here only add ``print`` so ``pytest -s`` shows the tables.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultRow
from repro.experiments.sweep import aggregate_rows, run_sweep
from repro.metrics.report import format_metric_table, format_ratio_table

#: Flow count used by benchmark scenarios (smaller than the library default
#: so the full suite of ~20 benchmarks finishes in minutes).
BENCH_FLOWS = 120


def _bench_workers() -> Optional[int]:
    value = os.environ.get("REPRO_BENCH_WORKERS")
    return int(value) if value else None


def _bench_cache() -> Optional[str]:
    return os.environ.get("REPRO_BENCH_CACHE") or None


def run_scenarios(
    benchmark,
    configs: Dict[str, ExperimentConfig],
) -> Dict[str, ResultRow]:
    """Sweep every config once inside the benchmark timer; flat rows out."""

    def _run_all() -> Dict[str, ResultRow]:
        return dict(run_sweep(configs, workers=_bench_workers(), cache=_bench_cache()).rows)

    return benchmark.pedantic(_run_all, rounds=1, iterations=1)


def aggregate_by_scheme(
    base_configs: Dict[str, ExperimentConfig],
    rows: Mapping[str, ResultRow],
) -> Dict[str, Dict]:
    """Fold seed replicas back into one aggregate record per scenario label.

    Replicas share their scenario's config ``name`` (the seed override does
    not change it), so grouping on ``name`` and mapping back through
    ``base_configs`` yields paper-style means with replica counts under the
    original human-readable labels.
    """
    by_name = {record["name"]: record for record in aggregate_rows(rows.values(), by=("name",))}
    return {label: by_name[config.name] for label, config in base_configs.items()}


def print_metric_table(title: str, results: Dict[str, ResultRow]) -> None:
    """Print the paper's three metrics for each scheme."""
    print()
    print(format_metric_table(title, results))


def print_ratio_rows(
    title: str,
    rows: Dict[str, Dict[str, ResultRow]],
) -> None:
    """Print appendix-style rows: IRN absolute values plus the two ratios."""
    print()
    print(format_ratio_table(title, rows))


def assert_all_completed(results: Dict[str, ResultRow]) -> None:
    """Every injected flow must have finished within the simulated horizon."""
    for label, result in results.items():
        assert result.completion_fraction() == pytest.approx(1.0), (
            f"{label}: only {result.completion_fraction():.0%} of flows completed"
        )
