"""The workload registry: name -> flow-list builder.

A registered workload is a callable ``(config, hosts) -> List[Flow]`` that
builds the *background* flow list for an experiment (the incast request, when
configured, is layered on top by the runner).  ``config`` is duck-typed --
builders read whatever :class:`~repro.experiments.config.ExperimentConfig`
fields they need -- so this module never imports the experiment layer.

Register a new traffic pattern without touching the runner::

    from repro.workload import register_workload

    @register_workload("all_to_one")
    def all_to_one(config, hosts):
        return [Flow(...), ...]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Sequence

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transport import Flow

__all__ = ["WORKLOADS", "register_workload"]

#: ``(config, hosts) -> flows`` builders for background traffic.
WorkloadBuilder = Callable[[Any, Sequence[str]], List["Flow"]]

WORKLOADS: Registry[WorkloadBuilder] = Registry(
    "workload",
    builtins={
        "circular": "repro.workload.circular",
        "heavy_tailed": "repro.workload.generator",
        "uniform": "repro.workload.generator",
        "fixed": "repro.workload.generator",
        "none": "repro.workload.generator",
    },
)


def register_workload(name: str, *, aliases: Sequence[str] = (), replace: bool = False):
    """Decorator registering a background-workload builder under ``name``."""
    return WORKLOADS.register(name, aliases=aliases, replace=replace)
