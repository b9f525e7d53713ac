"""The topology registry: name -> :class:`TopologyBuilder`.

A registered topology is a builder callable plus the two pieces of metadata
:class:`~repro.experiments.config.ExperimentConfig` needs to derive RTOs,
buffer sizes and the BDP cap without hard-coding per-topology branches:

* ``max_hop_count(config)`` -- hops on the longest host-to-host path;
* ``switch_radix(config)`` -- ports per switch (bounds how many inputs can
  congest one output, which sizes RTO_high);
* ``path_delay_s(config)`` -- optional one-way propagation delay of the
  longest path, for fabrics with heterogeneous per-link delays (WAN
  topologies).  ``None`` (the default, and every pre-existing topology)
  means homogeneous links: the config derives the delay as
  ``max_hop_count * link_delay_s`` exactly as before.

Builders take ``(sim, config, switch_config)`` and return a wired
:class:`~repro.sim.network.Network`; ``config`` is duck-typed (any object
with the fields the builder reads), so this module never imports the
experiment layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.switch import SwitchConfig

__all__ = ["TOPOLOGIES", "TopologyBuilder", "register_topology"]

#: Either a constant or a per-config derivation of a topology property.
ConfigMetric = Union[int, Callable[[Any], int]]

#: Optional per-config delay metadata (seconds); ``None`` = homogeneous links.
ConfigDelay = Union[float, Callable[[Any], float], None]


def _as_metric(value: ConfigMetric) -> Callable[[Any], int]:
    if callable(value):
        return value
    return lambda config, _value=value: _value


def _as_delay(value: ConfigDelay) -> "Callable[[Any], float] | None":
    if value is None or callable(value):
        return value
    return lambda config, _value=value: _value


@dataclass(frozen=True)
class TopologyBuilder:
    """A buildable topology family plus the metadata the config layer needs."""

    name: str
    build: Callable[["Simulator", Any, "SwitchConfig"], "Network"]
    max_hop_count: Callable[[Any], int]
    switch_radix: Callable[[Any], int]
    #: One-way propagation delay of the longest path; ``None`` for
    #: homogeneous fabrics (derived as ``max_hop_count * link_delay_s``).
    path_delay_s: "Callable[[Any], float] | None" = None

    def __call__(self, sim: "Simulator", config: Any, switch_config: "SwitchConfig") -> "Network":
        return self.build(sim, config, switch_config)


TOPOLOGIES: Registry[TopologyBuilder] = Registry(
    "topology",
    builtins={
        "ring": "repro.topology.cyclic",
        "fat_tree": "repro.topology.fattree",
        "inter_dc_fattree": "repro.topology.fattree",
        "star": "repro.topology.simple",
        "dumbbell": "repro.topology.simple",
        "wan_dumbbell": "repro.topology.simple",
        "parking_lot": "repro.topology.simple",
    },
    aliases={"inter_dc_fat_tree": "inter_dc_fattree"},
)


def register_topology(
    name: str,
    *,
    max_hop_count: ConfigMetric,
    switch_radix: ConfigMetric = 4,
    path_delay_s: ConfigDelay = None,
    aliases: Sequence[str] = (),
    replace: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator registering a ``(sim, config, switch_config) -> Network`` builder."""

    def decorator(build: Callable) -> Callable:
        TOPOLOGIES.register(
            name,
            TopologyBuilder(
                name=name,
                build=build,
                max_hop_count=_as_metric(max_hop_count),
                switch_radix=_as_metric(switch_radix),
                path_delay_s=_as_delay(path_delay_s),
            ),
            aliases=aliases,
            replace=replace,
            provider=build.__module__,
        )
        return build

    return decorator
