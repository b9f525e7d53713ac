"""The transport registry: name -> endpoint builder.

A registered transport is a callable ``(config) -> endpoints``: the runner
calls it once per run with the run's config, and calls the ``endpoints`` it
returns at each flow's start time to get the flow's ``(sender, receiver)``
(see :mod:`repro.core.factory` for the ``endpoints`` signature and the
built-in variants).  This module holds only the registry and the names it
ships with, so resolving a transport *name* -- what
:class:`~repro.experiments.config.ExperimentConfig` does to every cell --
imports no transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Tuple

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.irn import IrnReceiver, IrnSender

__all__ = ["TRANSPORTS", "register_transport"]

#: ``endpoints(sim, src_host, flow, ...) -> (sender, receiver)``, once per flow.
Endpoints = Callable[..., Tuple["IrnSender", "IrnReceiver"]]
#: ``(config) -> endpoints``, once per run.
EndpointBuilder = Callable[[Any], Endpoints]

TRANSPORTS: Registry[EndpointBuilder] = Registry(
    "transport",
    builtins=dict.fromkeys(
        ("roce", "iwarp", "irn", "irn_go_back_n", "irn_no_bdpfc", "irn_no_sack"),
        "repro.core.factory",
    ),
)


def register_transport(name: str, *, aliases: Sequence[str] = (), replace: bool = False):
    """Decorator registering a transport endpoint builder under ``name``."""
    return TRANSPORTS.register(name, aliases=aliases, replace=replace)
