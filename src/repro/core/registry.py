"""The transport registry: name -> endpoint builder.

A registered transport is a callable ``(sim, src_host, flow, **options) ->
(sender, receiver)`` (see :mod:`repro.core.factory` for the option list and
the built-in variants).  This module holds only the registry and the names
it ships with, so resolving a transport *name* -- what
:class:`~repro.experiments.config.ExperimentConfig` does to every cell --
imports no transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transport import BaseReceiver, BaseSender

__all__ = ["TRANSPORTS", "register_transport"]

#: ``(sim, src_host, flow, **options) -> (sender, receiver)``.
EndpointBuilder = Callable[..., Tuple["BaseSender", "BaseReceiver"]]

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
