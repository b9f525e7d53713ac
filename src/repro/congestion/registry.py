"""The congestion-control registry: name -> :class:`CongestionScheme`.

A scheme bundles the per-flow factory with the metadata the rest of the
stack needs to wire it up without hard-coded per-algorithm branches:

* ``needs_ecn`` -- switches must ECN-mark packets (DCQCN, DCTCP);
* ``step_marking`` -- mark by instantaneous queue threshold instead of the
  RED-style probabilistic profile (DCTCP);
* ``rtt_based`` -- the sender needs per-packet ACKs for RTT samples even on
  a lossless fabric (Timely);
* ``wants_cnp`` -- receivers send DCQCN-style congestion notification
  packets when they see marked traffic.

This module holds only the registry and the names it ships with (their
factories and metadata are registered by :mod:`repro.congestion.factory`,
the provider), so resolving a scheme *name* -- what
:class:`~repro.experiments.config.ExperimentConfig` does to every cell --
imports no algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl

__all__ = ["CONGESTION_SCHEMES", "CongestionScheme", "register_congestion_control"]

#: ``(line_rate_bps, base_rtt_s, params=None) -> CongestionControl``.
SchemeFactory = Callable[..., "CongestionControl"]


@dataclass(frozen=True)
class CongestionScheme:
    """A registered congestion-control algorithm plus its fabric needs."""

    name: str
    factory: SchemeFactory
    #: Switches must ECN-mark packets for this scheme to see congestion.
    needs_ecn: bool = False
    #: ECN marking is by instantaneous-queue step threshold (DCTCP style).
    step_marking: bool = False
    #: The sender needs per-packet ACKs for RTT samples regardless of PFC.
    rtt_based: bool = False
    #: Receivers emit DCQCN-style CNPs when they receive marked packets.
    wants_cnp: bool = False
    #: Hard cap on receiver-side cumulative-ACK coalescing while this scheme
    #: is active (``None`` = no scheme-imposed cap).  RTT-based schemes read
    #: their congestion signal out of the per-packet ACK stream, so they pin
    #: the coalescing window to 1; purely timer/CNP-driven schemes tolerate
    #: any degree.
    max_ack_coalesce: Optional[int] = None
    #: CNP pacing for ``wants_cnp`` schemes: the minimum spacing between
    #: CNPs a receiver emits, in units of the fabric's base RTT (the wiring
    #: floors the product at 5 us so scaled-down fabrics keep a sane
    #: notification-point interval).
    cnp_interval_rtts: float = 1.0

    def build(
        self, line_rate_bps: float, base_rtt_s: float, params: Optional[Any] = None
    ) -> "CongestionControl":
        return self.factory(line_rate_bps, base_rtt_s, params=params)


CONGESTION_SCHEMES: Registry[CongestionScheme] = Registry(
    "congestion control",
    builtins=dict.fromkeys(
        ("none", "dcqcn", "timely", "aimd", "dctcp"), "repro.congestion.factory"
    ),
    aliases={"no_cc": "none", "off": "none"},
)


def register_congestion_control(
    name: str,
    *,
    needs_ecn: bool = False,
    step_marking: bool = False,
    rtt_based: bool = False,
    wants_cnp: bool = False,
    max_ack_coalesce: Optional[int] = None,
    cnp_interval_rtts: float = 1.0,
    aliases: Sequence[str] = (),
    replace: bool = False,
):
    """Decorator registering a scheme factory under ``name``.

    The decorated callable takes ``(line_rate_bps, base_rtt_s, params=None)``
    and returns a fresh per-flow :class:`CongestionControl` instance.
    """

    def decorator(factory: SchemeFactory) -> SchemeFactory:
        CONGESTION_SCHEMES.register(
            name,
            CongestionScheme(
                name=name,
                factory=factory,
                needs_ecn=needs_ecn,
                step_marking=step_marking,
                rtt_based=rtt_based,
                wants_cnp=wants_cnp,
                max_ack_coalesce=max_ack_coalesce,
                cnp_interval_rtts=cnp_interval_rtts,
            ),
            aliases=aliases,
            replace=replace,
            provider=factory.__module__,
        )
        return factory

    return decorator
