"""Congestion-control registry and per-flow instance construction.

Schemes are pluggable: each algorithm registers a :class:`CongestionScheme`
in :data:`CONGESTION_SCHEMES` under a name.  A scheme bundles the per-flow
factory with the metadata the rest of the stack needs to wire it up without
hard-coded per-algorithm branches:

* ``needs_ecn`` -- switches must ECN-mark packets (DCQCN, DCTCP);
* ``step_marking`` -- mark by instantaneous queue threshold instead of the
  RED-style probabilistic profile (DCTCP);
* ``rtt_based`` -- the sender needs per-packet ACKs for RTT samples even on
  a lossless fabric (Timely);
* ``wants_cnp`` -- receivers send DCQCN-style congestion notification
  packets when they see marked traffic.

Register a new algorithm from outside this package and every transport and
scenario can use it by name::

    from repro.congestion import register_congestion_control

    @register_congestion_control("swift", rtt_based=True)
    def make_swift(line_rate_bps, base_rtt_s, params=None):
        return Swift(line_rate_bps, params or SwiftParams(base_rtt_s))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.congestion.base import CongestionControl, NoCongestionControl
from repro.congestion.dcqcn import Dcqcn, DcqcnParams
from repro.congestion.timely import Timely, TimelyParams
from repro.congestion.window import AimdParams, AimdWindow, DctcpParams, DctcpWindow
from repro.registry import Registry

__all__ = [
    "CONGESTION_SCHEMES",
    "CongestionScheme",
    "make_congestion_control",
    "register_congestion_control",
]

#: ``(line_rate_bps, base_rtt_s, params=None) -> CongestionControl``.
SchemeFactory = Callable[..., CongestionControl]


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
    ) -> CongestionControl:
        return self.factory(line_rate_bps, base_rtt_s, params=params)


CONGESTION_SCHEMES: Registry[CongestionScheme] = Registry("congestion control")


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
        )
        return factory

    return decorator


def make_congestion_control(
    kind: str,
    line_rate_bps: float,
    base_rtt_s: float,
    params: Optional[Any] = None,
) -> CongestionControl:
    """Build a per-flow congestion-control object by registered name.

    Parameters
    ----------
    kind:
        A registered scheme name (``"none"``, ``"dcqcn"``, ``"timely"``,
        ``"aimd"``, ``"dctcp"``, or anything added via
        :func:`register_congestion_control`).
    line_rate_bps:
        Host link rate (rate-based algorithms start at line rate).
    base_rtt_s:
        Unloaded RTT of the longest path; used to scale Timely's thresholds
        and the DCQCN timers when explicit parameters are not supplied, so
        the algorithms remain meaningful on scaled-down test fabrics.
    params:
        Optional algorithm-specific parameter object forwarded to the
        factory (``DcqcnParams`` for ``"dcqcn"`` and so on).
    """
    return CONGESTION_SCHEMES.get(kind).build(line_rate_bps, base_rtt_s, params=params)


# ---------------------------------------------------------------------------
# Built-in schemes
# ---------------------------------------------------------------------------

@register_congestion_control("none", aliases=("no_cc", "off"))
def _make_none(line_rate_bps: float, base_rtt_s: float, params=None) -> CongestionControl:
    return NoCongestionControl()


@register_congestion_control("dcqcn", needs_ecn=True, wants_cnp=True)
def _make_dcqcn(line_rate_bps: float, base_rtt_s: float, params=None) -> CongestionControl:
    params = params or DcqcnParams(
        alpha_timer_s=max(base_rtt_s, 5e-6),
        rate_increase_timer_s=max(3.0 * base_rtt_s, 15e-6),
        cnp_interval_s=max(base_rtt_s, 5e-6),
    )
    return Dcqcn(line_rate_bps, params)


@register_congestion_control("timely", rtt_based=True, max_ack_coalesce=1)
def _make_timely(line_rate_bps: float, base_rtt_s: float, params=None) -> CongestionControl:
    params = params or TimelyParams(
        t_low_s=1.5 * base_rtt_s,
        t_high_s=6.0 * base_rtt_s,
        min_rtt_s=max(base_rtt_s, 1e-6),
    )
    return Timely(line_rate_bps, params)


@register_congestion_control("aimd")
def _make_aimd(line_rate_bps: float, base_rtt_s: float, params=None) -> CongestionControl:
    return AimdWindow(params or AimdParams())


@register_congestion_control("dctcp", needs_ecn=True, step_marking=True)
def _make_dctcp(line_rate_bps: float, base_rtt_s: float, params=None) -> CongestionControl:
    return DctcpWindow(params or DctcpParams())
