"""Per-flow congestion-control construction and the built-in schemes.

Schemes are pluggable: each algorithm registers a :class:`CongestionScheme`
(its per-flow factory plus the metadata the fabric wiring reads) in
:data:`CONGESTION_SCHEMES` under a name.  The registry and the scheme
record live in :mod:`repro.congestion.registry`, which declares the
built-ins by name; this module is their provider and registers them at the
bottom.

Register a new algorithm from outside this package and every transport and
scenario can use it by name::

    from repro.congestion import register_congestion_control

    @register_congestion_control("swift", rtt_based=True)
    def make_swift(line_rate_bps, base_rtt_s, params=None):
        return Swift(line_rate_bps, params or SwiftParams(base_rtt_s))
"""

from __future__ import annotations

from typing import Any, Optional

from repro.congestion.base import CongestionControl, NoCongestionControl
from repro.congestion.dcqcn import Dcqcn, DcqcnParams
from repro.congestion.registry import (
    CONGESTION_SCHEMES,
    CongestionScheme,
    register_congestion_control,
)
from repro.congestion.timely import Timely, TimelyParams
from repro.congestion.window import AimdParams, AimdWindow, DctcpParams, DctcpWindow

__all__ = [
    "CONGESTION_SCHEMES",
    "CongestionScheme",
    "make_congestion_control",
    "register_congestion_control",
]


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
