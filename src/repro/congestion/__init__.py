"""Congestion control algorithms pluggable into any transport.

The paper evaluates RoCE and IRN with and without explicit congestion
control: DCQCN (the ECN/CNP rate control deployed on ConnectX-4 NICs),
Timely (RTT-gradient rate control), and -- in §4.4.4/§4.6 -- conventional
window-based schemes (TCP AIMD and DCTCP) layered on IRN.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CONGESTION_SCHEMES": "repro.congestion.registry",
    "CongestionScheme": "repro.congestion.registry",
    "register_congestion_control": "repro.congestion.registry",
    "CongestionControl": "repro.congestion.base",
    "NoCongestionControl": "repro.congestion.base",
    "Dcqcn": "repro.congestion.dcqcn",
    "DcqcnParams": "repro.congestion.dcqcn",
    "Timely": "repro.congestion.timely",
    "TimelyParams": "repro.congestion.timely",
    "AimdWindow": "repro.congestion.window",
    "AimdParams": "repro.congestion.window",
    "DctcpWindow": "repro.congestion.window",
    "DctcpParams": "repro.congestion.window",
    "make_congestion_control": "repro.congestion.factory",
})
