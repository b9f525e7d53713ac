"""Transport logic: IRN (the paper's contribution), RoCE, iWARP and variants."""

from repro.core.transport import Flow, BaseSender, BaseReceiver, TransportConfig
from repro.core.irn import IrnConfig, IrnSender, IrnReceiver, LossRecovery
from repro.core.roce import RoceConfig, RoceSender, RoceReceiver
from repro.core.iwarp import TcpConfig, TcpSender
from repro.core.factory import (
    TRANSPORTS,
    make_flow_endpoints,
    register_transport,
)

__all__ = [
    "TRANSPORTS",
    "register_transport",
    "Flow",
    "BaseSender",
    "BaseReceiver",
    "TransportConfig",
    "IrnConfig",
    "IrnSender",
    "IrnReceiver",
    "LossRecovery",
    "RoceConfig",
    "RoceSender",
    "RoceReceiver",
    "TcpConfig",
    "TcpSender",
    "make_flow_endpoints",
]
