"""Transport logic: IRN (the paper's contribution), RoCE, iWARP and variants."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TRANSPORTS": "repro.core.registry",
    "register_transport": "repro.core.registry",
    "Flow": "repro.core.transport",
    "BaseSender": "repro.core.transport",
    "BaseReceiver": "repro.core.transport",
    "TransportConfig": "repro.core.transport",
    "IrnConfig": "repro.core.irn",
    "IrnSender": "repro.core.irn",
    "IrnReceiver": "repro.core.irn",
    "LossRecovery": "repro.core.irn",
    "RoceConfig": "repro.core.roce",
    "RoceSender": "repro.core.roce",
    "RoceReceiver": "repro.core.roce",
    "TcpConfig": "repro.core.iwarp",
    "TcpSender": "repro.core.iwarp",
})
