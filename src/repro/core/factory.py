"""Transport registry and factories building matched sender/receiver pairs.

Transports are pluggable: each variant registers an *endpoint builder* in
:data:`TRANSPORTS` under a name, and :func:`make_flow_endpoints` (the single
entry point the runner uses) resolves the configured transport through that
registry.  The registry itself lives in :mod:`repro.core.registry`, which
declares the paper's variants by name; they are registered at the bottom of
this module, their provider: ``irn``, ``roce``, ``iwarp`` and the §4.3
factor-analysis ablations ``irn_go_back_n``, ``irn_no_bdpfc`` and
``irn_no_sack``.

A registered builder has the signature::

    def build(sim, src_host, flow, *, irn_config=None, roce_config=None,
              tcp_config=None, congestion_control=None, cnp_interval_s=None,
              on_sender_complete=None, on_receiver_complete=None,
              **extra) -> (BaseSender, BaseReceiver)

Builders only read the keyword arguments they care about and must tolerate
(ignore) the rest, so new transports can be registered from outside this
package without changing the runner::

    from repro.core import register_transport

    @register_transport("my_transport")
    def build_mine(sim, src_host, flow, *, congestion_control=None,
                   on_sender_complete=None, on_receiver_complete=None, **_):
        return MySender(...), MyReceiver(...)
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.irn import IrnConfig, IrnReceiver, IrnSender, LossRecovery
from repro.core.iwarp import TcpConfig, TcpSender
from repro.core.registry import TRANSPORTS, register_transport
from repro.core.roce import RoceConfig, RoceReceiver, RoceSender
from repro.core.transport import BaseReceiver, BaseSender, Flow, FlowCallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host


def make_flow_endpoints(
    sim: "Simulator",
    src_host: "Host",
    flow: Flow,
    kind: str,
    irn_config: Optional[IrnConfig] = None,
    roce_config: Optional[RoceConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    congestion_control: Optional["CongestionControl"] = None,
    cnp_interval_s: Optional[float] = None,
    on_sender_complete: Optional[FlowCallback] = None,
    on_receiver_complete: Optional[FlowCallback] = None,
) -> Tuple[BaseSender, BaseReceiver]:
    """Instantiate the sender and receiver for ``flow`` under ``kind``.

    ``kind`` is a registered transport name.  The caller is responsible
    for registering the returned endpoints with their hosts
    (``src_host.register_sender`` / ``dst_host.register_receiver``); the
    factory only needs the source host to wire the sender's NIC callbacks.
    """
    build = TRANSPORTS.get(kind)
    return build(
        sim,
        src_host,
        flow,
        irn_config=irn_config,
        roce_config=roce_config,
        tcp_config=tcp_config,
        congestion_control=congestion_control,
        cnp_interval_s=cnp_interval_s,
        on_sender_complete=on_sender_complete,
        on_receiver_complete=on_receiver_complete,
    )


# ---------------------------------------------------------------------------
# Built-in transports
# ---------------------------------------------------------------------------

@register_transport("roce")
def _build_roce(
    sim: "Simulator",
    src_host: "Host",
    flow: Flow,
    *,
    roce_config: Optional[RoceConfig] = None,
    congestion_control: Optional["CongestionControl"] = None,
    cnp_interval_s: Optional[float] = None,
    on_sender_complete: Optional[FlowCallback] = None,
    on_receiver_complete: Optional[FlowCallback] = None,
    **_: object,
) -> Tuple[BaseSender, BaseReceiver]:
    config = roce_config or RoceConfig()
    sender = RoceSender(
        sim, src_host, flow, config,
        congestion_control=congestion_control,
        on_complete=on_sender_complete,
    )
    receiver = RoceReceiver(
        sim, flow, config,
        on_complete=on_receiver_complete,
        cnp_interval_s=cnp_interval_s,
    )
    return sender, receiver


@register_transport("iwarp")
def _build_iwarp(
    sim: "Simulator",
    src_host: "Host",
    flow: Flow,
    *,
    tcp_config: Optional[TcpConfig] = None,
    congestion_control: Optional["CongestionControl"] = None,
    cnp_interval_s: Optional[float] = None,
    on_sender_complete: Optional[FlowCallback] = None,
    on_receiver_complete: Optional[FlowCallback] = None,
    **_: object,
) -> Tuple[BaseSender, BaseReceiver]:
    config = tcp_config or TcpConfig()
    sender = TcpSender(
        sim, src_host, flow, config,
        congestion_control=congestion_control,
        on_complete=on_sender_complete,
    )
    receiver = IrnReceiver(
        sim, flow, config,
        on_complete=on_receiver_complete,
        cnp_interval_s=cnp_interval_s,
        accept_ooo=True,
    )
    return sender, receiver


def _register_irn_variant(name: str, tweak, accept_ooo: bool = True) -> None:
    """IRN and its §4.3 factor-analysis variants share one builder body."""

    @register_transport(name)
    def _build_irn(
        sim: "Simulator",
        src_host: "Host",
        flow: Flow,
        *,
        irn_config: Optional[IrnConfig] = None,
        congestion_control: Optional["CongestionControl"] = None,
        cnp_interval_s: Optional[float] = None,
        on_sender_complete: Optional[FlowCallback] = None,
        on_receiver_complete: Optional[FlowCallback] = None,
        **_: object,
    ) -> Tuple[BaseSender, BaseReceiver]:
        config = tweak(irn_config or IrnConfig())
        sender = IrnSender(
            sim, src_host, flow, config,
            congestion_control=congestion_control,
            on_complete=on_sender_complete,
        )
        receiver = IrnReceiver(
            sim, flow, config,
            on_complete=on_receiver_complete,
            cnp_interval_s=cnp_interval_s,
            accept_ooo=accept_ooo,
        )
        return sender, receiver


_register_irn_variant("irn", lambda config: config)
# The go-back-N variant keeps the RoCE-style receiver that discards
# out-of-order packets; all other variants accept them.
_register_irn_variant(
    "irn_go_back_n",
    lambda config: dataclasses.replace(config, loss_recovery=LossRecovery.GO_BACK_N),
    accept_ooo=False,
)
_register_irn_variant(
    "irn_no_bdpfc",
    lambda config: dataclasses.replace(config, bdp_fc_enabled=False),
)
_register_irn_variant(
    "irn_no_sack",
    lambda config: dataclasses.replace(config, loss_recovery=LossRecovery.SELECTIVE_NO_SACK),
)
