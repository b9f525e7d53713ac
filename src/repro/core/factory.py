"""The built-in transports: one endpoint builder per run, one pair per flow.

A registered transport (see :mod:`repro.core.registry`) is a callable
``(config) -> endpoints``.  It reads the run's config once -- the same
duck-typed config the topology and workload builders take, in practice an
:class:`~repro.experiments.config.ExperimentConfig` -- builds its own
transport config from the config's fields and its derived
:meth:`~repro.experiments.config.ExperimentConfig.physics` record, and
returns ``endpoints``, which the runner calls at each flow's start time::

    endpoints(sim, src_host, flow, congestion_control, cnp_interval_s,
              on_sender_complete, on_receiver_complete) -> (sender, receiver)

The caller registers the returned pair with its hosts
(``dst_host.register_receiver`` / ``src_host.register_sender``); the source
host is passed only to wire the sender's NIC callbacks.

The six built-ins are ``irn``, ``roce``, ``iwarp`` and the §4.3
factor-analysis ablations ``irn_go_back_n``, ``irn_no_bdpfc`` and
``irn_no_sack``; :mod:`repro.core.registry` declares them by name.  Every
receiver is an :class:`~repro.core.irn.IrnReceiver`, so they share one
pairing helper, :func:`_pair`.  Only iWARP has its own sender class; the
other five are :class:`~repro.core.irn.IrnSender` settings -- RoCE is IRN
with go-back-N, no BDP-FC cap and one timeout -- and differ only in the
transport config and whether the receiver accepts out-of-order packets.

A transport registered from outside this package follows the same shape::

    from repro.core import register_transport

    @register_transport("my_transport")
    def build_mine(config):
        my_config = MyConfig(mtu_bytes=config.mtu_bytes, ...)

        def endpoints(sim, src_host, flow, congestion_control, cnp_interval_s,
                      on_sender_complete, on_receiver_complete):
            return MySender(...), MyReceiver(...)

        return endpoints
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional, Tuple, Type

from repro.core.irn import IrnConfig, IrnReceiver, IrnSender, LossRecovery
from repro.core.iwarp import TcpConfig, TcpSender
from repro.core.registry import Endpoints, register_transport
from repro.core.transport import BaseReceiver, BaseSender, Flow, FlowCallback, TransportConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congestion.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.sim.host import Host


def _pair(sender_class: Type[BaseSender], config: TransportConfig, accept_ooo: bool) -> Endpoints:
    """Endpoints pairing ``sender_class`` with an :class:`IrnReceiver`."""

    def endpoints(
        sim: "Simulator",
        src_host: "Host",
        flow: Flow,
        congestion_control: Optional["CongestionControl"],
        cnp_interval_s: Optional[float],
        on_sender_complete: Optional[FlowCallback],
        on_receiver_complete: Optional[FlowCallback],
    ) -> Tuple[BaseSender, BaseReceiver]:
        sender = sender_class(
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

    return endpoints


# ---------------------------------------------------------------------------
# Built-in transports
# ---------------------------------------------------------------------------

@register_transport("roce")
def _build_roce(config: Any) -> Endpoints:
    # RoCE is IRN's sender with §3's changes switched off (go-back-N, no
    # BDP-FC cap, one fixed RTO_high) and none of §6.3's overheads (the raw
    # headers, no PCIe fetch delay).  With PFC the paper's RoCE baseline
    # sends no ACKs and disables timeouts; without PFC it needs ACKs for
    # go-back-N progress.  RTT-based schemes (Timely among the built-ins)
    # additionally need per-packet RTT samples, hence ACKs, regardless
    # of PFC.
    needs_acks = (not config.pfc_enabled) or config.congestion_scheme().rtt_based
    irn_config = _irn_config(config)
    roce_config = dataclasses.replace(
        irn_config,
        loss_recovery=LossRecovery.GO_BACK_N,
        bdp_fc_enabled=False,
        rto_low_s=irn_config.rto_high_s,
        header_bytes=config.header_bytes,
        retransmission_fetch_delay_s=0.0,
        generate_acks=needs_acks,
        timeouts_enabled=not config.pfc_enabled,
    )
    return _pair(IrnSender, roce_config, accept_ooo=False)


@register_transport("iwarp")
def _build_iwarp(config: Any) -> Endpoints:
    physics = config.physics()
    tcp_config = TcpConfig(
        mtu_bytes=config.mtu_bytes,
        header_bytes=config.header_bytes,
        generate_acks=True,
        timeouts_enabled=True,
        rto_low_s=physics.rto_low_s,
        rto_high_s=physics.rto_high_s,
        min_rto_s=physics.rto_low_s,
        initial_rto_s=physics.rto_high_s,
        ack_coalesce_n=physics.ack_coalesce_n,
        ack_coalesce_s=physics.ack_coalesce_s,
    )
    return _pair(TcpSender, tcp_config, accept_ooo=True)


def _irn_config(config: Any) -> IrnConfig:
    """IRN's transport config for a run; RoCE and the ablations replace fields of it."""
    physics = config.physics()
    return IrnConfig(
        mtu_bytes=config.mtu_bytes,
        header_bytes=physics.header_bytes,
        generate_acks=True,
        timeouts_enabled=True,
        bdp_cap_packets=physics.bdp_cap_packets,
        bdp_fc_enabled=True,
        rto_low_s=physics.rto_low_s,
        rto_high_s=physics.rto_high_s,
        rto_low_threshold_packets=config.rto_low_threshold_packets,
        retransmission_fetch_delay_s=2e-6 if config.worst_case_overheads else 0.0,
        ack_coalesce_n=physics.ack_coalesce_n,
        ack_coalesce_s=physics.ack_coalesce_s,
    )


def _register_irn_variant(name: str, accept_ooo: bool = True, **changes: Any) -> None:
    """IRN and its §4.3 factor-analysis variants share one builder body."""

    @register_transport(name)
    def _build_irn(config: Any) -> Endpoints:
        return _pair(IrnSender, dataclasses.replace(_irn_config(config), **changes), accept_ooo)


_register_irn_variant("irn")
# The go-back-N variant keeps the RoCE-style receiver that discards
# out-of-order packets; all other variants accept them.
_register_irn_variant("irn_go_back_n", accept_ooo=False, loss_recovery=LossRecovery.GO_BACK_N)
_register_irn_variant("irn_no_bdpfc", bdp_fc_enabled=False)
_register_irn_variant("irn_no_sack", loss_recovery=LossRecovery.SELECTIVE_NO_SACK)
