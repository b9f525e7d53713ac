"""Golden ResultRow pins for the fabric per-hop path.

Recorded at commit 66fbd00 with the full-config fingerprint: sha256 over
the whole serialized :class:`ResultRow` -- headline metrics, fabric
counters, digest payloads and ``events_processed``, floats kept to 12
significant digits -- for a small matrix that puts a cell on each side of
every condition the switch fast path tests, and one cell on each
transport variant's loss path:

* ``fig1`` both cells (PFC thresholds on / drops on, idle and busy ports mixed),
* ``fig9`` ``M=15`` both cells (queues that never idle: almost no cut-through),
* one DCQCN cell (RED marking: RNG draw order) and one Timely cell,
* a packet-spray fabric (uncached routing, installed by *reassigning*
  ``switch.routing`` after the build),
* a fabric with ``max_batch_packets = 1`` (the ``batch1-*`` cells, which are
  what covers the armed wake-up pull: every committed packet hits the batch
  limit, so the pull must be armed),
* ``availability_flap`` (fault and recovery taps wrapping ``receive``),
* one ``fabric_digests=True`` cell (the queue-depth sample values),
* ``wan_incast``, all four cells at seed 1 (long-haul delays 100x and 1000x
  the intra-DC hop, c-latency digests),
* the ``cross_dc`` "IRN ... 1000x" cell (two fat trees bridged by long-haul
  links, 60 flows, seed 2),
* the ``fig1`` IRN cell at ``ack_coalesce_n`` 1 and 4 (per-packet ACKs and
  the coalesced default, 40 flows, seed 1),
* ``availability_flap`` IRN and RoCE cells carrying one window of each of
  the four fault kinds (``FAULT_PLAN``: flap, corruption, degraded link,
  pause storm; 40 flows, seed 1),
* the two ``jumbo-*`` cells (``fig1`` at a 9000 B MTU, 60 flows, seed 1:
  the jumbo-MTU PFC headroom derivation),
* one cell per transport variant or setting the cells above leave out, each
  of which drops or retransmits, so its variant-specific path runs:
  ``fig7`` "IRN with Go-Back-N" (80 flows, seed 2) and "IRN without BDP-FC"
  (40 flows, seed 1), ``no_sack`` "IRN without SACK" (80 flows, seed 2),
  ``fig11`` "iWARP" (80 flows, seed 2), ``fig12`` "IRN (worst-case
  overheads)" (80 flows, seed 2: retransmissions that pay the PCIe fetch
  delay), ``fig3`` "RoCE without PFC" and ``fig10`` "Resilient RoCE" (40
  flows, seed 1: RoCE's go-back-N with ACKs and a fixed timeout).

A pin that moves means an event, an RNG draw or a ``(time, seq)`` ordering
moved, or the row or the fingerprint rule changed.  ``python -m
tests.test_fabric_golden`` prints the table again.

Why 12 digits: the simulation itself is bit-identical on CPython 3.10 to
3.13.  ``avg_fct_s`` and ``avg_slowdown`` used to be ``sum(...) / n``, and
3.12 made ``sum()`` of floats compensated, which moved their last digit.
They are now left-to-right running sums over the collector's stream, and by
hand the unrounded digests of all 35 cells match on CPython 3.10.13, 3.11.7,
3.12.1 and 3.13.0; until CI's 3.12 leg confirms it, the rounding stays.  The
pins hold on every interpreter CI runs.
"""

import contextlib
import hashlib
import itertools
import json
from unittest import mock

import pytest

from repro.experiments import runner
from repro.experiments.spec import scenario
from repro.sim import packet as packet_module


def _spray(network):
    network.build_routing(packet_spray=True)


def _batch_of_one(network):
    for port in network.output_ports():
        port.max_batch_packets = 1


#: One window of every fault kind, aimed at the dumbbell bottleneck.
FAULT_PLAN = {
    "faults": [
        dict(kind="link_flap", src="s0", dst="s1", start_s=100e-6, end_s=200e-6),
        dict(kind="packet_corruption", src="s1", dst="s0",
             probability=0.05, start_s=50e-6, end_s=400e-6),
        dict(kind="degraded_link", src="s0", dst="s1", start_s=250e-6, end_s=450e-6,
             bandwidth_factor=0.5, delay_factor=2.0),
        dict(kind="pause_storm", src="h0", dst="s0", start_s=120e-6, end_s=180e-6),
    ]
}

#: name -> (scenario, cell label, config overrides, fabric tweak or None)
CELLS = {
    "fig1-roce-s1": ("fig1", "RoCE (with PFC)", dict(num_flows=30, seed=1), None),
    "fig1-irn-s1": ("fig1", "IRN (without PFC)", dict(num_flows=30, seed=1), None),
    "fig1-roce-s2": ("fig1", "RoCE (with PFC)", dict(num_flows=30, seed=2), None),
    "fig1-irn-s2": ("fig1", "IRN (without PFC)", dict(num_flows=30, seed=2), None),
    "fig9-roce-m15": ("fig9", "RoCE M=15", dict(seed=1), None),
    "fig9-irn-m15": ("fig9", "IRN M=15", dict(seed=1), None),
    "fig4-roce-dcqcn": ("fig4", "RoCE +dcqcn", dict(num_flows=40, seed=1), None),
    "fig4-irn-dcqcn": ("fig4", "IRN +dcqcn", dict(num_flows=40, seed=1), None),
    "fig4-irn-timely": ("fig4", "IRN +timely", dict(num_flows=20, seed=1), None),
    "spray-irn": ("fig1", "IRN (without PFC)", dict(num_flows=20, seed=3), _spray),
    "spray-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=20, seed=3), _spray),
    "jumbo-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=60, seed=1, mtu_bytes=9000), None),
    "jumbo-irn": ("fig1", "IRN (without PFC)", dict(num_flows=60, seed=1, mtu_bytes=9000), None),
    "batch1-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=20, seed=4), _batch_of_one),
    "batch1-irn": ("fig1", "IRN (without PFC)", dict(num_flows=20, seed=4), _batch_of_one),
    "flap-roce": ("availability_flap", "4 flaps|RoCE (with PFC)",
                  dict(num_flows=120, seed=1), None),
    "flap-irn": ("availability_flap", "4 flaps|IRN (without PFC)",
                 dict(num_flows=120, seed=1), None),
    "digests-roce": ("fig1", "RoCE (with PFC)",
                     dict(num_flows=30, seed=5, fabric_digests=True), None),
    "digests-irn": ("fig1", "IRN (without PFC)",
                    dict(num_flows=30, seed=5, fabric_digests=True), None),
    "wan-incast-roce-100x": ("wan_incast", "RoCE (with PFC) 100x", dict(seed=1), None),
    "wan-incast-irn-100x": ("wan_incast", "IRN (without PFC) 100x", dict(seed=1), None),
    "wan-incast-roce-1000x": ("wan_incast", "RoCE (with PFC) 1000x", dict(seed=1), None),
    "wan-incast-irn-1000x": ("wan_incast", "IRN (without PFC) 1000x", dict(seed=1), None),
    "cross-dc-irn-1000x": ("cross_dc", "IRN (without PFC) 1000x",
                           dict(num_flows=60, seed=2), None),
    "fig1-irn-ack1": ("fig1", "IRN (without PFC)",
                      dict(num_flows=40, seed=1, ack_coalesce_n=1), None),
    "fig1-irn-ack4": ("fig1", "IRN (without PFC)",
                      dict(num_flows=40, seed=1, ack_coalesce_n=4), None),
    "faults-roce": ("availability_flap", "1 flap|RoCE (with PFC)",
                    dict(num_flows=40, seed=1, fault_plan=FAULT_PLAN), None),
    "faults-irn": ("availability_flap", "1 flap|IRN (without PFC)",
                   dict(num_flows=40, seed=1, fault_plan=FAULT_PLAN), None),
    "fig7-irn-go-back-n": ("fig7", "IRN with Go-Back-N", dict(num_flows=80, seed=2), None),
    "fig7-irn-no-bdpfc": ("fig7", "IRN without BDP-FC", dict(num_flows=40, seed=1), None),
    "no-sack-irn": ("no_sack", "IRN without SACK", dict(num_flows=80, seed=2), None),
    "fig11-iwarp": ("fig11", "iWARP", dict(num_flows=80, seed=2), None),
    "fig12-irn-worst-case": ("fig12", "IRN (worst-case overheads)",
                             dict(num_flows=80, seed=2), None),
    "fig3-roce-no-pfc": ("fig3", "RoCE without PFC", dict(num_flows=40, seed=1), None),
    "fig10-resilient-roce": ("fig10", "Resilient RoCE", dict(num_flows=40, seed=1), None),
}

PINS = {
    "fig1-roce-s1": "655dcc16aeaf2e770d6ff7ebce21d9325f950ac79de634263e3561b07926f969",
    "fig1-irn-s1": "059af1c84051e04c03d9dfd8a6801b5100c0c6c0d9c15528ab9023e50add5910",
    "fig1-roce-s2": "2e8e75083ab44b26ea9288ccd4de8a0703aa23a9a0e7c5dbf9be453243a520e1",
    "fig1-irn-s2": "f40c2b0afb6d6d7389dbea1416e65fbe56accbbf5920132281c10395c7e2fa5a",
    "fig9-roce-m15": "0e34a042f10ca6bd02cd32acc8168da3270cc17ed032c9aa2024cdc092a3e5c1",
    "fig9-irn-m15": "c52bf19cb92411229a462cdcc02e57276e87793e74be1fcf5623a253101ee87e",
    "fig4-roce-dcqcn": "c7108bbe0872c7d007adc0d31715a87e6b52eedfb0facc2043f280ce44039a04",
    "fig4-irn-dcqcn": "bfbc2a4c31604f7d52c5e48c4a04ff71e7178a5a17f02501584362363d21d4c1",
    "fig4-irn-timely": "9a7198cc43531706a50aa02f9dccabdbefaa8c7bb3548d7a50ebc63ac8a75c55",
    "spray-irn": "5ac5710624e5958dd2d6410bef2e679f05b0a7bd3c472d66ce22424603e7a44f",
    "spray-roce": "a706970b3bb6e11596574b0969d48040ca37230d738b5238507c6f0bb2e7fa2a",
    "jumbo-roce": "bce1be26d306bd91ed163950c3f0bbfba2048ad49921ce2863058df7b77d569e",
    "jumbo-irn": "1e911e526f698ab3ac7d775f4c98baab943d94e3a1c71c6f3165610ca20dfb51",
    "batch1-roce": "ddb36633432f86c24300f5ff783b050fd10114f3873ae392d31382c9d112fb7f",
    "batch1-irn": "34f4d84c0eaf15c52d648f1209382b7a5b3c33a050c5902835541cb43c28000b",
    "flap-roce": "4e0e1b9b555794e5c7847bfef3a3ac608ce299cd08880bf7ae4bf136e3a8c52e",
    "flap-irn": "a346870f52471b374eeea62a40abd3b72bacdf23345939b0583547034c326ce9",
    "digests-roce": "12ebfd3513f81ed6dc7fa5d0c3ddfa51bf91608a3f025702cd05b2dde1c39621",
    "digests-irn": "2e1e1ae3742398180665ed1e06d2d502ae8ed786a4ce2a158d973a495ca6dff5",
    "wan-incast-roce-100x": "19b718621e019bcc48c7c3f53bce2e44cc61264869966801a54a6676bd24ffb2",
    "wan-incast-irn-100x": "2f4703665cc9bf9fa6f99a105566183edec8509bef59e5330a9610c27f20bf33",
    "wan-incast-roce-1000x": "a1be7759c3a6e3e3cbf54bbf5ff58ca7c87e11f56d314e8ddfce85a3fac6cd88",
    "wan-incast-irn-1000x": "35f239cff96980a20373d7c2811f9bfcef8931b07f118f787171deb1de3e7cab",
    "cross-dc-irn-1000x": "76aea2396eedbe857e97ee05964d67c3b7efa571858a2b566f64a3f04ff3345a",
    "fig1-irn-ack1": "b3072ef962d38f2a87f42eb83983d010fe0e38d1aeb5dd90f28149546e6b1cd8",
    "fig1-irn-ack4": "531710ae29b0bf0e38040c009a5f0f9d96458f8314757eab2f7a1f08ca8053db",
    "faults-roce": "30512e0c73b27943478db5eca3cde81947513d0b853b9e1a6a4e5c0af8ad0b9f",
    "faults-irn": "324052c76b040c45c184f422f17d2f21b75b35e6a516a096222c379963a52e09",
    "fig7-irn-go-back-n": "ceb70bc3c59496605142ad7fb127ca6094509336a537879169adf719c80389d4",
    "fig7-irn-no-bdpfc": "6cbe0b6a90dd6a2195ee00bc2676b18765d59f6d99fea2dbf9025de45e289c1d",
    "no-sack-irn": "0df2f72590fc654a1057914288c325b3648f4e8aa0f4d13dca862412a1568692",
    "fig11-iwarp": "f5b78de23ba747b7b80879250be7239e1abe685c5fa5bf2095009672becfe1b2",
    "fig12-irn-worst-case": "0e7aa183726d580f750d909be063542d4a9795e6d2b2269ae77926954aeb23c4",
    "fig3-roce-no-pfc": "fe277306f6b6e74d6d1f9cf48d7c24cc37ef75ee3b9cfd45fab5c5e00668a048",
    "fig10-resilient-roce": "7261888b4056fc53695abdf604f15193f9788be43c55e898139b3e5de81d511e",
}


def _canonical(value):
    """``value`` with every float rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(name):
    scenario_name, label, overrides, tweak = CELLS[name]
    config = scenario(scenario_name).configs(**overrides)[label]
    patch = contextlib.nullcontext()
    if tweak is not None:
        build = runner._build_network

        def build_and_tweak(sim, cfg):
            network = build(sim, cfg)
            tweak(network)
            return network

        patch = mock.patch.object(runner, "_build_network", build_and_tweak)
    # Packet spraying hashes ``Packet.uid``, a process-wide counter: start it
    # from zero so the row does not depend on which tests ran before.
    with patch, mock.patch.object(packet_module, "_packet_ids", itertools.count()):
        row = runner.run_experiment(config).to_row(label=label)
    payload = json.dumps(_canonical(row.to_dict()), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_row_digest_is_pinned(name):
    assert _digest(name) == PINS[name], f"{name}: the ResultRow moved"


if __name__ == "__main__":
    for cell in CELLS:
        print(f'    "{cell}": "{_digest(cell)}",')
