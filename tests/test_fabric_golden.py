"""Golden ResultRow pins for the fabric per-hop path.

Recorded at commit 66fbd00 with the full-config fingerprint; the 21 pins
of cells that arm a retransmission timer were re-recorded on top of
ec05945, when an ACK began to move the timer's deadline instead of its
event (each moved only through ``events_processed``: the timer's early
wake-ups are processed events).  A pin is sha256 over the whole
serialized :class:`ResultRow` -- headline metrics, fabric counters,
digest payloads and ``events_processed``, floats kept to 12 significant
digits -- for a small matrix that puts a cell on each side of
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
import json
from unittest import mock

import pytest

from repro.experiments import runner
from repro.experiments.spec import scenario


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
    "fig1-irn-s1": "c368626e910d0a90e68d25c65f869ff2cb4313850bc7369c06ddbed4d1ae2508",
    "fig1-roce-s2": "2e8e75083ab44b26ea9288ccd4de8a0703aa23a9a0e7c5dbf9be453243a520e1",
    "fig1-irn-s2": "e635d650db46ed7b4751a1f334e7da35e86ff4210cfb0daabb067e2471a75568",
    "fig9-roce-m15": "0e34a042f10ca6bd02cd32acc8168da3270cc17ed032c9aa2024cdc092a3e5c1",
    "fig9-irn-m15": "13814345f2bf629122decb7e32fcfe1e3557197e5291819d34c80c9b4fac464e",
    "fig4-roce-dcqcn": "c7108bbe0872c7d007adc0d31715a87e6b52eedfb0facc2043f280ce44039a04",
    "fig4-irn-dcqcn": "8a5b34af7ec78622c91144932eab0aff77d8a118de8db70bfaf14a8d10715d41",
    "fig4-irn-timely": "6afc52a99d62cc7310e2e69ba1f26bb451364145157748efca2bbf13033a01ce",
    "spray-irn": "9e4ec1857aedf5cd76fe303d8488f862143d5898f520327733cdccc14f086811",
    "spray-roce": "a706970b3bb6e11596574b0969d48040ca37230d738b5238507c6f0bb2e7fa2a",
    "jumbo-roce": "bce1be26d306bd91ed163950c3f0bbfba2048ad49921ce2863058df7b77d569e",
    "jumbo-irn": "6880a741a9bfb264977bc2af3e4291a52dcde7c38d357a424e7d5c89643e7a16",
    "batch1-roce": "ddb36633432f86c24300f5ff783b050fd10114f3873ae392d31382c9d112fb7f",
    "batch1-irn": "061060866f392c44ccabe03265307ffe7a89f070c80cefa491fadeac0729e61c",
    "flap-roce": "4e0e1b9b555794e5c7847bfef3a3ac608ce299cd08880bf7ae4bf136e3a8c52e",
    "flap-irn": "5be3c328d6219dd2dd1c93971bf7a121bf8b5c0483fa8eec9544c35f1cc35d6e",
    "digests-roce": "12ebfd3513f81ed6dc7fa5d0c3ddfa51bf91608a3f025702cd05b2dde1c39621",
    "digests-irn": "85e8108b603c6c61b98e7698f600885fb46af62473cc2432f96c612f208051cb",
    "wan-incast-roce-100x": "19b718621e019bcc48c7c3f53bce2e44cc61264869966801a54a6676bd24ffb2",
    "wan-incast-irn-100x": "acf4b31323c9eb65d67a59084904914fbed9d597532412f21f384f741fdb5a78",
    "wan-incast-roce-1000x": "a1be7759c3a6e3e3cbf54bbf5ff58ca7c87e11f56d314e8ddfce85a3fac6cd88",
    "wan-incast-irn-1000x": "35f239cff96980a20373d7c2811f9bfcef8931b07f118f787171deb1de3e7cab",
    "cross-dc-irn-1000x": "76aea2396eedbe857e97ee05964d67c3b7efa571858a2b566f64a3f04ff3345a",
    "fig1-irn-ack1": "592e64ff138ec11704dee6c7ce93f7e4fcb2e47b8cf05683447638c30b83bb5d",
    "fig1-irn-ack4": "229cfc633d9b78c3a099e1f4cd4226c4c6a642dde30e324b0fcda7ed6c32bd39",
    "faults-roce": "30512e0c73b27943478db5eca3cde81947513d0b853b9e1a6a4e5c0af8ad0b9f",
    "faults-irn": "f09fdd4a34ca6d9fafd42d2253848159dc974dc4890587946850ffb7377eee1e",
    "fig7-irn-go-back-n": "eee8ef4ed409860a1a4762d61a04863c1d3fe029eefe715e8d9f397e90bdd9af",
    "fig7-irn-no-bdpfc": "47806ddcf886f9c1ef382ed6da80e2f290d557c1f09fc620bcb38794f33b2841",
    "no-sack-irn": "d6f13a670fccf75806d91bab4840176f31c2f7af412d9b8563c4da114131e1e9",
    "fig11-iwarp": "4805f45011b75a813cda71ff074e912776869f83fc47d58b0c69ce8a24148d3b",
    "fig12-irn-worst-case": "8aac56fe62626e0f52798b156b91c56733344184cb27df4cc5386cb323ef2426",
    "fig3-roce-no-pfc": "01fba8a9590b3219403c0f6edd71107db62f381409a5bad4f6a01885b9ae8677",
    "fig10-resilient-roce": "bb5a4fee391d8fa4508728158e8151eed2ca47eb2a45673517df70ab896fd59c",
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
    with patch:
        row = runner.run_experiment(config).to_row(label=label)
    payload = json.dumps(_canonical(row.to_dict()), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_row_digest_is_pinned(name):
    assert _digest(name) == PINS[name], f"{name}: the ResultRow moved"


if __name__ == "__main__":
    for cell in CELLS:
        print(f'    "{cell}": "{_digest(cell)}",')
